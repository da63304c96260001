exception Truncated

type writer = { mutable buf : Bytes.t; mutable len : int }

let writer ?(capacity = 256) () = { buf = Bytes.create (max 16 capacity); len = 0 }

let length w = w.len

let contents w = Bytes.sub_string w.buf 0 w.len

let reset w = w.len <- 0

let ensure w extra =
  let needed = w.len + extra in
  if needed > Bytes.length w.buf then begin
    let cap = ref (Bytes.length w.buf * 2) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let nb = Bytes.create !cap in
    Bytes.blit w.buf 0 nb 0 w.len;
    w.buf <- nb
  end

let write_u8 w v =
  ensure w 1;
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (v land 0xff));
  w.len <- w.len + 1

let write_u16 w v =
  ensure w 2;
  Bytes.set_uint16_le w.buf w.len (v land 0xffff);
  w.len <- w.len + 2

let write_u32 w v =
  ensure w 4;
  Bytes.set_int32_le w.buf w.len (Int32.of_int v);
  w.len <- w.len + 4

let write_u64 w v =
  ensure w 8;
  Bytes.set_int64_le w.buf w.len v;
  w.len <- w.len + 8

let write_varint w n =
  assert (n >= 0);
  let n = ref n in
  while !n >= 0x80 do
    write_u8 w (!n land 0x7f lor 0x80);
    n := !n lsr 7
  done;
  write_u8 w !n

let write_raw w s =
  let n = String.length s in
  ensure w n;
  Bytes.blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

let write_string w s =
  write_varint w (String.length s);
  write_raw w s

let blit_to_bytes w dst pos = Bytes.blit w.buf 0 dst pos w.len

let patch_u32 w ~pos v =
  assert (pos >= 0 && pos + 4 <= w.len);
  Bytes.set_int32_le w.buf pos (Int32.of_int v)

let unsafe_bytes w = w.buf

let drop_prefix w n =
  assert (n >= 0 && n <= w.len);
  if n > 0 then begin
    Bytes.blit w.buf n w.buf 0 (w.len - n);
    w.len <- w.len - n
  end

type reader = { buf : string; mutable pos : int }

let reader ?(pos = 0) buf = { buf; pos }

let remaining r = String.length r.buf - r.pos

let need r n = if remaining r < n then raise Truncated

let read_u8 r =
  need r 1;
  let v = Char.code (String.unsafe_get r.buf r.pos) in
  r.pos <- r.pos + 1;
  v

let read_u16 r =
  need r 2;
  let v = String.get_uint16_le r.buf r.pos in
  r.pos <- r.pos + 2;
  v

let read_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.buf r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

let read_u64 r =
  need r 8;
  let v = String.get_int64_le r.buf r.pos in
  r.pos <- r.pos + 8;
  v

(* At most 9 bytes: 9 x 7 bits cover a 63-bit int.  A tenth byte would
   shift past the word, so an overlong encoding reads as [Truncated]. *)
let read_varint r =
  let b = ref (read_u8 r) in
  let acc = ref (!b land 0x7f) and shift = ref 7 in
  while !b >= 0x80 do
    if !shift > 56 then raise Truncated;
    b := read_u8 r;
    acc := !acc lor ((!b land 0x7f) lsl !shift);
    shift := !shift + 7
  done;
  !acc

let read_raw r n =
  if n < 0 then raise Truncated;
  need r n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let read_string r =
  let n = read_varint r in
  read_raw r n
