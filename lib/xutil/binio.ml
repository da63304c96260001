exception Truncated

type writer = { mutable buf : Bytes.t; mutable len : int }

let writer ?(capacity = 256) () = { buf = Bytes.create (max 16 capacity); len = 0 }

let length w = w.len

let contents w = Bytes.sub_string w.buf 0 w.len

let reset w = w.len <- 0

let grow w needed =
  let cap = ref (Bytes.length w.buf * 2) in
  while !cap < needed do
    cap := !cap * 2
  done;
  let nb = Bytes.create !cap in
  Bytes.blit w.buf 0 nb 0 w.len;
  w.buf <- nb

(* Small enough to inline: the growth path is out of line. *)
let ensure w extra = if w.len + extra > Bytes.length w.buf then grow w (w.len + extra)

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
  if n < 0x80 then write_u8 w n
  else begin
    let n = ref n in
    while !n >= 0x80 do
      write_u8 w (!n land 0x7f lor 0x80);
      n := !n lsr 7
    done;
    write_u8 w !n
  end

let write_raw w s =
  let n = String.length s in
  ensure w n;
  Bytes.blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

let write_string w s =
  write_varint w (String.length s);
  write_raw w s

let write_sub w s pos n =
  ensure w n;
  Bytes.blit_string s pos w.buf w.len n;
  w.len <- w.len + n

let write_bytes w b pos n =
  ensure w n;
  Bytes.blit b pos w.buf w.len n;
  w.len <- w.len + n

let rec varint_size n = if n < 0x80 then 1 else 1 + varint_size (n lsr 7)

let reserve w n =
  ensure w n;
  let at = w.len in
  w.len <- w.len + n;
  at

(* Every byte but the last carries the continuation bit, so the padding
   bytes of a short value read as zero-valued groups. *)
let patch_varint w ~pos ~width n =
  assert (n >= 0 && width >= varint_size n && pos >= 0 && pos + width <= w.len);
  let n = ref n in
  for i = 0 to width - 1 do
    let b = !n land 0x7f in
    n := !n lsr 7;
    Bytes.unsafe_set w.buf (pos + i)
      (Char.unsafe_chr (if i < width - 1 then b lor 0x80 else b))
  done

let truncate w n =
  assert (n >= 0 && n <= w.len);
  w.len <- n

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
