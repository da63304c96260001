(* Slicing-by-8 over plain ints: eight 256-entry tables in one flat
   array, [tables.(k * 256 + b)] being the CRC of byte [b] followed by
   [k] zero bytes.  The running CRC is an immediate int in [0, 2^32), so
   the loop allocates nothing; only the [int32] result is boxed. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for i = 0 to 255 do
    let c = ref i in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then (!c lsr 1) lxor 0x82F63B78 else !c lsr 1
    done;
    t.(i) <- !c
  done;
  for k = 1 to 7 do
    for i = 0 to 255 do
      let prev = t.(((k - 1) * 256) + i) in
      t.((k * 256) + i) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let[@inline] tbl k i = Array.unsafe_get tables ((k lsl 8) lor i)

let[@inline] byte b i = Char.code (Bytes.unsafe_get b i)

(* [crc] is the pre-inverted running state. *)
let rec tail crc b i stop =
  if i >= stop then crc
  else tail (tbl 0 ((crc lxor byte b i) land 0xff) lxor (crc lsr 8)) b (i + 1) stop

let rec words crc b i stop =
  if i + 8 > stop then tail crc b i stop
  else begin
    let lo =
      crc
      lxor (byte b i lor (byte b (i + 1) lsl 8) lor (byte b (i + 2) lsl 16)
           lor (byte b (i + 3) lsl 24))
    in
    let crc =
      tbl 7 (lo land 0xff)
      lxor tbl 6 ((lo lsr 8) land 0xff)
      lxor tbl 5 ((lo lsr 16) land 0xff)
      lxor tbl 4 (lo lsr 24)
      lxor tbl 3 (byte b (i + 4))
      lxor tbl 2 (byte b (i + 5))
      lxor tbl 1 (byte b (i + 6))
      lxor tbl 0 (byte b (i + 7))
    in
    words crc b (i + 8) stop
  end

let digest ?(crc = 0l) b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Crc32c.digest";
  let init = Int32.to_int crc land 0xFFFF_FFFF lxor 0xFFFF_FFFF in
  Int32.of_int (words init b pos (pos + len) lxor 0xFFFF_FFFF)

let digest_string ?crc s =
  digest ?crc (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let mask_delta = 0xa282ead8l

let mask c =
  let rotated =
    Int32.logor (Int32.shift_right_logical c 15) (Int32.shift_left c 17)
  in
  Int32.add rotated mask_delta

let unmask m =
  let rotated = Int32.sub m mask_delta in
  Int32.logor (Int32.shift_right_logical rotated 17) (Int32.shift_left rotated 15)
