type t = string

let slice k ~off =
  let len = String.length k in
  if off + 8 <= len then String.get_int64_be k off
  else begin
    (* Short tail: accumulate the remaining bytes into the high-order end,
       leaving the rest zero, which is exactly big-endian zero padding. *)
    let v = ref 0L in
    let avail = len - off in
    if avail > 0 then
      for i = 0 to avail - 1 do
        let b = Int64.of_int (Char.code (String.unsafe_get k (off + i))) in
        v := Int64.logor !v (Int64.shift_left b (8 * (7 - i)))
      done;
    !v
  end

(* Halves of the slice as immediate ints (0 .. 2^32-1).  The pooled node
   layout stores slices as two tagged words in an int Bigarray precisely
   so that the hot comparison path never touches a boxed [int64]: reading
   a boxed int64 out of an array is free, but reading an [int64] element
   from a Bigarray allocates a fresh box per read, which would put an
   allocation in every descent step. *)

let slice_hi k ~off =
  let len = String.length k in
  if off + 4 <= len then
    let b i = Char.code (String.unsafe_get k (off + i)) in
    (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3
  else begin
    let v = ref 0 in
    for i = 0 to 3 do
      if off + i < len then
        v := !v lor (Char.code (String.unsafe_get k (off + i)) lsl (8 * (3 - i)))
    done;
    !v
  end

let slice_lo k ~off = slice_hi k ~off:(off + 4)

let compare_parts (h1 : int) (l1 : int) (h2 : int) (l2 : int) =
  (* Both halves are nonnegative ints < 2^32, so plain int comparison is
     the unsigned byte order.  The annotations matter: unannotated, this
     is inferred polymorphic and every routing step calls [caml_compare]
     (test/dune's polymorphic-compare rule guards against that). *)
  if h1 <> h2 then Int.compare h1 h2 else Int.compare l1 l2

let parts_to_slice hi lo =
  Int64.logor
    (Int64.shift_left (Int64.of_int hi) 32)
    (Int64.of_int lo)

let slice_hi64 s = Int64.to_int (Int64.shift_right_logical s 32)
let slice_lo64 s = Int64.to_int (Int64.logand s 0xFFFFFFFFL)

let slice_len k ~off = min 8 (max 0 (String.length k - off))

let has_suffix k ~off = String.length k - off > 8

let suffix k ~off =
  assert (has_suffix k ~off);
  String.sub k (off + 8) (String.length k - off - 8)

let compare_slices = Int64.unsigned_compare

let slice_to_string s ~len =
  assert (len >= 0 && len <= 8);
  String.init len (fun i ->
      Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical s (8 * (7 - i))) 0xFFL)))

let pp_slice fmt s =
  let str = slice_to_string s ~len:8 in
  String.iter
    (fun c ->
      if c >= ' ' && c < '\x7f' then Format.pp_print_char fmt c
      else Format.fprintf fmt "\\x%02x" (Char.code c))
    str
