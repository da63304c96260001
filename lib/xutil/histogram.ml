(* Buckets: for each power of two, [sub] linear sub-buckets, i.e. an
   HdrHistogram-style layout with ~1/sub relative error. *)

let sub_bits = 6
let sub = 1 lsl sub_bits
let n_exp = 44 (* covers up to ~1.7e13 *)
let n_buckets = n_exp * sub

(* [counts] is allocated by the first [add] (or a [merge_into] of a
   non-empty source): a registry shards every histogram 16 ways, and most
   shards of most histograms never see a sample.  The empty array stands
   for all-zero buckets. *)
type t = {
  mutable counts : int array;
  mutable total_count : int;
  mutable total_sum : int;
  mutable maximum : int;
  mutable minimum : int; (* max_int when empty *)
}

let create () =
  { counts = [||]; total_count = 0; total_sum = 0; maximum = 0;
    minimum = max_int }

let bucket_of v =
  let v = if v < 1 then 1 else v in
  if v < sub then v
  else begin
    (* v >= sub: shift so the mantissa lands in [sub, 2*sub), giving
       2^sub_bits sub-buckets per power of two. *)
    let msb = 62 - Bits.count_leading_zeros v in
    let exp = msb - sub_bits in
    let mantissa = (v lsr exp) land (sub - 1) in
    let idx = ((exp + 1) * sub) + mantissa in
    if idx >= n_buckets then n_buckets - 1 else idx
  end

let value_of_bucket idx =
  if idx < sub then idx
  else begin
    let exp = (idx / sub) - 1 in
    let mantissa = idx land (sub - 1) in
    ((sub + mantissa) lsl exp) + (1 lsl exp) - 1
  end

let allocated h = Array.length h.counts > 0

let ensure_counts h = if not (allocated h) then h.counts <- Array.make n_buckets 0

let add h v =
  let v = if v < 0 then 0 else v in
  ensure_counts h;
  let b = bucket_of v in
  h.counts.(b) <- h.counts.(b) + 1;
  h.total_count <- h.total_count + 1;
  h.total_sum <- h.total_sum + v;
  if v > h.maximum then h.maximum <- v;
  if v < h.minimum then h.minimum <- v

let count h = h.total_count
let total h = h.total_sum
let mean h = if h.total_count = 0 then 0.0 else float_of_int h.total_sum /. float_of_int h.total_count
let max_value h = h.maximum
let min_value h = if h.total_count = 0 then 0 else h.minimum

(* Readers capture [counts] once: a racy snapshot may see a sample's
   count before the array that holds it. *)
let percentile h p =
  let counts = h.counts in
  if h.total_count = 0 || Array.length counts = 0 then 0
  else begin
    let target =
      let t = int_of_float (ceil (p /. 100.0 *. float_of_int h.total_count)) in
      if t < 1 then 1 else if t > h.total_count then h.total_count else t
    in
    (* Clamp into [minimum, maximum]: a bucket's upper bound can exceed the
       largest sample it holds, and the overflow bucket's bound can sit
       *below* a huge clamped sample — either way the true quantile lies
       within the observed range.  This also makes every percentile of a
       single-sample histogram exactly that sample. *)
    let rec go idx seen =
      if idx >= n_buckets then h.maximum
      else begin
        let seen = seen + counts.(idx) in
        if seen >= target then max h.minimum (min (value_of_bucket idx) h.maximum)
        else go (idx + 1) seen
      end
    in
    go 0 0
  end

let merge_into ~dst src =
  let sc = src.counts in
  if Array.length sc > 0 then begin
    ensure_counts dst;
    let dc = dst.counts in
    for i = 0 to n_buckets - 1 do
      dc.(i) <- dc.(i) + sc.(i)
    done
  end;
  dst.total_count <- dst.total_count + src.total_count;
  dst.total_sum <- dst.total_sum + src.total_sum;
  if src.maximum > dst.maximum then dst.maximum <- src.maximum;
  if src.minimum < dst.minimum then dst.minimum <- src.minimum

let clear h =
  if allocated h then Array.fill h.counts 0 n_buckets 0;
  h.total_count <- 0;
  h.total_sum <- 0;
  h.maximum <- 0;
  h.minimum <- max_int
