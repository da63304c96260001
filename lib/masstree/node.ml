type 'v link_or_value =
  | Empty
  | Value of 'v
  | Layer of 'v node ref

and 'v node = Border of 'v border | Interior of 'v interior

(* Border key payloads live off-heap in a {!Pool} cell (see pool.ml):
   slices as (hi, lo) 32-bit halves so hot comparisons never touch a
   boxed int64, key lengths, and suffix-blob handles.  The record keeps
   only what must be GC-scanned (values/layer links, sibling links) plus
   the cell index.  A cell is 32 words (256 B, four cache lines):

     words 0..13   slot s at s:    hi in bits 0..31,
                                   suffix handle in bits 32..62
     words 14..27  slot s at 14+s: (lo lsl 4) lor klen
     words 28..31  padding

   The handle field is 30 bits of blob offset plus bit 30 flagging a
   spilled (negative) handle; 0 means no suffix.  klen is 0..9 (9 is the
   suffix marker), so the low word orders (lo, klen) exactly as the
   lexicographic key order wants: a search scans the contiguous hi block
   and reads one more word only on a hi tie.

   Field protection is unchanged from the boxed layout: cell words are
   written only under the node's lock — a handle-only write
   read-modify-writes its hi word — and read racily by validated
   readers (the pool's masked accessors make stale reads memory-safe). *)
and 'v border = {
  bversion : Version.t Atomic.t;
  mutable bparent : 'v interior option;
  bpool : Pool.t;
  bcell : int;
  blv : 'v link_or_value array;
  bperm : int Atomic.t;
  mutable bnext : 'v border option;
  mutable bprev : 'v border option;
  mutable blowhi : int;
  mutable blowlo : int;
  mutable bstale : int;
}

and 'v interior = {
  iversion : Version.t Atomic.t;
  mutable iparent : 'v interior option;
  mutable inkeys : int;
  ikeys : int array; (* flat (hi, lo) pairs: key j at (2j, 2j+1) *)
  ichild : 'v node option array;
}

let width = Permutation.width

let suffix_len_marker = 9

let lo_off = width
let hi_mask = 0xFFFF_FFFF
let handle_shift = 32
let handle_mask = (1 lsl 31) - 1
let spill_flag = 1 lsl 30
let klen_mask = 0xF

(* A blob handle as its 31-bit cell field and back: positive handles are
   below 2^30 (see {!Pool.max_handle}); spilled ones are negative. *)
let encode_handle h = if h >= 0 then h else spill_flag lor -h

let decode_handle f =
  if f land spill_flag = 0 then f else -(f land (spill_flag - 1))

let hi_word b slot = Pool.get b.bpool (b.bcell + slot)
let lo_word b slot = Pool.get b.bpool (b.bcell + lo_off + slot)

(* Cell accessors; slot-indexed, allocation-free. *)
let slice_hi b slot = hi_word b slot land hi_mask
let slice_lo b slot = lo_word b slot lsr 4
let keylen b slot = lo_word b slot land klen_mask

let suffix_handle b slot =
  decode_handle ((hi_word b slot lsr handle_shift) land handle_mask)

let set_hi_word b slot ~hi ~h =
  Pool.set b.bpool (b.bcell + slot) (hi lor (encode_handle h lsl handle_shift))

let set_lo_word b slot ~lo ~klen =
  Pool.set b.bpool (b.bcell + lo_off + slot) ((lo lsl 4) lor klen)

let set_entry b slot ~hi ~lo ~klen ~h =
  set_hi_word b slot ~hi ~h;
  set_lo_word b slot ~lo ~klen

let set_suffix_handle b slot h = set_hi_word b slot ~hi:(slice_hi b slot) ~h

let suffix_string b slot =
  let h = suffix_handle b slot in
  if h = 0 then None else Some (Pool.blob_to_string b.bpool h)

(* The hot suffix check: does slot's blob equal key[pos..]?  Race-safe,
   allocation-free. *)
let suffix_matches b slot key ~pos =
  let h = suffix_handle b slot in
  h <> 0 && Pool.blob_matches_key b.bpool h key ~pos

let new_border ~pool ~isroot ~locked ~lowhi ~lowlo =
  let base =
    if locked then Version.make_locked ~isroot ~isborder:true
    else Version.make ~isroot ~isborder:true
  in
  {
    bversion = Atomic.make base;
    bparent = None;
    bpool = pool;
    bcell = Pool.alloc_cell pool;
    blv = Array.make width Empty;
    bperm = Atomic.make (Permutation.empty :> int);
    bnext = None;
    bprev = None;
    blowhi = lowhi;
    blowlo = lowlo;
    bstale = 0;
  }

let new_interior ~isroot ~locked =
  let base =
    if locked then Version.make_locked ~isroot ~isborder:false
    else Version.make ~isroot ~isborder:false
  in
  {
    iversion = Atomic.make base;
    iparent = None;
    inkeys = 0;
    ikeys = Array.make (2 * width) 0;
    ichild = Array.make (width + 1) None;
  }

let ikey_hi p j = Array.unsafe_get p.ikeys (2 * j)
let ikey_lo p j = Array.unsafe_get p.ikeys ((2 * j) + 1)

let set_ikey p j ~hi ~lo =
  p.ikeys.(2 * j) <- hi;
  p.ikeys.((2 * j) + 1) <- lo

let copy_ikey p ~dst ~src =
  p.ikeys.(2 * dst) <- p.ikeys.(2 * src);
  p.ikeys.((2 * dst) + 1) <- p.ikeys.((2 * src) + 1)

let same_node a b =
  match (a, b) with
  | Border x, Border y -> x == y
  | Interior x, Interior y -> x == y
  | Border _, Interior _ | Interior _, Border _ -> false

let version_of = function Border b -> b.bversion | Interior i -> i.iversion

let parent_of = function Border b -> b.bparent | Interior i -> i.iparent

let set_parent n p =
  match n with Border b -> b.bparent <- p | Interior i -> i.iparent <- p

let border_perm b = Permutation.of_int (Atomic.get b.bperm)

(* Order border entries by (slice, min(len, 9)); slices compare as (hi,
   lo) int pairs — both halves nonnegative < 2^32, so plain int compares
   give the unsigned byte order. *)
let entry_cmp (h1 : int) (l1 : int) (len1 : int) h2 l2 len2 =
  if h1 <> h2 then Int.compare h1 h2
  else if l1 <> l2 then Int.compare l1 l2
  else Int.compare (Int.min len1 suffix_len_marker) (Int.min len2 suffix_len_marker)

(* Compare the entry in [slot] against a probe key, reading straight from
   the cell — the descent/search hot path.  A hi tie falls through to the
   fused low word, whose (lo lsl 4) lor klen orders (lo, klen) in one
   compare. *)
let entry_cmp_at b slot ~kshi ~kslo ~klen =
  let h = slice_hi b slot in
  if h <> kshi then Int.compare h kshi
  else Int.compare (lo_word b slot) ((kslo lsl 4) lor klen)

let pp_border fmt b =
  let perm = border_perm b in
  Format.fprintf fmt "@[<v>border lowkey=%a version=%a perm=%a@," Key.pp_slice
    (Key.parts_to_slice b.blowhi b.blowlo)
    Version.pp (Atomic.get b.bversion) Permutation.pp perm;
  List.iter
    (fun slot ->
      let kind =
        match b.blv.(slot) with
        | Empty -> "empty"
        | Value _ -> "value"
        | Layer _ -> "layer"
      in
      Format.fprintf fmt "  slot=%d slice=%a len=%d kind=%s suffix=%s@," slot
        Key.pp_slice
        (Key.parts_to_slice (slice_hi b slot) (slice_lo b slot))
        (keylen b slot) kind
        (match suffix_string b slot with
        | Some s -> Printf.sprintf "%S" s
        | None -> "-"))
    (Permutation.live_slots perm);
  Format.fprintf fmt "@]"

let check_border b =
  let perm = border_perm b in
  if not (Permutation.check perm) then Error "malformed permutation"
  else begin
    let slots = Permutation.live_slots perm in
    let rec verify prev = function
      | [] -> Ok "ok"
      | slot :: rest -> (
          let hi = slice_hi b slot
          and lo = slice_lo b slot
          and l = keylen b slot in
          (match b.blv.(slot) with
          | Empty -> Error (Printf.sprintf "live slot %d is Empty" slot)
          | Value _ when l = suffix_len_marker && suffix_handle b slot = 0 ->
              Error (Printf.sprintf "slot %d: suffix entry without suffix" slot)
          | Value _ | Layer _ -> Ok "ok")
          |> function
          | Error _ as e -> e
          | Ok _ -> (
              match prev with
              | Some (ph, pl, pn) when entry_cmp ph pl pn hi lo l >= 0 ->
                  Error (Printf.sprintf "entries out of order at slot %d" slot)
              | _ -> verify (Some (hi, lo, l)) rest))
    in
    verify None slots
  end

(* Retire a dead border's off-heap storage: every still-owned suffix blob,
   then the cell.  Caller must have made the node unreachable for new
   readers (deleted bit set); pinned readers are covered by the epoch
   deferral. *)
let retire_storage b eh =
  for slot = 0 to width - 1 do
    let h = suffix_handle b slot in
    if h <> 0 then Pool.retire_blob b.bpool eh h
  done;
  Pool.retire_cell b.bpool eh b.bcell
