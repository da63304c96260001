type 'v link_or_value =
  | Empty
  | Value of 'v
  | Layer of 'v node ref

(* One record for both node kinds; the version's isborder bit says which.
   Field 0 is the version word, read and written only through
   [version]: an [Atomic.t] is a one-field mutable block, and the atomic
   primitives act on field 0 of whatever block they are given, so the
   node record is its own version atomic — no separate box, no extra
   dependent load between reaching a node and validating it.  Links hold
   the tree's nil node for "none", so following one never unwraps an
   option.  The other kind's fields hold placeholders that allocate
   nothing (an empty array is a static atom, [no_perm] one shared word,
   links nil), so a border spends three record words on interior state
   and an interior eight on border state.

   Border key payloads live off-heap in a {!Pool} cell (see pool.ml):
   slices as (hi, lo) 32-bit halves so hot comparisons never touch a
   boxed int64, key lengths, and suffix-blob handles.  The record keeps
   only what must be GC-scanned (values/layer links, node links) plus
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
and 'v node = {
  mutable vword : int;
  perm : int Atomic.t;
  lv : 'v link_or_value array;
  cell : int;
  mutable nkeys : int;
  ikeys : int array;
  child : 'v node array;
  pool : Pool.t;
  mutable parent : 'v node;
  mutable next : 'v node;
  mutable prev : 'v node;
  mutable lowhi : int;
  mutable lowlo : int;
  mutable stale : int;
}

let width = Permutation.width

let suffix_len_marker = 9

let version (n : 'v node) : Version.t Atomic.t = Obj.magic n [@@inline]

let is_border n = Version.is_border (Atomic.get (version n))

(* The permutation word of every interior: never read as one. *)
let no_perm = Atomic.make (Permutation.empty :> int)

let create_nil pool =
  let vword = Version.with_deleted (Version.make ~isroot:true ~isborder:true) in
  let rec nil =
    { vword; perm = no_perm; lv = [||]; cell = -1; nkeys = 0; ikeys = [||];
      child = [||]; pool; parent = nil; next = nil; prev = nil; lowhi = 0;
      lowlo = 0; stale = 0 }
  in
  nil

let new_border nil ~isroot ~locked ~lowhi ~lowlo =
  let vword =
    if locked then Version.make_locked ~isroot ~isborder:true
    else Version.make ~isroot ~isborder:true
  in
  {
    vword;
    perm = Atomic.make (Permutation.empty :> int);
    lv = Array.make width Empty;
    cell = Pool.alloc_cell nil.pool;
    nkeys = 0;
    ikeys = [||];
    child = [||];
    pool = nil.pool;
    parent = nil;
    next = nil;
    prev = nil;
    lowhi;
    lowlo;
    stale = 0;
  }

let new_interior nil ~isroot ~locked =
  let vword =
    if locked then Version.make_locked ~isroot ~isborder:false
    else Version.make ~isroot ~isborder:false
  in
  {
    vword;
    perm = no_perm;
    lv = [||];
    cell = -1;
    nkeys = 0;
    ikeys = Array.make (2 * width) 0;
    child = Array.make (width + 1) nil;
    pool = nil.pool;
    parent = nil;
    next = nil;
    prev = nil;
    lowhi = 0;
    lowlo = 0;
    stale = 0;
  }

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

let hi_word b slot = Pool.get b.pool (b.cell + slot)
let lo_word b slot = Pool.get b.pool (b.cell + lo_off + slot)

(* Cell accessors; slot-indexed, allocation-free. *)
let slice_hi b slot = hi_word b slot land hi_mask
let slice_lo b slot = lo_word b slot lsr 4
let keylen b slot = lo_word b slot land klen_mask

let suffix_handle b slot =
  decode_handle ((hi_word b slot lsr handle_shift) land handle_mask)

(* The scan cursor's fill: the first [n] entries of [perm] copied into
   flat arrays in key order, reading each slot's two cell words once
   straight from the cell's slab. *)
let copy_entries b perm n ~hi ~lo ~klen ~suf ~lv =
  let slab = Pool.cell_slab b.pool b.cell and base = Pool.slab_offset b.cell in
  for i = 0 to n - 1 do
    let slot = Permutation.get perm i in
    let hw = Bigarray.Array1.unsafe_get slab (base + slot)
    and lw = Bigarray.Array1.unsafe_get slab (base + lo_off + slot) in
    Array.unsafe_set hi i (hw land hi_mask);
    Array.unsafe_set lo i (lw lsr 4);
    Array.unsafe_set klen i (lw land klen_mask);
    Array.unsafe_set suf i (decode_handle ((hw lsr handle_shift) land handle_mask));
    Array.unsafe_set lv i (Array.unsafe_get b.lv slot)
  done

let set_hi_word b slot ~hi ~h =
  Pool.set b.pool (b.cell + slot) (hi lor (encode_handle h lsl handle_shift))

let set_lo_word b slot ~lo ~klen =
  Pool.set b.pool (b.cell + lo_off + slot) ((lo lsl 4) lor klen)

let set_entry b slot ~hi ~lo ~klen ~h =
  set_hi_word b slot ~hi ~h;
  set_lo_word b slot ~lo ~klen

let set_suffix_handle b slot h = set_hi_word b slot ~hi:(slice_hi b slot) ~h

let suffix_string b slot =
  let h = suffix_handle b slot in
  if h = 0 then None else Some (Pool.blob_to_string b.pool h)

(* The hot suffix check: does slot's blob equal key[pos..]?  Race-safe,
   allocation-free. *)
let suffix_matches b slot key ~pos =
  let h = suffix_handle b slot in
  h <> 0 && Pool.blob_matches_key b.pool h key ~pos

(* Load a slot's suffix blob header (and with it the leading bytes).  A
   spilled blob lives in a hash table behind a lock, not worth a touch. *)
let prefetch_suffix b slot =
  let h = suffix_handle b slot in
  if h > 0 then ignore (Sys.opaque_identity (Pool.blob_len b.pool h))

(* The group get's prefetch: load what a step at [n] reads, discarding
   the values.  Beyond the record itself the loads depend on nothing, so
   a pass of these over many flights keeps many misses in flight.  One
   load per 64-byte stride: cell words and routing words 0, 8, 16 and 24
   (the 28 words in use span four lines, five when they straddle one
   more), and the first and last slot of the child or value array. *)
let touch n =
  if is_border n then begin
    ignore (Sys.opaque_identity (Atomic.get n.perm));
    let slab = Pool.cell_slab n.pool n.cell and base = Pool.slab_offset n.cell in
    ignore (Sys.opaque_identity (Bigarray.Array1.unsafe_get slab base));
    ignore (Sys.opaque_identity (Bigarray.Array1.unsafe_get slab (base + 8)));
    ignore (Sys.opaque_identity (Bigarray.Array1.unsafe_get slab (base + 16)));
    ignore (Sys.opaque_identity (Bigarray.Array1.unsafe_get slab (base + 24)));
    ignore (Sys.opaque_identity (Array.unsafe_get n.lv 0));
    ignore (Sys.opaque_identity (Array.unsafe_get n.lv (width - 1)))
  end
  else begin
    ignore (Sys.opaque_identity (Array.unsafe_get n.ikeys 0));
    ignore (Sys.opaque_identity (Array.unsafe_get n.ikeys 8));
    ignore (Sys.opaque_identity (Array.unsafe_get n.ikeys 16));
    ignore (Sys.opaque_identity (Array.unsafe_get n.ikeys 24));
    ignore (Sys.opaque_identity (Array.unsafe_get n.child 0));
    ignore (Sys.opaque_identity (Array.unsafe_get n.child width))
  end

let ikey_hi p j = Array.unsafe_get p.ikeys (2 * j)
let ikey_lo p j = Array.unsafe_get p.ikeys ((2 * j) + 1)

let set_ikey p j ~hi ~lo =
  p.ikeys.(2 * j) <- hi;
  p.ikeys.((2 * j) + 1) <- lo

let copy_ikey p ~dst ~src =
  p.ikeys.(2 * dst) <- p.ikeys.(2 * src);
  p.ikeys.((2 * dst) + 1) <- p.ikeys.((2 * src) + 1)

let border_perm b = Permutation.of_int (Atomic.get b.perm)

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
    (Key.parts_to_slice b.lowhi b.lowlo)
    Version.pp (Atomic.get (version b)) Permutation.pp perm;
  List.iter
    (fun slot ->
      let kind =
        match b.lv.(slot) with
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
          (match b.lv.(slot) with
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
    if h <> 0 then Pool.retire_blob b.pool eh h
  done;
  Pool.retire_cell b.pool eh b.cell
