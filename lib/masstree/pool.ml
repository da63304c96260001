(* Off-heap node arena: flat Bigarray-backed storage for border-node
   payloads (key slices, key lengths, suffix/value bytes), carved into
   per-domain size-class pools with chunked slab refill and epoch-deferred
   free.

   Two arenas:

   - the *cell* arena, an int-kind Bigarray (tagged immediates: reads and
     writes never allocate, unlike int64-kind Bigarrays which box every
     read).  Border nodes keep their whole key payload in one fixed-size
     cell: 14 slices as (hi, lo) int pairs, 14 key lengths, 14 suffix
     handles.  A cell index is a global word offset; slab and in-slab
     offset are recovered by shifting.

   - the *blob* arena, a char Bigarray holding length-prefixed byte blocks
     (key suffixes, and value bytes for embedders that want them
     off-heap), allocated from power-of-two size classes.

   Free lists are per-domain-slot (hashed from [Domain.self]) and live
   inside the freed storage itself (the next index occupies the first
   word/bytes of a free cell/block), so the pool's own bookkeeping
   allocates nothing on the hot path.  Empty lists refill by carving a
   chunk of fresh storage off the current slab under a global lock.

   Reclamation is epoch-deferred ({!retire_cell}/{!retire_blob} go through
   [Epoch.retire]): a retired slot is pushed onto a free list — and hence
   recyclable — only after every reader pinned at retire time has exited
   its critical section, so a §4.5-window reader can still racily read the
   retired storage and rely on version validation, never on reuse luck.

   Racy-read safety: readers may follow stale cell indexes / blob handles
   (that is the whole point of the OCC protocol).  Every read-side access
   masks the slab index and in-slab offset into range, and slots of the
   slab directory that were never populated point at a shared zero-filled
   dummy slab — a stale or garbage handle yields garbage bytes, never an
   out-of-bounds access, and the version check discards the result. *)

type word_slab = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type byte_slab =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let sp_refill = Schedpoint.define "tree.pool.refill"
let sp_retire = Schedpoint.define "tree.pool.retire"
let sp_free = Schedpoint.define "tree.pool.free"

(* ------------------------------------------------------------------ *)
(* Geometry                                                            *)
(* ------------------------------------------------------------------ *)

let cell_words = 32
(* 14 (hi | handle) words + 14 (lo | klen) words = 28 words, padded to a
   power of two: 256 bytes, the four cache lines §4.2 sizes a node at,
   aligned within the slab so index arithmetic is shifts. *)

let cell_shift = 5
let () = assert (1 lsl cell_shift = cell_words)

let slab_shift = 16
let slab_words = 1 lsl slab_shift (* 512 KiB per cell slab, 2048 cells *)
let slab_mask = slab_words - 1

let bslab_shift = 18
let bslab_bytes = 1 lsl bslab_shift (* 256 KiB per blob slab *)
let bslab_mask = bslab_bytes - 1

let max_slabs = 4096
let slab_dir_mask = max_slabs - 1

(* Blob handles are byte offsets below [max_slabs lsl bslab_shift] = 2^30;
   spilled handles count down from -1 and are capped at the same
   magnitude, so every handle fits a cell's 31-bit handle field. *)
let max_handle = (max_slabs lsl bslab_shift) - 1

let cell_chunk = 64 (* cells carved per free-list refill *)

(* Blob size classes: powers of two, 16 bytes .. one whole slab.  Class
   k holds blocks of [16 lsl k] bytes; 4 bytes of each block are the
   length header. *)
let n_classes = bslab_shift - 4 + 1
let class_bytes k = 16 lsl k
let blob_header = 4

let class_of_bytes n =
  let need = n + blob_header in
  let rec go k = if class_bytes k >= need then k else go (k + 1) in
  go 0

(* ------------------------------------------------------------------ *)
(* Spinlock (no schedule points inside pool critical sections, so the
   deterministic scheduler can never deschedule a lock holder)          *)
(* ------------------------------------------------------------------ *)

type spin = bool Atomic.t

let spin_make () = Atomic.make false

let spin_lock (l : spin) =
  let bo = Xutil.Backoff.create () in
  while not (Atomic.compare_and_set l false true) do
    Xutil.Backoff.once bo
  done

let spin_unlock (l : spin) = Atomic.set l false

(* ------------------------------------------------------------------ *)
(* Pool state                                                          *)
(* ------------------------------------------------------------------ *)

let n_slots = 8
let slot_mask = n_slots - 1

type slot = {
  slock : spin;
  mutable cell_free : int; (* head cell index, -1 = empty *)
  blob_free : int array; (* per class: head byte offset, 0 = empty *)
}

type t = {
  (* Slab directories: fixed-size so racy readers index them without
     synchronization; unpopulated entries are the shared dummies. *)
  cell_slabs : word_slab array;
  blob_slabs : byte_slab array;
  glock : spin; (* protects the cursors and slab installation *)
  mutable n_cell_slabs : int;
  mutable cell_cursor : int; (* next fresh word index *)
  mutable n_blob_slabs : int;
  mutable blob_cursor : int; (* next fresh byte offset *)
  slots : slot array;
  (* Oversize blobs (> one slab) spill to the OCaml heap; handles are
     negative.  Pathological-key escape hatch, spinlocked on both sides
     because Hashtbl is not race-safe. *)
  olock : spin;
  oversize : (int, string) Hashtbl.t;
  mutable oversize_next : int;
  (* Leak accounting. *)
  cells_allocated : int Atomic.t;
  cells_freed : int Atomic.t;
  blobs_allocated : int Atomic.t;
  blobs_freed : int Atomic.t;
  blob_bytes_live : int Atomic.t;
  deferred : int Atomic.t;
  refills : int Atomic.t;
}

let dummy_word_slab : word_slab =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout slab_words in
  Bigarray.Array1.fill a 0;
  a

let dummy_byte_slab : byte_slab =
  let a =
    Bigarray.Array1.create Bigarray.char Bigarray.c_layout bslab_bytes
  in
  Bigarray.Array1.fill a '\000';
  a

let create () =
  {
    cell_slabs = Array.make max_slabs dummy_word_slab;
    blob_slabs = Array.make max_slabs dummy_byte_slab;
    glock = spin_make ();
    n_cell_slabs = 0;
    cell_cursor = 0;
    n_blob_slabs = 0;
    (* Byte offset 0 is never handed out: handle 0 means "no blob". *)
    blob_cursor = 16;
    slots =
      Array.init n_slots (fun _ ->
          {
            slock = spin_make ();
            cell_free = -1;
            blob_free = Array.make n_classes 0;
          });
    olock = spin_make ();
    oversize = Hashtbl.create 7;
    oversize_next = 1;
    cells_allocated = Atomic.make 0;
    cells_freed = Atomic.make 0;
    blobs_allocated = Atomic.make 0;
    blobs_freed = Atomic.make 0;
    blob_bytes_live = Atomic.make 0;
    deferred = Atomic.make 0;
    refills = Atomic.make 0;
  }

let my_slot t = t.slots.((Domain.self () :> int) land slot_mask)

(* ------------------------------------------------------------------ *)
(* Word access                                                         *)
(* ------------------------------------------------------------------ *)

(* Masked on both levels: a garbage index from a racy read stays in
   bounds (yielding dummy-slab zeros or unrelated live data, which the
   version check discards). *)
let get t idx =
  let slab =
    Array.unsafe_get t.cell_slabs ((idx lsr slab_shift) land slab_dir_mask)
  in
  Bigarray.Array1.unsafe_get slab (idx land slab_mask)

let set t idx v =
  let slab =
    Array.unsafe_get t.cell_slabs ((idx lsr slab_shift) land slab_dir_mask)
  in
  Bigarray.Array1.unsafe_set slab (idx land slab_mask) v

(* ------------------------------------------------------------------ *)
(* Cell allocation                                                     *)
(* ------------------------------------------------------------------ *)

let new_cell_slab t =
  if t.n_cell_slabs >= max_slabs then failwith "Pool: cell arena exhausted";
  let slab =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout slab_words
  in
  Bigarray.Array1.fill slab 0;
  let id = t.n_cell_slabs in
  t.cell_slabs.(id) <- slab;
  (* Publication order: the directory store above must be visible before
     any cell index pointing into the slab escapes.  All escapes happen
     via the slot free list (below, under locks) or the returning
     allocation, and the eventual reader reached the index through an
     atomic (permutation/version) read, so this plain store suffices for
     validated readers; unvalidated racy readers hitting the dummy get
     zeros, which they discard. *)
  t.n_cell_slabs <- id + 1;
  t.cell_cursor <- id lsl slab_shift

(* Carve [cell_chunk] fresh cells and thread them onto [s]'s free list.
   Caller holds s.slock. *)
let refill_cells t s =
  spin_lock t.glock;
  for _ = 1 to cell_chunk do
    if t.cell_cursor land slab_mask = 0 && t.cell_cursor >= t.n_cell_slabs lsl slab_shift
    then new_cell_slab t;
    let c = t.cell_cursor in
    t.cell_cursor <- c + cell_words;
    set t c s.cell_free;
    s.cell_free <- c
  done;
  Atomic.incr t.refills;
  spin_unlock t.glock

let alloc_cell t =
  let s = my_slot t in
  spin_lock s.slock;
  let refilled = s.cell_free < 0 in
  if refilled then refill_cells t s;
  let c = s.cell_free in
  s.cell_free <- get t c;
  spin_unlock s.slock;
  (* Zero the cell before handing it out: free-list linkage and stale
     payload must not leak into a fresh node. *)
  let slab =
    Array.unsafe_get t.cell_slabs ((c lsr slab_shift) land slab_dir_mask)
  in
  let base = c land slab_mask in
  for i = 0 to cell_words - 1 do
    Bigarray.Array1.unsafe_set slab (base + i) 0
  done;
  Atomic.incr t.cells_allocated;
  if refilled then Schedpoint.hit sp_refill;
  c

let free_cell t c =
  let s = my_slot t in
  spin_lock s.slock;
  set t c s.cell_free;
  s.cell_free <- c;
  spin_unlock s.slock;
  Atomic.incr t.cells_freed

(* ------------------------------------------------------------------ *)
(* Blob access                                                         *)
(* ------------------------------------------------------------------ *)

let bslab t h = Array.unsafe_get t.blob_slabs ((h lsr bslab_shift) land slab_dir_mask)
let bget t h = Bigarray.Array1.unsafe_get (bslab t h) (h land bslab_mask)
let bset t h v = Bigarray.Array1.unsafe_set (bslab t h) (h land bslab_mask) v

(* Length header: 4 bytes big-endian at the block start.  Reads clamp to
   the slab size so a garbage handle cannot drive an unbounded loop. *)
let blob_len_raw t h =
  (Char.code (bget t h) lsl 24)
  lor (Char.code (bget t (h + 1)) lsl 16)
  lor (Char.code (bget t (h + 2)) lsl 8)
  lor Char.code (bget t (h + 3))

let oversize_find t h =
  spin_lock t.olock;
  let r = Hashtbl.find_opt t.oversize h in
  spin_unlock t.olock;
  r

let blob_len t h =
  if h < 0 then
    match oversize_find t h with Some s -> String.length s | None -> 0
  else blob_len_raw t h land bslab_mask

(* Copy the blob's bytes into [dst] from [pos], clipped to [dst]'s end so
   a garbage handle still cannot write out of bounds. *)
let blob_blit t h dst pos =
  if h < 0 then
    match oversize_find t h with
    | Some s -> Bytes.blit_string s 0 dst pos (Int.min (String.length s) (Bytes.length dst - pos))
    | None -> ()
  else begin
    let len = Int.min (blob_len_raw t h land bslab_mask) (Bytes.length dst - pos) in
    for i = 0 to len - 1 do
      Bytes.unsafe_set dst (pos + i) (bget t (h + blob_header + i))
    done
  end

let blob_to_string t h =
  if h < 0 then
    match oversize_find t h with Some s -> s | None -> ""
  else begin
    let b = Bytes.create (blob_len_raw t h land bslab_mask) in
    blob_blit t h b 0;
    Bytes.unsafe_to_string b
  end

(* Race-safe comparison of a blob against [key]'s bytes from [pos]: the
   hot suffix check of get/put, no allocation.  A stale handle yields a
   bounded garbage comparison whose result the version check discards. *)
let blob_matches_key t h key ~pos =
  if h < 0 then
    match oversize_find t h with
    | Some s ->
        String.length key - pos = String.length s
        && String.sub key pos (String.length s) = s
    | None -> false
  else begin
    let klen = String.length key - pos in
    let len = blob_len_raw t h land bslab_mask in
    len = klen
    &&
    let rec go i =
      i >= len
      || Char.equal (bget t (h + blob_header + i)) (String.unsafe_get key (pos + i))
         && go (i + 1)
    in
    go 0
  end

(* ------------------------------------------------------------------ *)
(* Blob allocation                                                     *)
(* ------------------------------------------------------------------ *)

let new_blob_slab t =
  if t.n_blob_slabs >= max_slabs then failwith "Pool: blob arena exhausted";
  let slab =
    Bigarray.Array1.create Bigarray.char Bigarray.c_layout bslab_bytes
  in
  Bigarray.Array1.fill slab '\000';
  let id = t.n_blob_slabs in
  t.blob_slabs.(id) <- slab;
  t.n_blob_slabs <- id + 1;
  t.blob_cursor <- (id lsl bslab_shift) lor (if id = 0 then 16 else 0)

(* Free-list linkage inside a free block: next handle as 8 bytes LE
   starting at the block head (minimum class is 16 bytes, so it fits). *)
let read_next t h =
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code (bget t (h + i))
  done;
  !v

let write_next t h next =
  for i = 0 to 7 do
    bset t (h + i) (Char.chr ((next lsr (8 * i)) land 0xFF))
  done

let refill_blobs t s k =
  let bytes = class_bytes k in
  let chunk = max 1 (4096 / bytes) in
  spin_lock t.glock;
  for _ = 1 to chunk do
    let room =
      t.n_blob_slabs > 0 && (bslab_bytes - (t.blob_cursor land bslab_mask)) >= bytes
      && t.blob_cursor lsr bslab_shift = t.n_blob_slabs - 1
    in
    if not room then new_blob_slab t;
    let h = t.blob_cursor in
    t.blob_cursor <- h + bytes;
    write_next t h s.blob_free.(k);
    s.blob_free.(k) <- h
  done;
  Atomic.incr t.refills;
  spin_unlock t.glock

(* Allocate a block of class [k] and return its handle (header not yet
   written). *)
let alloc_block t k =
  let s = my_slot t in
  spin_lock s.slock;
  let refilled = s.blob_free.(k) = 0 in
  if refilled then refill_blobs t s k;
  let h = s.blob_free.(k) in
  s.blob_free.(k) <- read_next t h;
  spin_unlock s.slock;
  if refilled then Schedpoint.hit sp_refill;
  h

let write_header t h len =
  bset t h (Char.chr ((len lsr 24) land 0xFF));
  bset t (h + 1) (Char.chr ((len lsr 16) land 0xFF));
  bset t (h + 2) (Char.chr ((len lsr 8) land 0xFF));
  bset t (h + 3) (Char.chr (len land 0xFF))

let alloc_oversize t s =
  spin_lock t.olock;
  if t.oversize_next > max_handle then begin
    spin_unlock t.olock;
    failwith "Pool: oversize handles exhausted"
  end;
  let h = -t.oversize_next in
  t.oversize_next <- t.oversize_next + 1;
  Hashtbl.replace t.oversize h s;
  spin_unlock t.olock;
  h

let finish_blob_alloc t len =
  Atomic.incr t.blobs_allocated;
  ignore (Atomic.fetch_and_add t.blob_bytes_live len)

(* Copy [key]'s bytes from [pos] to the end into a fresh blob — the
   suffix-allocation path, with no intermediate heap string. *)
let alloc_blob_of_key t key ~pos =
  let len = String.length key - pos in
  if len + blob_header > bslab_bytes then begin
    let h = alloc_oversize t (String.sub key pos len) in
    finish_blob_alloc t len;
    h
  end
  else begin
    let h = alloc_block t (class_of_bytes len) in
    write_header t h len;
    for i = 0 to len - 1 do
      bset t (h + blob_header + i) (String.unsafe_get key (pos + i))
    done;
    finish_blob_alloc t len;
    h
  end

let alloc_blob t s = alloc_blob_of_key t s ~pos:0

let free_blob t h =
  if h = 0 then ()
  else begin
    let len =
      if h < 0 then begin
        spin_lock t.olock;
        let len =
          match Hashtbl.find_opt t.oversize h with
          | Some s ->
              Hashtbl.remove t.oversize h;
              String.length s
          | None -> 0
        in
        spin_unlock t.olock;
        len
      end
      else begin
        let len = blob_len_raw t h land bslab_mask in
        let k = class_of_bytes len in
        let s = my_slot t in
        spin_lock s.slock;
        write_next t h s.blob_free.(k);
        s.blob_free.(k) <- h;
        spin_unlock s.slock;
        len
      end
    in
    Atomic.incr t.blobs_freed;
    ignore (Atomic.fetch_and_add t.blob_bytes_live (-len))
  end

(* ------------------------------------------------------------------ *)
(* Epoch-deferred reclamation                                          *)
(* ------------------------------------------------------------------ *)

let retire_cell t eh c =
  Atomic.incr t.deferred;
  Schedpoint.hit sp_retire;
  Epoch.retire eh (fun () ->
      free_cell t c;
      Atomic.decr t.deferred;
      Schedpoint.hit sp_free)

let retire_blob t eh h =
  if h <> 0 then begin
    Atomic.incr t.deferred;
    Schedpoint.hit sp_retire;
    Epoch.retire eh (fun () ->
        free_blob t h;
        Atomic.decr t.deferred;
        Schedpoint.hit sp_free)
  end

(* ------------------------------------------------------------------ *)
(* Stats / leak accounting                                             *)
(* ------------------------------------------------------------------ *)

type stats = {
  cell_slabs : int;
  blob_slabs : int;
  cells_allocated : int;
  cells_freed : int;
  cells_live : int;
  blobs_allocated : int;
  blobs_freed : int;
  blobs_live : int;
  blob_bytes_live : int;
  deferred_frees : int;
  refills : int;
}

let stats (t : t) =
  let ca = Atomic.get t.cells_allocated and cf = Atomic.get t.cells_freed in
  let ba = Atomic.get t.blobs_allocated and bf = Atomic.get t.blobs_freed in
  {
    cell_slabs = t.n_cell_slabs;
    blob_slabs = t.n_blob_slabs;
    cells_allocated = ca;
    cells_freed = cf;
    cells_live = ca - cf;
    blobs_allocated = ba;
    blobs_freed = bf;
    blobs_live = ba - bf;
    blob_bytes_live = Atomic.get t.blob_bytes_live;
    deferred_frees = Atomic.get t.deferred;
    refills = Atomic.get t.refills;
  }

let footprint_bytes t =
  ((t.n_cell_slabs * slab_words) + (t.n_blob_slabs * bslab_bytes / 8)) * 8

(* The leak oracle: after a quiesce, nothing may be parked in the limbo
   list and the live counts must equal what the caller found reachable
   (allocs == frees + reachable). *)
let check_leaks t ~reachable_cells ~reachable_blobs =
  let s = stats t in
  if s.deferred_frees <> 0 then
    Error
      (Printf.sprintf "pool: %d deferred frees after quiesce" s.deferred_frees)
  else if s.cells_live <> reachable_cells then
    Error
      (Printf.sprintf
         "pool cell leak: allocated %d, freed %d, live %d but %d reachable"
         s.cells_allocated s.cells_freed s.cells_live reachable_cells)
  else if s.blobs_live <> reachable_blobs then
    Error
      (Printf.sprintf
         "pool blob leak: allocated %d, freed %d, live %d but %d reachable"
         s.blobs_allocated s.blobs_freed s.blobs_live reachable_blobs)
  else Ok ()
