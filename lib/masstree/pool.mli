(** Off-heap node arena: Bigarray-backed storage for border-node payloads
    (key slices, key lengths, suffix/value bytes) in per-domain size-class
    pools with chunked slab refill and epoch-deferred free.

    Two arenas share one pool:

    - the {e cell} arena: fixed-size word cells (an int-kind Bigarray, so
      reads and writes are allocation-free immediates) holding each border
      node's whole key payload — slice halves, key lengths and
      suffix-blob handles, packed two fields to a word;
    - the {e blob} arena: length-prefixed byte blocks in power-of-two size
      classes (16 B .. 256 KiB) for key suffixes and off-heap value bytes.
      A handle of [0] means "no blob"; oversize blobs spill to the OCaml
      heap behind negative handles.

    Free lists are per-domain and intrusive (the next link lives in the
    freed storage), refilled by carving chunks off shared slabs.
    {!retire_cell}/{!retire_blob} defer the free through {!Epoch.retire},
    so storage is never recycled while a §4.5-window reader may still be
    validating against it.  Read-side accessors are race-safe by masking:
    a stale index yields bounded garbage for the version check to discard,
    never an out-of-bounds access.

    Schedule points: [tree.pool.refill] after a free-list refill from a
    slab, [tree.pool.retire] when a deferred free is enqueued,
    [tree.pool.free] when it finally runs — the reclaim protocol's three
    instants, explorable by lib/schedsim ([bench race] gates on them). *)

type t

val create : unit -> t
(** A fresh pool; slabs are allocated lazily on first use. *)

val cell_words : int
(** Words per cell (32: 14 slice-hi-and-handle words + 14
    slice-lo-and-length words, padded to a power of two — 256 B, four
    cache lines). *)

val max_handle : int
(** Every blob handle [h] satisfies [-max_handle <= h <= max_handle]
    ([max_handle] = 2^30 - 1), so a handle packs into 31 bits. *)

(** {1 Cells} *)

val alloc_cell : t -> int
(** Allocate a zeroed cell; returns its base word index. *)

val retire_cell : t -> Epoch.handle -> int -> unit
(** Epoch-deferred {!free_cell}: recycled only after concurrent pinned
    readers exit. *)

val free_cell : t -> int -> unit
(** Immediate free — only for storage that was never published to
    readers. *)

val get : t -> int -> int
(** [get t idx] reads one word.  Race-safe: any index stays in bounds. *)

val set : t -> int -> int -> unit
(** [set t idx v] writes one word (caller holds the owning node's lock). *)

(** {1 Blobs} *)

val alloc_blob : t -> string -> int
(** Copy a string into a fresh blob; returns its handle (never 0). *)

val alloc_blob_of_key : t -> string -> pos:int -> int
(** [alloc_blob_of_key t k ~pos] copies [k]'s bytes from [pos] to the end
    — the suffix-allocation path, no intermediate heap string. *)

val blob_len : t -> int -> int

val blob_to_string : t -> int -> string

val blob_blit : t -> int -> Bytes.t -> int -> unit
(** [blob_blit t h dst pos] copies the blob's {!blob_len} bytes into [dst]
    from [pos] (clipped to [dst]'s end) — the scan's key build, straight
    into the key's one allocation. *)

val blob_matches_key : t -> int -> string -> pos:int -> bool
(** [blob_matches_key t h k ~pos] compares the blob against [k]'s bytes
    from [pos] without allocating — the hot suffix check.  Race-safe on
    stale handles (bounded garbage comparison). *)

val retire_blob : t -> Epoch.handle -> int -> unit
(** Epoch-deferred blob free.  No-op on handle 0. *)

val free_blob : t -> int -> unit

(** {1 Stats and leak accounting} *)

type stats = {
  cell_slabs : int;
  blob_slabs : int;
  cells_allocated : int; (* cumulative *)
  cells_freed : int; (* cumulative *)
  cells_live : int;
  blobs_allocated : int;
  blobs_freed : int;
  blobs_live : int;
  blob_bytes_live : int;
  deferred_frees : int; (* retired, free not yet run *)
  refills : int;
}

val stats : t -> stats

val footprint_bytes : t -> int
(** Total bytes of slab storage owned by the pool. *)

val check_leaks :
  t -> reachable_cells:int -> reachable_blobs:int -> (unit, string) result
(** The leak oracle: after an {!Epoch.quiesce}, deferred frees must be 0
    and live counts must equal what the caller found reachable
    (allocs == frees + live). *)
