(** Masstree node structures (§4.2, Figure 2), pooled layout.

    Border nodes are the leaf-like nodes: they hold key slices, slice
    lengths, optional key suffixes, and per-key [link_or_value] slots that
    contain either a value or a pointer to the next trie layer.  Interior
    nodes route by slice only.  Both carry a {!Version} word; all mutable
    fields are written only while the owning lock (per the field's
    protection rule) is held, and read racily by the optimistic readers
    who validate with version snapshots afterwards.

    A border's key payload — slices, lengths, suffix bytes — lives
    off-heap in a 32-word {!Pool} cell rather than in heap arrays: an
    int-kind Bigarray (an int64-kind Bigarray would box every read) whose
    word [s] holds slot [s]'s slice-hi and suffix-blob handle and whose
    word [14+s] holds [(lo lsl 4) lor klen].  The record keeps only
    GC-scanned state: the value slots, sibling/parent links, and the
    version/permutation words.  The cell layout also fixes which cache
    lines a search touches: the 14 hi words are contiguous (two lines),
    and a hit reads one more word for (lo, klen) and finds its suffix
    handle in the hi word it already loaded; the whole cell is the four
    lines §4.2 sizes a node at.

    Field protection rules (§4.5): a node's fields are protected by its
    own lock, {e except} that a node's [parent] is protected by the
    parent's lock and a border node's [prev] by the previous sibling's
    lock.  Cell words obey the node's own lock.  Racy readers may follow
    stale cell indexes or blob handles; the pool's masked accessors make
    that memory-safe and version validation discards the garbage.

    Storage lifetime (docs/MEMORY.md): a suffix blob is owned by its slot
    from the moment the entry is published; ownership moves with split or
    merge migration (the source word is zeroed under both locks), is
    retired epoch-deferred when a remove or layer collapse vacates the
    slot, and {!retire_storage} sweeps whatever is left when the node
    dies.  The one deliberate exception mirrors the boxed design: layer
    publication ([Suffix_clash]) keeps the stale suffix handle readable in
    place, because a §4.6.3 reader that saw the old [Value] must still
    find the matching suffix with no version bump to warn it. *)

type 'v link_or_value =
  | Empty  (** slot never used *)
  | Value of 'v
  | Layer of 'v node ref
      (** root {e hint} for a deeper trie layer; may lag behind root splits
          and is fixed up lazily, as in the paper (§4.6.4). *)

and 'v node = Border of 'v border | Interior of 'v interior

and 'v border = {
  bversion : Version.t Atomic.t;
  mutable bparent : 'v interior option; (* None = B+-tree root of its layer *)
  bpool : Pool.t;
  bcell : int; (* base word index of this node's payload cell *)
  blv : 'v link_or_value array; (* width *)
  bperm : int Atomic.t; (* Permutation.t *)
  mutable bnext : 'v border option;
  mutable bprev : 'v border option;
  mutable blowhi : int;
  mutable blowlo : int;
      (* Lowkey halves; constant after the node becomes reachable — a
         merge absorbs the right sibling, so the absorber's lowkey never
         moves (its range grows rightward, bumping vsplit).  The
         split-tolerant rightward walk compares against the *next* node's
         lowkey. *)
  mutable bstale : int;
      (* Bitmask of slots holding data of removed keys; reusing one forces
         a vinsert bump (§4.6.5).  Lock-protected. *)
}

and 'v interior = {
  iversion : Version.t Atomic.t;
  mutable iparent : 'v interior option;
  mutable inkeys : int;
  ikeys : int array; (* 2*width: key j's (hi, lo) at (2j, 2j+1) *)
  ichild : 'v node option array; (* width + 1 *)
}

val width : int
(** Keys per node; [Permutation.width]. *)

val suffix_len_marker : int
(** The key-length value (9) marking a slot whose key extends beyond this
    layer's slice — a suffix entry or a layer link. *)

val new_border :
  pool:Pool.t -> isroot:bool -> locked:bool -> lowhi:int -> lowlo:int ->
  'v border
(** Allocates the payload cell from [pool]. *)

val new_interior : isroot:bool -> locked:bool -> 'v interior

(** {1 Cell accessors} — slot-indexed, allocation-free.  Writes require
    the node's lock; reads are race-safe. *)

val slice_hi : 'v border -> int -> int
val slice_lo : 'v border -> int -> int
val keylen : 'v border -> int -> int
val suffix_handle : 'v border -> int -> int
val set_entry : 'v border -> int -> hi:int -> lo:int -> klen:int -> h:int -> unit
(** Write a slot's whole key payload: two word stores. *)

val set_suffix_handle : 'v border -> int -> int -> unit
(** Rewrites the handle's word with the slot's slice-hi read back from it
    (a read-modify-write under the node's lock, like every cell write). *)

val suffix_string : 'v border -> int -> string option
(** Materialize slot's suffix blob (cold paths: layer creation, scans,
    debug). *)

val suffix_matches : 'v border -> int -> string -> pos:int -> bool
(** [suffix_matches b slot k ~pos] — does the slot's blob equal
    [k[pos..]]?  The hot suffix check; race-safe, allocation-free. *)

val ikey_hi : 'v interior -> int -> int
val ikey_lo : 'v interior -> int -> int
val set_ikey : 'v interior -> int -> hi:int -> lo:int -> unit
val copy_ikey : 'v interior -> dst:int -> src:int -> unit

val same_node : 'v node -> 'v node -> bool
(** Physical identity of the underlying node record.  The [node] variant
    wrapper is re-allocated freely (e.g. [Border b] at each use), so [==]
    on ['v node] values is meaningless; always compare through this. *)

val version_of : 'v node -> Version.t Atomic.t
val parent_of : 'v node -> 'v interior option

val set_parent : 'v node -> 'v interior option -> unit
(** Caller must hold the (new or old, per the protection rule) parent's
    lock, or own the node exclusively. *)

val border_perm : 'v border -> Permutation.t
(** Atomic read of the permutation word. *)

val entry_cmp : int -> int -> int -> int -> int -> int -> int
(** [entry_cmp h1 l1 len1 h2 l2 len2] orders border entries by
    (slice, min(len,9)): the lexicographic order of the keys they stand
    for, given the invariant that at most one entry per slice has
    len ≥ 9. *)

val entry_cmp_at : 'v border -> int -> kshi:int -> kslo:int -> klen:int -> int
(** Compare the entry in [slot] against a probe key ([klen] already
    clamped to the marker), reading straight from the cell. *)

val pp_border : Format.formatter -> 'v border -> unit
(** Debug dump of live entries (slices, lengths, kinds). *)

val check_border : 'v border -> (string, string) result
(** Structural invariant check for tests: permutation well-formed, live
    entries strictly sorted, ≤ 1 suffix-or-layer entry per slice.  Returns
    [Error msg] on violation. *)

val retire_storage : 'v border -> Epoch.handle -> unit
(** Epoch-retire a dead border's cell and every suffix blob it still
    owns.  Caller has marked the node deleted (unreachable to new
    readers); pinned readers are covered by the epoch deferral. *)
