(** Masstree node structures (§4.2, Figure 2), pooled layout.

    One ['v node] record serves both kinds of node.  Border nodes are the
    leaf-like nodes: they hold key slices, slice lengths, optional key
    suffixes, and per-key [link_or_value] slots that contain either a
    value or a pointer to the next trie layer.  Interior nodes route by
    slice only.  A node's kind is the isborder bit of its {!Version}
    word, fixed at creation, just as Masstree's C++ dispatches a
    [node_base*]; the fields of the other kind hold shared empty
    placeholders.  All mutable fields are written only while the owning
    lock (per the field's protection rule) is held, and read racily by
    the optimistic readers who validate with version snapshots
    afterwards.

    Links are direct: a child slot, a parent link and the border list's
    [next]/[prev] each hold a node, and "none" is the tree's {e nil}
    node ({!create_nil}), compared by [==].  No link goes through an
    [option] or a variant box, so a child is one pointer away from its
    parent's child array, and the version word is the first field of the
    node record itself ({!version}): reaching a child and reading its
    version is one dependent load, not four.

    A border's key payload — slices, lengths, suffix bytes — lives
    off-heap in a 32-word {!Pool} cell rather than in heap arrays: an
    int-kind Bigarray (an int64-kind Bigarray would box every read) whose
    word [s] holds slot [s]'s slice-hi and suffix-blob handle and whose
    word [14+s] holds [(lo lsl 4) lor klen].  The record keeps only
    GC-scanned state: the value slots, the links, and the
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

and 'v node = {
  mutable vword : int;
      (* The version word.  Never read or written as a plain field: it is
         field 0, so {!version} views the record as its [Atomic.t]. *)
  perm : int Atomic.t; (* border: Permutation.t *)
  lv : 'v link_or_value array; (* border: width value slots *)
  cell : int; (* border: base word index of the payload cell *)
  mutable nkeys : int; (* interior: routing keys in use *)
  ikeys : int array; (* interior, 2*width: key j's (hi, lo) at (2j, 2j+1) *)
  child : 'v node array; (* interior, width + 1: nil above nkeys *)
  pool : Pool.t;
  mutable parent : 'v node; (* nil = B+-tree root of its layer *)
  mutable next : 'v node; (* border list; nil at the layer's right end *)
  mutable prev : 'v node; (* nil at the layer's left end *)
  mutable lowhi : int;
  mutable lowlo : int;
      (* Border lowkey halves; constant after the node becomes reachable
         — a merge absorbs the right sibling, so the absorber's lowkey
         never moves (its range grows rightward, bumping vsplit).  The
         split-tolerant rightward walk compares against the *next* node's
         lowkey. *)
  mutable stale : int;
      (* Border: bitmask of slots holding data of removed keys; reusing
         one forces a vinsert bump (§4.6.5).  Lock-protected. *)
}

val width : int
(** Keys per node; [Permutation.width]. *)

val suffix_len_marker : int
(** The key-length value (9) marking a slot whose key extends beyond this
    layer's slice — a suffix entry or a layer link. *)

val create_nil : Pool.t -> 'v node
(** A tree's nil node: the "no node" every link of that tree's nodes
    starts as, and the source of their pool.  Its own links point at
    itself; its version is deleted, so a reader that ever validated
    against it would restart. *)

val new_border :
  'v node -> isroot:bool -> locked:bool -> lowhi:int -> lowlo:int -> 'v node
(** [new_border nil ...] allocates the payload cell from [nil]'s pool;
    every link starts as [nil]. *)

val new_interior : 'v node -> isroot:bool -> locked:bool -> 'v node
(** [new_interior nil ...]: every child slot and link starts as [nil]. *)

val version : 'v node -> Version.t Atomic.t
(** The node's version word, as an atomic.  Free: the record itself. *)

val is_border : 'v node -> bool
(** The isborder bit of the current version word. *)

val touch : 'v node -> unit
(** Load every line a descent step is about to read from the node: the
    version word, and for a border the permutation word, the four cell
    lines and the value array; for an interior its routing keys and
    child slots.  Results are discarded: this is the group get's
    prefetch, racy and memory-safe like every reader access. *)

(** {1 Cell accessors} — slot-indexed, allocation-free.  Writes require
    the node's lock; reads are race-safe. *)

val slice_hi : 'v node -> int -> int
val slice_lo : 'v node -> int -> int
val keylen : 'v node -> int -> int
val suffix_handle : 'v node -> int -> int

val copy_entries :
  'v node ->
  Permutation.t ->
  int ->
  hi:int array ->
  lo:int array ->
  klen:int array ->
  suf:int array ->
  lv:'v link_or_value array ->
  unit
(** [copy_entries b perm n ~hi ~lo ~klen ~suf ~lv] copies the first [n]
    entries of [perm] — slice halves, key length, suffix handle and
    value — into the arrays at indexes [0 .. n), in key order: the scan
    cursor's fill, one call per border.  The arrays hold at least [n]
    elements ([n <= width]).  Racy like the per-slot accessors; the
    caller validates. *)

val set_entry : 'v node -> int -> hi:int -> lo:int -> klen:int -> h:int -> unit
(** Write a slot's whole key payload: two word stores. *)

val set_suffix_handle : 'v node -> int -> int -> unit
(** Rewrites the handle's word with the slot's slice-hi read back from it
    (a read-modify-write under the node's lock, like every cell write). *)

val suffix_string : 'v node -> int -> string option
(** Materialize slot's suffix blob (cold paths: layer creation, scans,
    debug). *)

val suffix_matches : 'v node -> int -> string -> pos:int -> bool
(** [suffix_matches b slot k ~pos] — does the slot's blob equal
    [k[pos..]]?  The hot suffix check; race-safe, allocation-free. *)

val prefetch_suffix : 'v node -> int -> unit
(** Load the header line of a slot's suffix blob, if it has one. *)

val ikey_hi : 'v node -> int -> int
val ikey_lo : 'v node -> int -> int
val set_ikey : 'v node -> int -> hi:int -> lo:int -> unit
val copy_ikey : 'v node -> dst:int -> src:int -> unit

val border_perm : 'v node -> Permutation.t
(** Atomic read of the permutation word. *)

val entry_cmp : int -> int -> int -> int -> int -> int -> int
(** [entry_cmp h1 l1 len1 h2 l2 len2] orders border entries by
    (slice, min(len,9)): the lexicographic order of the keys they stand
    for, given the invariant that at most one entry per slice has
    len ≥ 9. *)

val entry_cmp_at : 'v node -> int -> kshi:int -> kslo:int -> klen:int -> int
(** Compare the entry in [slot] against a probe key ([klen] already
    clamped to the marker), reading straight from the cell. *)

val pp_border : Format.formatter -> 'v node -> unit
(** Debug dump of live entries (slices, lengths, kinds). *)

val check_border : 'v node -> (string, string) result
(** Structural invariant check for tests: permutation well-formed, live
    entries strictly sorted, ≤ 1 suffix-or-layer entry per slice.  Returns
    [Error msg] on violation. *)

val retire_storage : 'v node -> Epoch.handle -> unit
(** Epoch-retire a dead border's cell and every suffix blob it still
    owns.  Caller has marked the node deleted (unreachable to new
    readers); pinned readers are covered by the epoch deferral. *)
