(** The Masstree itself: a trie with fanout 2^64 whose nodes are B+-trees
    (§4).  Each trie layer is a B+-tree indexed by one 8-byte key slice;
    border nodes store inline short keys, one suffix entry, or links to
    deeper layers.

    Concurrency: [get] and [scan] take no locks and never write shared
    memory; they validate version snapshots and retry locally on
    concurrent inserts or from the root on concurrent splits and deletes
    (§4.6).  [put] and [remove] lock only the affected nodes, splitting
    with hand-over-hand locking up the tree (Figure 5).

    Keys are arbitrary byte strings; values are any OCaml type.  All
    operations are safe to call from any number of domains
    simultaneously.  The correctness condition is the paper's "no lost
    keys": a concurrent reader sees, for every key, either the value some
    committed put gave it or its absence if removed — never a mixture or
    a phantom.

    Memory: border-node key payloads (slices, lengths, suffixes) live
    off-heap in a per-tree {!Pool} arena; removes and node deletions
    retire storage through the epoch machinery ([tree.pool.retire] /
    [tree.pool.free]), so it is never recycled under a still-validating
    reader.  Underfull borders absorb their right sibling (same parent
    only) under the split protocol ([tree.merge.*]).

    That condition is checked mechanically: every ordering-sensitive step
    of every operation is a named {!Schedpoint} ([tree.descend.validate],
    [tree.put.published], [tree.split.migrated], [tree.remove.unlinked],
    [tree.merge.migrated], … — 27 in this module, plus the [ver.*],
    [epoch.*] and [tree.pool.*] points), and
    [lib/schedsim] replays the scenarios in [Scenario.scenarios] under
    exhaustive and randomized interleavings of those points, validating
    each read against a sequential oracle ([dune exec bench/main.exe --
    race]).  With the scheduler disabled — always, outside the harness —
    each point is a single atomic load.  docs/CONCURRENCY.md maps every
    point to its protocol step and paper section. *)

type 'v t

val create : unit -> 'v t

val get : 'v t -> Key.t -> 'v option
(** [get t k] is the current binding of [k], lock-free.  Schedule points:
    [tree.get.read] between locating the key and validating the version
    (the window where a racing writer forces a retry), [tree.get.advance]
    before each rightward hop past a concurrent split, and
    [tree.restart.spin] on each from-the-root restart. *)

val put : 'v t -> Key.t -> 'v -> 'v option
(** [put t k v] binds [k] to [v] and returns the previous binding.
    Schedule points: [tree.put.replaced] after an in-place value swap,
    [tree.put.slot_written] after a fresh slot's key/value are written but
    before the permutation publishes them, [tree.put.published] after the
    single-store publish, and [tree.layer.published] after linking a new
    trie layer; splits add the [tree.split.*] sequence. *)

val put_with : 'v t -> Key.t -> ('v option -> 'v) -> 'v option
(** [put_with t k f] atomically replaces [k]'s binding with
    [f current]; [f] runs under the border node's lock, so it must be
    quick and must not touch [t].  This is how multi-column updates copy
    unmodified columns from the old value (§4.7). *)

val remove : 'v t -> Key.t -> 'v option
(** [remove t k] deletes [k]'s binding, returning it if present.  Empty
    nodes are deleted and emptied trie layers are collapsed by scheduled
    maintenance tasks; a border left at or below the merge threshold
    tries to absorb its right sibling when both hang off the same parent
    ([tree.merge.begin] / [tree.merge.migrated] / [tree.merge.done],
    under the split lock/version protocol).  Schedule points:
    [tree.remove.cut] after the permutation store that hides the key,
    [tree.remove.node_empty] when a border empties,
    [tree.remove.unlink_spin] while trylocking the left sibling for the
    unlink, and [tree.remove.unlinked] after the border list is repaired;
    layer collapse runs between [tree.collapse.begin] and
    [tree.collapse.done]. *)

val remove_if : 'v t -> Key.t -> ('v -> bool) -> 'v option
(** [remove_if t k pred] deletes [k]'s binding iff [pred current] holds,
    atomically: [pred] runs under the border node's lock, so the decision
    and the removal cannot be separated by a concurrent writer.  Returns
    the removed binding, [None] if absent or [pred] declined.  Same
    schedule points as {!remove}.  [pred] must be quick and must not
    touch [t]. *)

val update : 'v t -> Key.t -> ('v -> 'v) -> bool
(** [update t k f] atomically replaces [k]'s binding with [f current] iff
    [k] is bound; never inserts.  Returns whether a binding was replaced.
    [f] runs under the border node's lock — quick, no reentrant calls.
    The replacement is one atomic store, same as {!put_with} on an
    existing key ([tree.put.replaced]). *)

val mem : 'v t -> Key.t -> bool

val multi_get : 'v t -> Key.t array -> 'v option array
(** [multi_get t keys] is the software-pipelined group get (the
    interleaved-descent optimization of §4.8, which the paper measured
    at up to +34%) — semantically [Array.map (get t) keys], structured
    for memory-level parallelism (docs/BATCHING.md).  Each lookup runs a
    per-flight state machine (layer root → interior descent → layer hop
    → border version-validated read → suffix confirmation); one {e round}
    advances every live flight by one node.  Each round first runs a
    tight {e touch pass} that loads every line the flights' next steps
    will read (the staged node's version, permutation, cell and value
    array; a hit's value box and suffix blob), then the step pass, so
    the cache misses of up to [Array.length keys] dependent-load chains
    are in flight together instead of one at a time.  (This OCaml port
    has no non-binding prefetch intrinsic; the touch pass's discarded
    loads stand in for it — see docs/BATCHING.md §4.)

    Re-entry rule: turbulence does {e not} eject a lookup to the
    sequential path — a trie-layer hop re-enters the pipeline at the
    sub-layer's root ([tree.pipeline.layer]), a split
    chase follows next-pointers in-pipeline ([tree.get.advance]), and a
    deleted node or failed hand-over-hand validation re-enters from the
    owning layer's (or layer 0's) root ([tree.pipeline.restart], counted
    in [Stats.Pipeline_restarts]).  Only a flight that exhausts its
    restart fuel — or outlives the round budget — finishes on plain
    [get], whose spin-aware retry loop guarantees progress.

    This is the path {!Kvstore.Store.multi_get} serves, so the reactor's
    cross-frame merged get batches and the shard router's per-shard
    fan-out both descend pipelined end to end.  Schedule points:
    [tree.pipeline.round] between rounds, [tree.pipeline.touched]
    between a round's touch pass and its step pass, plus the plain read
    protocol's
    [tree.descend.validate] / [tree.get.read] / [tree.get.advance] per
    flight, so schedsim interleaves writers both between rounds and
    inside a flight's §4.5 read window. *)

val scan_borrowed :
  'v t ->
  ?start:Key.t ->
  ?stop:Key.t ->
  ?touch:('v -> unit) ->
  limit:int ->
  (Bytes.t -> int -> 'v -> unit) ->
  int
(** [scan_borrowed t ~start ~stop ~limit f] visits up to [limit]
    bindings with [start <= key < stop] in ascending key order and
    returns the count visited.  [f buf len v] gets the key as
    [buf.[0 .. len)], {e borrowed}: the buffer is the scan's own, valid
    only until [f] returns, and must not be written.  The key is built in
    place from the enclosing layers' slices, the entry's slice and its
    suffix blob, so a scan allocates nothing per key; its buffers and
    per-depth cursors are reused by the domain's next scan.

    Like the paper's getrange, the scan is {e not} atomic with respect to
    concurrent inserts and removes: each visited binding was live at some
    point during the scan, and no key is visited twice — a scan that
    restarts from the root (a deleted node, a collapsed layer) resumes
    strictly after the last key it emitted (docs/CONCURRENCY.md §3).
    Schedule point [tree.snapshot.read] fires after each border is copied
    into the scan's cursor and before it is validated — the instant a
    concurrent split or remove can invalidate it.

    [touch v], if given, runs on every value of a border right after the
    border is copied and validated, before any of them is emitted: it
    should load what [f] will read of each value, so those cache misses
    overlap in one tight loop instead of landing one per key. *)

val scan_rev_borrowed :
  'v t ->
  ?start:Key.t ->
  ?stop:Key.t ->
  ?touch:('v -> unit) ->
  limit:int ->
  (Bytes.t -> int -> 'v -> unit) ->
  int
(** [scan_rev_borrowed] visits bindings with [stop <= key <= start] in
    descending order ([start] unset = from the maximum key; [stop] unset
    = to the minimum), handing out borrowed keys as {!scan_borrowed}
    does. *)

val scan :
  'v t -> ?start:Key.t -> ?stop:Key.t -> limit:int -> (Key.t -> 'v -> unit) -> int
(** {!scan_borrowed} with each key copied into a string. *)

val scan_rev :
  'v t -> ?start:Key.t -> ?stop:Key.t -> limit:int -> (Key.t -> 'v -> unit) -> int
(** {!scan_rev_borrowed} with each key copied into a string. *)

val iter : 'v t -> (Key.t -> 'v -> unit) -> unit
(** [iter t f] scans the whole tree in ascending key order. *)

val cardinal : 'v t -> int
(** [cardinal t] counts bindings by scanning; O(n). *)

val stats : 'v t -> Stats.t

val pool : 'v t -> Pool.t
(** The tree's off-heap node arena (occupancy gauges, footprint). *)

val pool_consistency : 'v t -> (unit, string) result
(** The pool leak oracle: traverse the tree counting reachable cells and
    suffix blobs (stale slots included — removed keys' blobs stay parked
    until slot reuse or node death) and check them against the pool's
    live counts, with no deferred frees outstanding.  Call from a single
    thread after {!maintain}. *)

val epoch_manager : 'v t -> Epoch.manager

val maintain : 'v t -> unit
(** Run pending epoch maintenance (layer collapses, deferred frees) from a
    quiescent caller; tests and long-running servers call this
    periodically. *)

val check : 'v t -> (unit, string) result
(** Deep structural invariant check (single-threaded callers only): node
    invariants, sorted borders, and every link — child slots [0..nkeys]
    non-nil, of one kind and parented by their interior, slots above
    [nkeys] nil, the border list ordered and doubly linked with nil at
    each layer's ends.  For tests. *)

type shape = {
  borders : int;
  interiors : int;
  layers : int; (** trie layers reachable, layer 0 included *)
  entries : int; (** live key slots (layer links included) *)
  max_depth : int; (** deepest node counting across layers *)
  avg_border_fill : float; (** live keys per border node / width *)
}

val shape : 'v t -> shape
(** Structure census by traversal (single-threaded callers only): drives
    the §4.3 memory-utilization ablation and white-box tests. *)

(**/**)

(* Internal access for scan, the memory-model instrumentation, and
   white-box tests. *)

val root_ref : 'v t -> 'v Node.node ref

val find_border :
  'v t -> 'v Node.node ref -> hi:int -> lo:int -> 'v Node.node * Version.t
(** Descend to the border responsible for the slice given as (hi, lo)
    halves (see {!Key.slice_hi}) and return it with the stable version
    the descent validated it under.  This is the tree's one sequential
    descent (Figure 6): [get], [put], [remove], [update], scans and
    layer collapse all start from it; {!multi_get} runs the same
    hand-over-hand and revalidation steps as a pipeline. *)

val multi_get_pipelined : 'v t -> Key.t array -> 'v option array
(** Former name of {!multi_get}; bench/ycsb/replay.ml still calls it. *)

exception Restart
