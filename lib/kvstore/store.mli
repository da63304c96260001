(** The Masstree storage system (§3, §4.7, §5): a Masstree index over
    multi-column values, with per-worker update logs and checkpoints.

    Values are a version number plus an array of byte-string columns.
    Puts that touch a subset of columns copy the untouched ones from the
    old value into a fresh object and swap it in with one store, so
    multi-column puts are atomic: a concurrent get sees all or none of a
    put's modifications.  Sequential updates to one value get distinct,
    increasing version numbers (used by log replay ordering).

    Logging is optional: a store created with [logs] writes every update
    to one of the per-worker logs (workers pick their log by worker id,
    mimicking the paper's per-core log files). *)

type value = { version : int64; columns : string array }

type layout =
  | Contiguous
      (** §4.7's small-value design: the value is one freshly-built
          string per update — a small header (column count, an offset
          width of 1, 2 or 4 bytes chosen from the value's size, the
          column end offsets) followed by the column bytes.  Reads take
          every column from that one block; column updates copy every
          byte of the value.  A 10 x 4-byte record costs 16 heap words
          with the tree's value box (docs/MEMORY.md §7). *)
  | Columnar
      (** §4.7's large-value design: one block per column.  Column
          updates copy only pointers to unmodified columns; reads of many
          columns chase one pointer per column. *)

type t

val create : ?logs:Persist.Logger.t array -> ?layout:layout -> unit -> t
(** [layout] defaults to [Contiguous], the variant the paper evaluates
    ("most appropriate for small values"). *)

val layout : t -> layout

val close : t -> unit
(** Sync and close the attached loggers. *)

(** {1 Operations (§3)} *)

val get : t -> string -> string array option
(** Full-value get: all columns. *)

val get_columns : t -> string -> int list -> string array option
(** [get_columns t k cols] returns the requested columns in request
    order.  Missing column indexes read as [""]. *)

val get_value : t -> string -> value option

val project : string array -> int list -> string array
(** [project columns requested]: the [requested] columns in request
    order, an index outside [columns] reading as [""] — the projection
    {!get_columns} and the scans apply to stored values, for callers
    holding a full column array (the shard router's hot cache). *)

val multi_get : t -> string array -> string array option array
(** Batched full-value gets over the software-pipelined group-get path
    ({!Masstree_core.Tree.multi_get}, docs/BATCHING.md): the
    whole batch's tree descents interleave one node per round with
    cross-lookup prefetch (§4.8).  The network engine calls this for
    merged runs of full-value get frames, and the shard router for each
    shard's slice of a fanned-out batch. *)

val put : ?worker:int -> t -> string -> string array -> unit
(** Full-value put (replaces all columns). *)

val put_columns : ?worker:int -> t -> string -> (int * string) list -> unit
(** [put_columns t k updates] atomically modifies just the listed columns,
    extending the column array if an index is beyond its current width. *)

val remove : ?worker:int -> t -> string -> bool

val getrange :
  t -> start:string -> ?columns:int list -> limit:int ->
  (string -> string array -> unit) -> int
(** Scan (§3): up to [limit] pairs from [start] in key order, returning
    the requested columns (default: all).  Not atomic w.r.t. writers. *)

val getrange_rev :
  t -> ?start:string -> ?columns:int list -> limit:int ->
  (string -> string array -> unit) -> int
(** Descending scan from [start] (default: the maximum key) — the paper's
    getrange "in either direction" (§4.3). *)

val cardinal : t -> int

(** {1 Snapshots (MVCC; docs/MVCC.md)}

    A snapshot pins a point in the store's version clock: every read
    through it resolves to the newest write with version [<=] the pinned
    one, no matter what concurrent writers do — long scans see one
    consistent cut with zero writer blocking and no retry storms.
    Writers that overwrite or remove a value while snapshots are open
    chain the retired payload off the new head ({!Mvcc.Chain}); closing
    the last snapshot that could read an entry lets the prune pass (run
    at epoch {e tick}/{e quiesce}, or {!maintain}) drop it, so live
    chained versions stay O(open snapshots).

    Writes still in flight when the snapshot opens (version minted
    before, tree store after) may surface on a later read — each
    individual read is still a committed value [<=] the cut, but opening
    a snapshot does not wait for in-flight writers to land.  Open before
    the writes you must not see, not during. *)

module Snapshot : sig
  type snap

  val open_ : t -> snap
  (** Pin the current {!max_version}.  O(1); never blocks writers. *)

  val version : snap -> int64
  (** The pinned cut: reads resolve to the newest version [<= version]. *)

  val epoch : snap -> int
  (** EBR global epoch at open (drives [mvcc.prune_lag_epochs]). *)

  val read : snap -> string -> string array option
  (** The key's columns as of the cut; [None] if absent (never written,
      removed before the cut, or born after it). *)

  val read_columns : snap -> string -> int list -> string array option

  val getrange :
    snap -> start:string -> ?columns:int list -> limit:int ->
    (string -> string array -> unit) -> int
  (** Consistent ascending scan at the cut: every emitted pair is the
      key's state as of {!version}, tombstones and later-born keys
      skipped. *)

  val getrange_versioned :
    snap -> start:string -> limit:int ->
    (string -> int64 -> string array -> unit) -> int
  (** {!getrange} that also yields each entry's resolved write version —
      the replication bootstrap feed: the receiver applies through
      {!migrate_put} so a concurrent log tail can race the feed safely
      (the per-key replay guard keeps the newest version either way).
      Tombstones at the cut are skipped (the feed seeds an empty
      store). *)

  val close : snap -> unit
  (** Release the pin (idempotent) and schedule pruning of entries only
      this snapshot could read.  Reads after [close] raise
      [Invalid_argument]. *)
end

val snapshots_open : t -> int

val mvcc_versions_live : t -> int
(** Chained (non-head) versions currently alive — the
    [mvcc.versions_live] gauge. *)

val prune : t -> unit
(** Run one prune pass now over the keys whose chains are non-empty.
    Writes bound chains themselves: a write whose chain reaches
    {!chain_prune_trigger} entries prunes it inline, under its border
    lock, so no chain outgrows the trigger while one snapshot is open.
    Passes are scheduled by snapshot close and run at epoch
    tick/quiesce; they reclaim what the inline prunes had to keep and
    delete dead tombstones.  Scheduled passes only run when something
    ticks the epoch machinery: an embedder holding snapshots open across
    idle periods should call [prune] (or {!maintain}) periodically, as
    the server daemon's timer thread does. *)

val maintain : t -> unit
(** Prune, then run the index's deferred epoch maintenance
    ({!Masstree_core.Tree.maintain}); quiescent callers. *)

val tree_stats : t -> Masstree_core.Stats.t

val pool_stats : t -> Masstree_core.Pool.stats
(** Occupancy of the index's off-heap node arena. *)

val pool_footprint : t -> int
(** Bytes of slab storage the arena owns. *)

val pool_consistency : t -> (unit, string) result
(** The arena leak oracle ({!Masstree_core.Tree.pool_consistency}):
    single-threaded callers, after {!maintain}.  Soak's exit oracle. *)

val register_obs : t -> unit
(** Publish this store's live telemetry on {!Obs.Registry.global}: one
    [masstree.<counter>] gauge per {!Masstree_core.Stats} counter
    (retries, splits, layer creations, …) and, when the store logs, a
    [log.buffered_bytes] gauge summing its loggers' unflushed bytes.
    Registration replaces by name, so the most recently registered store
    is the one reporting — call it again after recovery swaps stores. *)

(** {1 Persistence (§5)} *)

val checkpoint :
  ?vfs:Faultsim.Vfs.t -> t -> dir:string -> writers:int -> (string, string) result
(** Dump the store and return the manifest path.  The dump walks a
    pinned {!Snapshot} — one consistent cut, no interference with
    foreground puts — and streams it to the part writers a chunk of
    resolved entries at a time, so its memory is bounded by the chunk,
    not the store.  Only resolved heads are written: chains never reach
    disk ({!Persist.Checkpoint.entry} has no chain field).  [vfs]
    (default: the real filesystem) is how the crash-torture harness
    redirects checkpoint I/O onto a simulated disk. *)

val reclaim_dir : ?vfs:Faultsim.Vfs.t -> keep:string list -> string -> unit
(** [reclaim_dir ~keep dir] deletes, in name order, every [log-*] file
    and (flat) [ckpt-*] directory directly inside [dir] whose path
    [Filename.concat dir name] is not in [keep], ignoring files that
    vanish meanwhile.  The one deletion loop for superseded persistent
    state: {!checkpoint_reclaim} keeps the fresh logs and the new
    checkpoint, boot-time resharding keeps this incarnation's logs.
    Failpoints [ckpt.reclaim.unlink] / [ckpt.reclaim.rm_ckpt] fire
    before each deletion. *)

val checkpoint_reclaim :
  ?vfs:Faultsim.Vfs.t -> t -> dir:string -> writers:int -> (string, string) result
(** Checkpoint and reclaim log space (§5) in a data directory [dir] that
    holds this store's logs ([log-*] files) and checkpoints ([ckpt-*]
    directories), returning the new manifest path.  The order is what
    makes it safe under concurrent writers:

    + rotate every logger to a fresh [log-<tag>-<i>] in [dir];
    + take the snapshot cut and write [ckpt-<tag>] ({!checkpoint});
    + once the manifest is durable, write a durable {!Persist.Logger.mark}
      in every fresh log, then delete every other [log-*] file and
      [ckpt-*] directory in [dir].

    A put installs its value before it logs, so every record in a
    rotated-away log predates the cut and the checkpoint covers it; an
    acknowledged put is never only in a deleted log.  On [Error] nothing
    is deleted (the logs have rotated; the next call reclaims them).
    Crash windows: [ckpt.reclaim.unlink], [ckpt.reclaim.rm_ckpt]. *)

val recover :
  ?vfs:Faultsim.Vfs.t ->
  ?logs:Persist.Logger.t array ->
  ?layout:layout ->
  ?replay_domains:int ->
  ?keep_tombstones:bool ->
  log_paths:string list ->
  checkpoint_dirs:string list ->
  unit ->
  (t * Persist.Recovery.stats, string) result
(** Rebuild a store from checkpoint + logs (the version guard ensures
    replay order-independence across per-core logs).  [keep_tombstones]
    (default false) retains versioned remove tombstones instead of
    sweeping them after replay, so a caller merging several recovered
    stores (the daemon's reshard migration) can let a newer remove in one
    dir shadow an older put in another; sweep with {!sweep_tombstones}
    once the merge is done. *)

val check : t -> (unit, string) result
(** Deep structural check of the underlying index (quiescent callers
    only); see {!Masstree_core.Tree.check}. *)

val max_version : t -> int64
(** Largest version this store has issued or observed. *)

val ensure_version_above : t -> int64 -> unit
(** Make every future version exceed [version].  A store populated by
    migrating another store's bindings (the daemon's startup path) must
    inherit the source's clock, or records in the previous incarnation's
    still-present logs would out-version — and silently shadow — newer
    updates during a subsequent recovery. *)

(** {1 Migration (the daemon's startup reshard)} *)

val iter_entries :
  t -> (key:string -> version:int64 -> columns:string array option -> unit) -> unit
(** Iterate every binding in key order {e including} tombstones
    ([columns = None], present only after [recover ~keep_tombstones:true])
    with its version — the source side of a reshard migration. *)

val migrate_put : ?worker:int -> t -> key:string -> version:int64 -> columns:string array -> unit

val migrate_remove : ?worker:int -> t -> key:string -> version:int64 -> unit
(** Version-carrying logged writes: apply the binding only if [version]
    is newer than what the store holds (the replay guard), {e and} append
    it to the store's log under that same version.  Because the recovered
    version travels with the record, a key migrated from several source
    dirs converges on its newest copy regardless of migration order, on
    this run and on every subsequent replay.  [migrate_remove]
    materializes a versioned tombstone — sweep with {!sweep_tombstones}
    before serving. *)

val sweep_tombstones : t -> unit
(** Drop remove tombstones left by [recover ~keep_tombstones:true] or
    {!migrate_remove} (quiescent callers only). *)

(** {1 Internal (replay + tests)} *)

val chain_prune_trigger : int
(** A write whose pushed chain reaches this length prunes it on the spot,
    under its border lock, against the open snapshots. *)

val apply_put : t -> key:string -> version:int64 -> columns:string array -> unit
val apply_remove : t -> key:string -> version:int64 -> unit
