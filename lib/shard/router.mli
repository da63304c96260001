(** Sharded serving tier: N independent {!Kvstore.Store} instances behind
    a keyspace router, with an optional hot-key mitigation layer.

    Routing is hash-partitioned by default (stable FNV-1a, so the same
    key maps to the same shard across runs and router instances with the
    same shard count) with pluggable range partitioning.  Point ops go to
    the owning shard, [multi_get] fans out per shard and re-scatters
    results in request order, and scans run on every shard and k-way
    merge into one globally ordered stream.

    The hot-key layer attacks the weakness Fig 13 exposes in
    hard-partitioned deployments — Zipfian traffic saturating one
    partition while the rest idle: a space-saving sketch samples the get
    stream, the current top-K keys become fill-eligible, and a
    version-validated read cache ({!Hotcache}) serves them without
    touching the owning shard.  Writes invalidate after the shard write
    completes; see docs/SHARDING.md for the full protocol. *)

type concurrency =
  | Concurrent
      (** shards are concurrent Masstrees; the router adds routing only
          (the server daemon's mode) *)
  | Dedicated
      (** §6.6's hard-partitioned model: every shard access serializes on
          a per-shard lock, as if one core served each shard — the
          configuration whose skew collapse the hot-key layer mitigates *)

type partitioning =
  | Hash
  | Range of string array
      (** [boundaries.(i)] is the first key {e not} owned by shard [i]
          (sorted, length [shards - 1]); shard [n-1] owns the tail *)

type hot_config = {
  hot_slots : int; (** cache slots and top-K target *)
  sketch_capacity : int; (** tracked keys in the space-saving sketch *)
  refresh_every : int; (** sketched observations between top-K refreshes *)
  sample : int;
      (** sketch 1 in [sample] gets; [create] rounds it up to a power of
          two (the gate is a mask) *)
}

val default_hot_config : hot_config
(** 1024 slots, 4096-entry sketch, refresh every 1024 sampled
    observations, sample 1-in-16 (the top-K set adapts every ~16k
    gets while a uniform workload pays ~1-2% for the layer). *)

type t

val create :
  ?partitioning:partitioning ->
  ?concurrency:concurrency ->
  ?hot:hot_config ->
  Kvstore.Store.t array ->
  t
(** [create stores] routes over [stores] (hash-partitioned, [Concurrent],
    no hot-key layer unless [hot] is given). *)

val shards : t -> int

val stores : t -> Kvstore.Store.t array
(** The backing shards, e.g. for per-shard checkpoint/recovery. *)

val shard_of : t -> string -> int
(** The shard that owns a key.  Deterministic and stable for a given
    partitioning + shard count. *)

(** {1 Operations}

    Same semantics as the corresponding {!Kvstore.Store} calls; [worker]
    selects the owning shard's update log and the sampling state. *)

val get : ?worker:int -> t -> string -> string array option

val get_columns : ?worker:int -> t -> string -> int list -> string array option

val get_value : t -> string -> Kvstore.Store.value option
(** Always reads through to the shard (never the cache). *)

val put : ?worker:int -> t -> string -> string array -> unit

val put_columns : ?worker:int -> t -> string -> (int * string) list -> unit

val remove : ?worker:int -> t -> string -> bool

(** {1 Replica read offload (docs/REPLICATION.md)}

    An alternative mitigation for the Fig-13 hot-shard collapse: instead
    of caching hot keys in front of the owning partition, fan read
    traffic across log-shipping replicas.  The table holds
    transport-agnostic handles (in-process [Repl.Replica.read] closures,
    or a TCP client's [Repl_read]); {!get_offload} round-robins them and
    falls back to the owning shard when a replica is behind the caller's
    staleness floor or unreachable. *)

type replica_handle = {
  rh_label : string;
  rh_read :
    string ->
    int list ->
    int64 ->
    [ `Value of string array option | `Stale | `Down ];
      (** [rh_read key columns floor]: bounded-staleness read —
          [`Value] only if the replica's applied clock reached [floor]
          ([columns = []] means all). *)
  rh_applied : unit -> int64;  (** the replica's applied version clock. *)
}

val set_replicas : t -> replica_handle list -> unit
(** Install (or replace) the replica table.  Not synchronized with
    in-flight {!get_offload} calls beyond the array swap. *)

val replica_count : t -> int

val get_offload :
  ?worker:int -> ?columns:int list -> ?floor:int64 -> t -> string ->
  string array option
(** Read via the replica table (round-robin), falling back to the owning
    shard on [`Stale]/[`Down] or when no replicas are installed.
    [floor] (default [0L] — any replica state is fresh enough) is the
    client's bounded-staleness cut, e.g. the version clock it last
    observed for read-your-writes. *)

val offload_stats : t -> int * int
(** [(served, fallback)]: offload reads answered by a replica vs routed
    back to the owning shard. *)

val multi_get : ?worker:int -> t -> string array -> string array option array
(** Cache hits answered up front; misses grouped per shard and served by
    that shard's pipelined {!Kvstore.Store.multi_get} (§4.8), with
    results scattered back into request order. *)

val getrange :
  t -> start:string -> ?columns:int list -> limit:int ->
  (string -> string array -> unit) -> int
(** Cross-shard merged scan: a k-way merge over per-shard cursors emits
    the globally first [limit] pairs from [start] in key order.  Shards
    are read a bounded chunk at a time and refilled as the merge drains
    them, so transient memory is O(shards * min(limit, 256)) no matter
    how large the client's [limit] is.  Like the single-store scan, not
    atomic w.r.t. concurrent writers. *)

val getrange_rev :
  t -> ?start:string -> ?columns:int list -> limit:int ->
  (string -> string array -> unit) -> int

val cardinal : t -> int

(** {1 Cross-shard snapshots (MVCC; docs/MVCC.md)}

    One call pins a {!Kvstore.Store.Snapshot} on every shard before
    returning, so the tier-wide cut is coordinated: a write acked after
    [open_] returns is invisible through the snapshot on {e every}
    shard.  Reads route by the same partitioning as live ops but bypass
    the hot-key cache (it mirrors live values) and never block writers;
    the merged scan runs over per-shard snapshot cursors, so unlike the
    live {!getrange} it is one consistent view. *)

module Snapshot : sig
  type snap

  val open_ : t -> snap

  val versions : snap -> int64 array
  (** Per-shard pinned versions (shard clocks are independent). *)

  val read : snap -> string -> string array option

  val read_columns : snap -> string -> int list -> string array option

  val getrange :
    snap -> start:string -> ?columns:int list -> limit:int ->
    (string -> string array -> unit) -> int

  val close : snap -> unit
  (** Close every shard's snapshot (idempotent). *)
end

val close : t -> unit

val check : t -> (unit, string) result
(** Deep structural check of every shard (quiescent callers only). *)

val pool_consistency : t -> (unit, string) result
(** Node-arena leak oracle over every shard: runs each store's epoch
    maintenance (draining deferred frees), then requires
    allocs == frees + reachable.  Single-threaded callers only. *)

(** {1 Telemetry} *)

val shard_loads : t -> int array
(** Per-shard count of operations routed past the hot-key cache — the
    load-imbalance signal ([bench shard] compares it against the modeled
    partitioned baseline's counters). *)

val reset_shard_loads : t -> unit

val imbalance_pct : int array -> float
(** [(max - mean) / mean * 100] over per-shard load counts; 0 for a
    perfectly balanced tier. *)

val hot_stats : t -> Hotcache.stats option

val hot_key_count : t -> int
(** Size of the current fill-eligible top-K set. *)

val register_obs : t -> unit
(** Publish gauges on {!Obs.Registry.global}: [shard.shards],
    [shard.cardinal], [shard.load.<i>], [shard.imbalance_pct], and — with
    the hot-key layer — [shard.hot.keys], [shard.hot.hits/misses/fills/
    invalidations] and [shard.hot.hit_rate_pct]. *)
