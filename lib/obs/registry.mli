(** Named-metric registry: atomic counters, sampled gauges, and
    per-worker-sharded latency histograms, plus an embedded slow-op
    {!Trace} ring — cheap enough to leave on in the hot path.

    {b Hot-path cost.}  Call sites resolve a metric handle once
    ([counter] / [histogram] take a lock) and then record through it
    ([incr] / [add] / [observe]), which is one enabled-flag load plus one
    sharded update — no allocation, no locks.  Shards are selected by the
    caller's worker id (falling back to the current domain id), so
    concurrent workers do not contend on a cache line.

    {b Consistency.}  Counter updates are atomic and never lost.
    Histogram shards have a single logical writer per worker; if two
    threads share a worker id their updates may race and drop a sample —
    acceptable for latency distributions, documented here so nobody
    builds an invariant on histogram counts.  [snapshot] reads everything
    racily without stopping writers.

    The process-wide {!global} registry is what the server stack
    (kvserver engine, persist logger, kvstore store) records into;
    isolated registries ([create]) serve tests and embedders. *)

type t

type counter

type histo

val create : ?shards:int -> unit -> t
(** [create ()] makes an enabled registry with [shards] (default 16,
    rounded up to a power of two) shards per counter/histogram. *)

val global : t
(** The process-wide registry, enabled by default.  Disable it to
    measure (or remove) telemetry overhead. *)

val is_enabled : t -> bool

val set_enabled : t -> bool -> unit
(** When disabled, [incr]/[add]/[observe] return immediately and
    {!trace} recording stops; handles stay valid and counts resume on
    re-enable. *)

val counter : t -> string -> counter
(** Get or create the named counter.  Same name, same counter. *)

val incr : ?worker:int -> counter -> unit

val add : ?worker:int -> counter -> int -> unit

val counter_value : counter -> int
(** Sum across shards (racy but never undercounts a completed [add]). *)

val histogram : t -> string -> histo
(** Get or create the named histogram (values are conventionally
    microseconds). *)

val observe : ?worker:int -> histo -> int -> unit

val allocated_shards : histo -> int
(** How many of the histogram's shards hold a bucket array.  Shards
    allocate theirs on their first sample, so a histogram only one worker
    records into costs one array, not one per shard. *)

val gauge : t -> string -> (unit -> int) -> unit
(** [gauge t name f] registers [f] to be sampled at snapshot time.
    Re-registering a name replaces the previous callback (so a
    newly-created store can take over its gauges from a dead one).  A
    callback that raises is reported as 0. *)

val register_gc : t -> unit
(** Register [gc.*] gauges (minor/major collection counts, compactions,
    live and peak heap words, cumulative allocated words) backed by
    [Gc.quick_stat].  Gauges are sampled at {!snapshot} time, so the
    server's stats timer and the Stats wire command see fresh values. *)

val trace : t -> Trace.t
(** The registry's slow-op ring. *)

val snapshot : t -> Snapshot.t
(** Capture everything: counter sums, sampled gauges, merged histogram
    summaries, and the most recent slow ops.  Runs concurrently with
    recording; taken even when the registry is disabled (it reports
    whatever was recorded while enabled). *)

val reset : t -> unit
(** Zero all counters and histograms and clear the trace ring; gauges
    keep their callbacks.  Test helper. *)
