(** Request execution: the bridge from decoded protocol batches to the
    serving backend.  Shared by every transport (loopback, TCP, UDP,
    Unix sockets, reactor). *)

type backend
(** The serving target (one store, or a sharded tier whose router owns
    key placement, [multi_get] fan-out, cross-shard scan merging, and
    the hot-key cache — protocol semantics are identical; clients cannot
    tell which backend serves them) plus the wire-level snapshot lease
    table ([Snap_open]'s handles; see docs/MVCC.md). *)

val single : ?snap_ttl_us:int64 -> Kvstore.Store.t -> backend

val sharded : ?snap_ttl_us:int64 -> Shard.Router.t -> backend
(** [snap_ttl_us] (default 30s) is the snapshot lease TTL: a wire
    snapshot untouched for that long is expired and closed by
    {!sweep_snapshots}, so a dead client cannot wedge version pruning.
    Every [Snap_*] call on a lease renews it. *)

val sweep_snapshots : backend -> int
(** Expire and close every snapshot lease past its TTL; returns the
    count.  The daemon's timer thread calls this periodically. *)

val open_snapshots : backend -> int
(** Currently leased wire snapshots. *)

val set_repl_handler :
  backend -> (worker:int -> Protocol.request -> Protocol.response) -> unit
(** Install the [Repl_*] service (docs/REPLICATION.md).  This library
    sits below [lib/repl], so the daemon injects the handler — a
    [Repl.Source] on a primary, a [Repl.Replica] on a standby — after
    building the backend.  Without one, [Repl_open/batch/ack/status/
    promote] answer [Failed "replication not enabled"] and [Repl_read]
    degrades to a plain get (a primary is trivially fresh: any floor a
    client holds came from its clock). *)

val set_readonly : backend -> bool -> unit
(** Replica serving contract: while set, client [Put]/[Put_cols]/
    [Remove] are rejected with [Failed].  Replication itself applies
    through the store layer directly, so it is unaffected.  Promotion
    flips this off. *)

val is_readonly : backend -> bool

val execute : worker:int -> backend -> Protocol.request -> Protocol.response
(** [execute ~worker backend req] runs one request; [worker] selects the
    update log (one per query worker, §5).  Never raises: failures come
    back as [Failed].

    When {!Obs.Registry.global} is enabled (the default), every request
    also records its latency and outcome per worker — [ops.<kind>] /
    [ops.failed] counters, [lat_us.<kind>] histograms — and requests
    slower than the trace threshold land in the slow-op ring.  A [Stats]
    request returns a {!Obs.Snapshot.t} of all of it. *)

val execute_batch :
  worker:int -> backend -> Protocol.request list -> Protocol.response list
(** Batches consisting solely of full-value Gets run through the
    pipelined multi-get path (the §4.8 parallel-lookup optimization
    applied to the network stack; on a sharded backend the router fans
    the batch out per shard). *)

val handle_frame : worker:int -> backend -> string -> string
(** [handle_frame ~worker backend body] decodes a request frame body,
    executes it, and encodes the response frame body.  A malformed frame
    yields a single [Failed] response. *)

val execute_frames :
  worker:int ->
  backend ->
  buf:string ->
  frames:(int * int) list ->
  emit:(Protocol.response list -> unit) -> unit
(** Pipelined execution for the reactor: every complete frame that
    arrived in one readable event, decoded in place from the receive
    buffer ([(pos, len)] body spans into [buf]) and executed as one
    batch.  Consecutive frames consisting solely of full-value Gets are
    merged into a single pipelined multi-get spanning the whole
    run — the §4.8 optimization applied across the pipeline window, not
    just within one message.  [emit] is called once per frame, in order;
    a malformed frame emits a single [Failed] response and the stream
    continues. *)
