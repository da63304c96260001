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

val serve_frames :
  worker:int -> backend -> buf:string -> frames:(int * int) list -> Netbuf.Out.t -> unit
(** The serving path, which the reactor runs: every complete frame that
    arrived in one readable event, decoded in place from the receive
    buffer ([(pos, len)] body spans into [buf]), executed, and answered
    in order, one length-prefixed response frame per request frame
    written straight into the connection's output buffer.

    Replies are written, never built: a single store's values are
    blitted from their stored blocks ({!Kvstore.Store.write_columns}),
    scanned keys from the tree's borrowed key buffer, and a [Range]
    count is back-patched as a varint padded to the width of the
    request's limit (docs/PROTOCOL.md).  A sharded backend's router
    returns column arrays (its hot cache holds them), written as they
    come.  An exception while a request runs rewinds the buffer to the
    start of that reply and writes [Failed] in its place.

    Consecutive frames consisting solely of full-value Gets share one
    pipelined multi-get spanning the whole run — the §4.8 optimization
    applied across the pipeline window, not just within one message (on
    a sharded backend the router fans it out per shard).  A malformed
    frame is answered with a single [Failed] and the stream continues.

    When {!Obs.Registry.global} is enabled (the default), every request
    records its latency and outcome per worker — [ops.<kind>] /
    [ops.failed] counters, [lat_us.<kind>] histograms — and requests
    slower than the trace threshold land in the slow-op ring; a merged
    get run records one [lat_us.multiget_batch] sample, one
    [ops.batches] per frame and one [ops.get] per key.  [worker] selects
    the update log (one per query worker, §5). *)

val handle_frame : worker:int -> backend -> string -> string
(** [handle_frame ~worker backend body] answers one request frame body
    with its response frame body through the same path as
    {!serve_frames} (a batch of full-value Gets takes the multi-get).
    A malformed frame yields a single [Failed] response. *)

(** {1 Typed entry points}

    Thin adapters over the serving path: they run it into a scratch
    buffer and decode what it wrote, so they share its semantics
    exactly.  Never raise: failures come back as [Failed]. *)

val execute : worker:int -> backend -> Protocol.request -> Protocol.response
(** One request.  A [Stats] request returns a {!Obs.Snapshot.t} of the
    telemetry. *)

val execute_batch :
  worker:int -> backend -> Protocol.request list -> Protocol.response list
(** One batch, as {!handle_frame} runs it. *)

val execute_frames :
  worker:int ->
  backend ->
  buf:string ->
  frames:(int * int) list ->
  emit:(Protocol.response list -> unit) -> unit
(** {!serve_frames}, with [emit] called once per frame, in order, on the
    decoded responses. *)
