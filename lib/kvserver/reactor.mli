(** Event-driven pipelined server front end.

    The alternative to {!Tcp.serve}'s thread-per-connection loop: N shard
    domains run pollers (epoll on Linux, select elsewhere) over
    non-blocking sockets, an acceptor thread fans connections out
    round-robin, and each connection gets reusable {!Netbuf} read/write
    buffers.  Every complete frame available in one readable event is
    executed as a single pipelined batch — consecutive get-only frames
    share one pipelined [multi_get] (§4.8) — and all the response
    frames are coalesced into one socket write.  Per-connection pending
    output is bounded: past the budget the reactor stops reading that
    connection until it drains (backpressure).

    Per-connection ordering matches the threaded path: responses come
    back one frame per request frame, in request order.

    Telemetry ([Obs.Registry.global]): [net.accepts], [net.closed],
    [net.bytes_in], [net.bytes_out], [net.frames], [net.flushes],
    [net.bad_frames] counters; [net.frames_per_wakeup] histogram;
    [net.connections] and [net.buf_grows] gauges. *)

type t

val start : ?shards:int -> ?out_budget:int -> Tcp.listener -> Engine.backend -> t
(** [start listener backend] runs the reactor on an already-bound
    listener ([shards] event-loop domains, default 2; [out_budget] bytes
    of pending output per connection before backpressure, default 1 MiB).
    The backend is a single store or a sharded tier ({!Engine.backend});
    a sharded tier's router handles key placement and merged scans. *)

val serve :
  ?shards:int -> ?out_budget:int -> ?backlog:int -> Tcp.addr -> Engine.backend -> t
(** Bind + start. *)

val bound_addr : t -> Tcp.addr

val backend : t -> string
(** ["epoll"] or ["select"] — which poller the shards are using. *)

val shutdown : t -> unit
(** Stop accepting, close every connection, join the shard domains. *)
