(** Wire protocol (§3, §5).

    Requests and responses travel in {e batches}: "a single client message
    can include many queries", which is what amortizes network cost in the
    paper's benchmarks (batched gets are the difference between memcached
    keeping up and falling behind, §7).

    A frame is [u32 length | varint count | count messages]; each message
    is a tagged body.  Column lists select subsets of a value's columns
    ([[]] = all columns). *)

type request =
  | Get of { key : string; columns : int list }
  | Put of { key : string; columns : string array } (** full-value put *)
  | Put_cols of { key : string; updates : (int * string) list }
  | Remove of string
  | Getrange of { start : string; count : int; columns : int list }
  | Getrange_rev of { start : string; count : int; columns : int list }
      (** descending scan; [start = ""] means from the maximum key *)
  | Stats
      (** telemetry snapshot: live op counters, latency percentiles,
          index/logger metrics, recent slow ops (lib/obs) *)
  | Snap_open
      (** pin a server-side snapshot (docs/MVCC.md); the reply's id names
          it in the calls below.  The server leases the handle: it
          expires after a TTL of disuse so a dead client can't wedge
          version pruning.  Any snapshot call on the lease renews it. *)
  | Snap_read of { snap : int64; key : string; columns : int list }
  | Snap_range of { snap : int64; start : string; count : int; columns : int list }
      (** consistent ascending scan at the snapshot's cut *)
  | Snap_close of int64
  | Repl_open
      (** subscribe a replica (docs/REPLICATION.md): the primary captures
          every log's tail cursor, {e then} pins a bootstrap snapshot —
          the overlap means a record can arrive twice (snapshot and
          tail), never zero times; the per-key version guard dedups *)
  | Repl_batch of { session : int64; max_bytes : int }
      (** pull the next batch of record frames for the session *)
  | Repl_ack of { session : int64; applied : int64 array }
      (** report the replica's per-shard applied version clock; lets the
          primary trim its tail retention and report lag *)
  | Repl_status (** replication role/horizon/lag (both roles answer) *)
  | Repl_promote
      (** seal a replica's tail and flip it to primary (writes accepted
          after the reply) *)
  | Repl_read of { key : string; columns : int list; floor : int64 }
      (** bounded-staleness read: answered only if the owning shard's
          applied clock is [>= floor], else {!Repl_stale} *)

(** Where a {!Repl_records} batch came from: the bootstrap snapshot feed,
    the live log tail, or [Repl_restart] — the primary evicted frames the
    session had not consumed (or restarted); the replica must rebuild
    from a fresh subscription. *)
type repl_phase = Repl_snapshot | Repl_tail | Repl_restart

type repl_peer = {
  peer_session : int64;
  peer_lag : int; (** retained records past the peer's cursor, all logs *)
  peer_applied : int64 array; (** per-shard clock from the peer's last ack *)
}

type repl_status = {
  repl_role : string; (** "primary" | "replica" *)
  repl_applied : int64 array; (** this node's per-shard version clock *)
  repl_horizon : int array; (** per-log shipping horizon (next tail seq) *)
  repl_retained : int; (** bytes retained across tail rings *)
  repl_peers : repl_peer list; (** subscribed replicas (primary only) *)
}

(** Why a snapshot id stopped working: [Snap_expired] — the lease existed
    and timed out (reopen and retry); [Snap_unknown] — never granted by
    this server process, notably any id from before a restart (snapshots
    do not survive restarts: the client gets this typed error, never a
    torn cut). *)
type snap_error = Snap_unknown | Snap_expired

val snap_error_to_string : snap_error -> string

type response =
  | Value of string array option (** for Get and Snap_read *)
  | Ok_put (** for Put / Put_cols *)
  | Removed of bool (** for Remove *)
  | Range of (string * string array) list (** for Getrange and Snap_range *)
  | Failed of string
  | Stats_reply of Obs.Snapshot.t (** for Stats *)
  | Snap_opened of int64 (** for Snap_open *)
  | Snap_closed (** for Snap_close *)
  | Snap_failed of snap_error (** for any Snap_* call on a dead id *)
  | Repl_opened of { session : int64; versions : int64 array }
      (** session id + the pinned bootstrap snapshot's per-shard cut *)
  | Repl_records of { phase : repl_phase; frames : string list; done_ : bool }
      (** [frames] are {!Persist.Logrec} frames with their CRC framing
          intact — the replica re-verifies each before applying.
          [done_] in the snapshot phase marks bootstrap complete. *)
  | Repl_acked
  | Repl_status_reply of repl_status
  | Repl_promoted of { versions : int64 array } (** adopted per-shard clock *)
  | Repl_stale of { applied : int64 }
      (** the shard's applied clock was below the requested floor *)

val encode_requests : request list -> string
(** A complete frame. *)

val encode_responses : response list -> string

val decode_requests : string -> request list
(** Decodes a frame body (without the length prefix).
    @raise Xutil.Binio.Truncated on malformed input. *)

val decode_responses : string -> response list

val encode_responses_into : Xutil.Binio.writer -> response list -> unit
(** Encode a response batch body into an existing writer — the reactor's
    per-connection output buffer — instead of allocating a fresh string
    per frame.  The caller writes the length prefix itself (reserve 4
    bytes, encode, {!Xutil.Binio.patch_u32}). *)

(** {2 Reply sink}

    The server writes replies piece by piece, straight from stored bytes
    into the connection's output buffer, in exactly the encoding
    {!encode_responses} gives the typed {!response}s (docs/PROTOCOL.md).
    A batch body is a varint count, then the replies. *)

val encode_response : Xutil.Binio.writer -> response -> unit
(** One typed reply. *)

val decode_response : Xutil.Binio.reader -> response

val write_absent : Xutil.Binio.writer -> unit
(** [Value None]. *)

val begin_value : Xutil.Binio.writer -> unit
(** The tag of [Value (Some _)]; the column list follows. *)

val write_value : Xutil.Binio.writer -> string array option -> unit

val write_cols : Xutil.Binio.writer -> string array -> unit
(** A column list: varint count, then each column as a string. *)

val begin_range : Xutil.Binio.writer -> limit:int -> int
(** The tag of [Range _] and room for its count, padded to the width of
    [limit] ({!Xutil.Binio.varint_size}); returns the count's position.
    Each item follows as {!write_key} (or a string) and a column list. *)

val end_range : Xutil.Binio.writer -> int -> limit:int -> int -> unit
(** [end_range w pos ~limit n] back-patches the count [n <= limit] as a
    varint padded to [limit]'s width — for limits below 128 the bytes
    {!encode_responses} writes. *)

val write_key : Xutil.Binio.writer -> Bytes.t -> int -> unit
(** [write_key w buf len]: the key [buf.[0 .. len)] as a string. *)

val write_failed : Xutil.Binio.writer -> string -> unit

val decode_requests_sub : string -> pos:int -> len:int -> request list
(** [decode_requests_sub buf ~pos ~len] decodes a frame body sitting at
    [\[pos, pos+len)] inside a larger receive buffer, in place.
    @raise Xutil.Binio.Truncated if the body is malformed or its encoding
    strays past [len] (e.g. into the next pipelined frame). *)

(** Frame IO helpers over file descriptors (blocking). *)

val write_frame : Unix.file_descr -> string -> unit
(** [write_frame fd body] sends [u32 length | body]. *)

val write_frames : Unix.file_descr -> string list -> unit
(** Send several frames with one coalesced write — a pipelining client's
    burst becomes one syscall (and, with TCP_NODELAY, one packet instead
    of one per frame). *)

val read_frame : Unix.file_descr -> string option
(** [read_frame fd] reads one frame body; [None] on clean EOF. *)

val pp_request : Format.formatter -> request -> unit
