(* Telemetry handles, resolved once at module load.  Recording is gated
   on the global registry's enabled flag, so a disabled registry costs
   one atomic load per request. *)

let reg = Obs.Registry.global

let kind_names = [| "get"; "put"; "put_cols"; "remove"; "scan"; "stats"; "snap"; "repl" |]

let kind_of = function
  | Protocol.Get _ -> 0
  | Protocol.Put _ -> 1
  | Protocol.Put_cols _ -> 2
  | Protocol.Remove _ -> 3
  | Protocol.Getrange _ | Protocol.Getrange_rev _ -> 4
  | Protocol.Stats -> 5
  | Protocol.Snap_open | Protocol.Snap_read _ | Protocol.Snap_range _
  | Protocol.Snap_close _ ->
      6
  | Protocol.Repl_open | Protocol.Repl_batch _ | Protocol.Repl_ack _
  | Protocol.Repl_status | Protocol.Repl_promote | Protocol.Repl_read _ ->
      7

let key_of = function
  | Protocol.Get { key; _ }
  | Protocol.Put { key; _ }
  | Protocol.Put_cols { key; _ }
  | Protocol.Remove key
  | Protocol.Snap_read { key; _ }
  | Protocol.Repl_read { key; _ } ->
      key
  | Protocol.Getrange { start; _ }
  | Protocol.Getrange_rev { start; _ }
  | Protocol.Snap_range { start; _ } ->
      start
  | Protocol.Stats | Protocol.Snap_open | Protocol.Snap_close _ | Protocol.Repl_open
  | Protocol.Repl_batch _ | Protocol.Repl_ack _ | Protocol.Repl_status
  | Protocol.Repl_promote ->
      ""

let op_counters = Array.map (fun k -> Obs.Registry.counter reg ("ops." ^ k)) kind_names

let lat_histos = Array.map (fun k -> Obs.Registry.histogram reg ("lat_us." ^ k)) kind_names

let failed_counter = Obs.Registry.counter reg "ops.failed"

let batches_counter = Obs.Registry.counter reg "ops.batches"

let multiget_hist = Obs.Registry.histogram reg "lat_us.multiget_batch"

(* The serving target behind a transport: one store, or a sharded tier
   whose router owns key placement, multi_get fan-out, merged scans, and
   the hot-key cache.  Protocol semantics are identical either way — a
   client cannot tell which one it talks to.

   The backend also owns the wire-level snapshot leases: Snap_open pins
   a store (or cross-shard) snapshot and grants a TTL lease on it, so a
   client that dies mid-scan can't wedge version pruning — the periodic
   [sweep_snapshots] (the daemon's timer thread) expires it and closes
   the underlying snapshot.  Any snapshot call renews its lease. *)

type target = Single of Kvstore.Store.t | Sharded of Shard.Router.t

type snap_handle =
  | Snap_single of Kvstore.Store.Snapshot.snap
  | Snap_sharded of Shard.Router.Snapshot.snap

(* [repl_handler] is dependency inversion: lib/repl sits above this
   library (it needs Protocol), so the daemon injects the Repl_* service
   — a Source on the primary, a Replica on a standby — after building
   the backend.  [readonly] is the replica serving contract: client
   writes are rejected until promotion flips it off (replication applies
   through the store layer directly, not through this engine). *)
type backend = {
  target : target;
  leases : snap_handle Mvcc.Lease.t;
  mutable repl_handler : (worker:int -> Protocol.request -> Protocol.response) option;
  mutable readonly : bool;
}

let close_snap_handle = function
  | Snap_single s -> Kvstore.Store.Snapshot.close s
  | Snap_sharded s -> Shard.Router.Snapshot.close s

let default_snap_ttl_us = 30_000_000L

let make_backend ?(snap_ttl_us = default_snap_ttl_us) target =
  {
    target;
    leases =
      Mvcc.Lease.create ~ttl_us:snap_ttl_us
        ~on_expire:(fun _id h -> close_snap_handle h)
        ();
    repl_handler = None;
    readonly = false;
  }

let set_repl_handler b h = b.repl_handler <- Some h

let set_readonly b v = b.readonly <- v

let is_readonly b = b.readonly

let single ?snap_ttl_us s = make_backend ?snap_ttl_us (Single s)

let sharded ?snap_ttl_us r = make_backend ?snap_ttl_us (Sharded r)

let sweep_snapshots b = Mvcc.Lease.sweep b.leases

let open_snapshots b = Mvcc.Lease.count b.leases

module Binio = Xutil.Binio
module Store = Kvstore.Store
module Router = Shard.Router

let snap_err = function
  | Mvcc.Lease.Unknown -> Protocol.Snap_failed Protocol.Snap_unknown
  | Mvcc.Lease.Expired -> Protocol.Snap_failed Protocol.Snap_expired

(* ---- the reply sink ----

   Every read writes its reply straight into the output writer: a
   single store's values are blitted from their stored blocks
   ([Store.write_columns]) and scanned keys from the tree's borrowed key
   buffer; a sharded backend's router hands back column arrays (its hot
   cache holds them), written as they come.  No [Protocol.Value] or
   [Protocol.Range] is built on this path.  The typed entry points
   further down decode what it wrote. *)

let write_view w v columns =
  match v with
  | None -> Protocol.write_absent w
  | Some v ->
      Protocol.begin_value w;
      Store.write_columns w v columns

let write_get ~worker b w key columns =
  match (b.target, columns) with
  | Single s, _ -> write_view w (Store.get_view s key) columns
  | Sharded r, [] -> Protocol.write_value w (Router.get ~worker r key)
  | Sharded r, cols -> Protocol.write_value w (Router.get_columns ~worker r key cols)

let opt_columns = function [] -> None | l -> Some l

(* A [Range] reply: [scan ()] writes the items and returns their count,
   back-patched behind the tag. *)
let write_range w ~limit scan =
  let at = Protocol.begin_range w ~limit in
  let n = scan () in
  Protocol.end_range w at ~limit n

let write_range_single w ~limit columns scan =
  write_range w ~limit (fun () ->
      scan (fun kb klen v ->
          Protocol.write_key w kb klen;
          Store.write_columns w v columns))

let write_range_sharded w ~limit scan =
  write_range w ~limit (fun () ->
      scan (fun k cols ->
          Binio.write_string w k;
          Protocol.write_cols w cols))

(* A descending scan's [start = ""] means from the maximum key. *)
let write_getrange b w ~start ~count ~columns ~rev =
  let rev_start = if String.equal start "" then None else Some start in
  match b.target with
  | Single s ->
      write_range_single w ~limit:count columns (fun f ->
          if rev then Store.getrange_rev_view s ?start:rev_start ~limit:count f
          else Store.getrange_view s ~start ~limit:count f)
  | Sharded r ->
      let columns = opt_columns columns in
      write_range_sharded w ~limit:count (fun f ->
          if rev then Router.getrange_rev r ?start:rev_start ?columns ~limit:count f
          else Router.getrange r ~start ?columns ~limit:count f)

let b_snap_open b =
  let h =
    match b.target with
    | Single s -> Snap_single (Store.Snapshot.open_ s)
    | Sharded r -> Snap_sharded (Router.Snapshot.open_ r)
  in
  Mvcc.Lease.grant b.leases h

(* Snapshot reads run on the handle with the lease {e pinned}
   ([with_lease]): the TTL sweep on the timer thread, or a concurrent
   Snap_close for the same id, may doom the lease mid-request, but the
   underlying snapshot is only closed once the last in-flight request
   unpins — a long scan can never have the horizon advance and prune
   drop entries it is still reading. *)
let write_snap b w snap read =
  match Mvcc.Lease.with_lease b.leases snap read with
  | Ok () -> ()
  | Error e -> Protocol.encode_response w (snap_err e)

let write_snap_read b w ~snap ~key ~columns =
  write_snap b w snap (function
    | Snap_single s -> write_view w (Store.Snapshot.read_view s key) columns
    | Snap_sharded s ->
        Protocol.write_value w
          (match columns with
          | [] -> Router.Snapshot.read s key
          | cols -> Router.Snapshot.read_columns s key cols))

let write_snap_range b w ~snap ~start ~count ~columns =
  write_snap b w snap (function
    | Snap_single s ->
        write_range_single w ~limit:count columns
          (Store.Snapshot.getrange_view s ~start ~limit:count)
    | Snap_sharded s ->
        write_range_sharded w ~limit:count
          (Router.Snapshot.getrange s ~start ?columns:(opt_columns columns) ~limit:count))

let b_snap_close b snap =
  (* The close itself goes through the lease table's [on_expire] — now,
     or at the last unpin if reads are in flight. *)
  match Mvcc.Lease.release b.leases snap with
  | Error e -> snap_err e
  | Ok () -> Protocol.Snap_closed

let is_failed = function Protocol.Failed _ -> true | _ -> false

let typed w resp =
  Protocol.encode_response w resp;
  not (is_failed resp)

(* Write [req]'s reply; false iff the reply is [Failed]. *)
let write_op ~worker b w req =
  match req with
  | (Protocol.Put _ | Protocol.Put_cols _ | Protocol.Remove _) when b.readonly ->
      typed w (Protocol.Failed "read-only replica (promote to accept writes)")
  | Protocol.Repl_open | Protocol.Repl_batch _ | Protocol.Repl_ack _
  | Protocol.Repl_status | Protocol.Repl_promote -> (
      match b.repl_handler with
      | Some h -> typed w (h ~worker req)
      | None -> typed w (Protocol.Failed "replication not enabled"))
  | Protocol.Repl_read { key; columns; floor = _ } -> (
      (* Replicas answer through their handler (floor vs. applied clock);
         a primary is trivially fresh — the floor came from its own
         clock — so it serves the read directly. *)
      match b.repl_handler with
      | Some h -> typed w (h ~worker req)
      | None ->
          write_get ~worker b w key columns;
          true)
  | Protocol.Get { key; columns } ->
      write_get ~worker b w key columns;
      true
  | Protocol.Put { key; columns } ->
      (match b.target with
      | Single s -> Store.put ~worker s key columns
      | Sharded r -> Router.put ~worker r key columns);
      typed w Protocol.Ok_put
  | Protocol.Put_cols { key; updates } ->
      (match b.target with
      | Single s -> Store.put_columns ~worker s key updates
      | Sharded r -> Router.put_columns ~worker r key updates);
      typed w Protocol.Ok_put
  | Protocol.Remove key ->
      typed w
        (Protocol.Removed
           (match b.target with
           | Single s -> Store.remove ~worker s key
           | Sharded r -> Router.remove ~worker r key))
  | Protocol.Getrange { start; count; columns } ->
      write_getrange b w ~start ~count ~columns ~rev:false;
      true
  | Protocol.Getrange_rev { start; count; columns } ->
      write_getrange b w ~start ~count ~columns ~rev:true;
      true
  | Protocol.Stats -> typed w (Protocol.Stats_reply (Obs.Registry.snapshot reg))
  | Protocol.Snap_open -> typed w (Protocol.Snap_opened (b_snap_open b))
  | Protocol.Snap_read { snap; key; columns } ->
      write_snap_read b w ~snap ~key ~columns;
      true
  | Protocol.Snap_range { snap; start; count; columns } ->
      write_snap_range b w ~snap ~start ~count ~columns;
      true
  | Protocol.Snap_close snap -> typed w (b_snap_close b snap)

(* An exception rewinds the writer to the start of the reply and writes
   [Failed] in its place. *)
let write_reply ~worker b w req =
  let mark = Binio.length w in
  try write_op ~worker b w req
  with e ->
    Binio.truncate w mark;
    Protocol.write_failed w (Printexc.to_string e);
    false

(* One request's reply, with its telemetry: when {!Obs.Registry.global}
   is enabled, its [ops.<kind>] count, [lat_us.<kind>] sample, failure
   count and slow-op trace. *)
let reply ~worker b w req =
  if not (Obs.Registry.is_enabled reg) then ignore (write_reply ~worker b w req)
  else begin
    let t0 = Xutil.Clock.now_ns () in
    let ok = write_reply ~worker b w req in
    let dur_us = Int64.to_int (Int64.sub (Xutil.Clock.now_ns ()) t0) / 1000 in
    let k = kind_of req in
    Obs.Registry.incr ~worker op_counters.(k);
    Obs.Registry.observe ~worker lat_histos.(k) dur_us;
    if not ok then Obs.Registry.incr ~worker failed_counter;
    Obs.Trace.maybe_record (Obs.Registry.trace reg) ~worker ~op:kind_names.(k)
      ~key:(key_of req) ~dur_us
  end

(* ---- merged full-value gets ---- *)

let is_full_get = function Protocol.Get { columns = []; _ } -> true | _ -> false

let all_full_gets = function [] -> false | reqs -> List.for_all is_full_get reqs

let get_key = function Protocol.Get { key; _ } -> key | _ -> assert false

type looked_up =
  | Views of Store.view option array
  | Arrays of string array option array
  | Lookup_failed of string

(* One software-pipelined group get (§4.8, docs/BATCHING.md) for the
   keys of [frames] consecutive all-get frames: one interleaved traversal
   instead of independent descents.  The traversal is shared, so
   telemetry records one [ops.batches] per frame, one
   [lat_us.multiget_batch] sample and one [ops.get] per key. *)
let lookup_gets ~worker b keys ~frames =
  let telemetry = Obs.Registry.is_enabled reg in
  if telemetry then Obs.Registry.add ~worker batches_counter frames;
  let t0 = Xutil.Clock.now_ns () in
  match
    match b.target with
    | Single s -> Views (Store.multi_get_views s keys)
    | Sharded r -> Arrays (Router.multi_get ~worker r keys)
  with
  | results ->
      if telemetry then begin
        let dur_us = Int64.to_int (Int64.sub (Xutil.Clock.now_ns ()) t0) / 1000 in
        Obs.Registry.add ~worker op_counters.(0) (Array.length keys);
        Obs.Registry.observe ~worker multiget_hist dur_us;
        Obs.Trace.maybe_record (Obs.Registry.trace reg) ~worker ~op:"multiget"
          ~key:keys.(0) ~dur_us
      end;
      results
  | exception e -> Lookup_failed (Printexc.to_string e)

(* The batch body answering [n] gets whose results start at [first]. *)
let write_gets w looked ~first n =
  Binio.write_varint w n;
  for i = first to first + n - 1 do
    match looked with
    | Views a -> write_view w a.(i) []
    | Arrays a -> Protocol.write_value w a.(i)
    | Lookup_failed msg -> Protocol.write_failed w msg
  done

(* A batch body: a batch made entirely of full-value gets takes the
   group get; any other batch runs request by request. *)
let reply_batch ~worker b w reqs =
  if all_full_gets reqs then begin
    let keys = Array.of_list (List.map get_key reqs) in
    write_gets w (lookup_gets ~worker b keys ~frames:1) ~first:0 (Array.length keys)
  end
  else begin
    if Obs.Registry.is_enabled reg then Obs.Registry.incr ~worker batches_counter;
    Binio.write_varint w (List.length reqs);
    List.iter (reply ~worker b w) reqs
  end

let malformed w = Protocol.encode_responses_into w [ Protocol.Failed "malformed frame" ]

let serve_frames ~worker b ~buf ~frames out =
  let w = Netbuf.Out.writer out in
  let framed write =
    let marker = Netbuf.Out.begin_frame out in
    write ();
    Netbuf.Out.end_frame out marker
  in
  (* A run of consecutive full-value-get frames shares one group get:
     the pipelining client sent independent lookups, so the whole window
     traverses the trie together instead of frame by frame. *)
  let run = ref [] in
  let flush_run () =
    match !run with
    | [] -> ()
    | fs ->
        let fs = List.rev fs in
        run := [];
        let keys = Array.of_list (List.concat_map (List.map get_key) fs) in
        let looked = lookup_gets ~worker b keys ~frames:(List.length fs) in
        let first = ref 0 in
        List.iter
          (fun reqs ->
            let n = List.length reqs in
            framed (fun () -> write_gets w looked ~first:!first n);
            first := !first + n)
          fs
  in
  List.iter
    (fun (pos, len) ->
      match Protocol.decode_requests_sub buf ~pos ~len with
      | exception _ ->
          flush_run ();
          framed (fun () -> malformed w)
      | reqs when all_full_gets reqs -> run := reqs :: !run
      | reqs ->
          flush_run ();
          framed (fun () -> reply_batch ~worker b w reqs))
    frames;
  flush_run ()

let handle_frame ~worker b body =
  let w = Binio.writer () in
  (match Protocol.decode_requests body with
  | reqs -> reply_batch ~worker b w reqs
  | exception _ -> malformed w);
  Binio.contents w

(* ---- typed entry points: decode what the sink wrote ---- *)

let execute ~worker b req =
  let w = Binio.writer () in
  reply ~worker b w req;
  Protocol.decode_response (Binio.reader (Binio.contents w))

let execute_batch ~worker b reqs =
  let w = Binio.writer () in
  reply_batch ~worker b w reqs;
  Protocol.decode_responses (Binio.contents w)

let execute_frames ~worker b ~buf ~frames ~emit =
  let out = Netbuf.Out.create () in
  serve_frames ~worker b ~buf ~frames out;
  let bytes = Binio.contents (Netbuf.Out.writer out) in
  let r = Binio.reader bytes in
  while Binio.remaining r > 0 do
    let len = Binio.read_u32 r in
    emit (Protocol.decode_responses (String.sub bytes r.Binio.pos len));
    r.Binio.pos <- r.Binio.pos + len
  done
