(* mtd: the Masstree server daemon.

   Serves the §3 protocol over TCP or a Unix socket, with per-worker
   update logs, periodic checkpoints, and recovery on restart.  With
   --shards N the store becomes a sharded tier: N independent store
   instances behind a keyspace router, each shard with its own log
   directory and checkpoints; --hot-keys K adds the front-end hot-key
   cache (Fig 13 skew mitigation) in front of the shards.

     mtd --listen 127.0.0.1:7171 --data /var/tmp/mtd
     mtd --unix /tmp/mtd.sock --data /tmp/mtd --logs 4 --checkpoint-secs 60
     mtd --listen 127.0.0.1:7171 --data /tmp/mtd --shards 4 --hot-keys 1024 *)

open Cmdliner

let rm_rf = Shard.Bootstrap.rm_rf

(* The two front ends (threaded accept loop vs event-driven reactor)
   behind one face for startup/shutdown. *)
type front =
  | Threaded of Kvserver.Tcp.server
  | Reactor of Kvserver.Reactor.t

let front_addr = function
  | Threaded s -> Kvserver.Tcp.bound_addr s
  | Reactor r -> Kvserver.Reactor.bound_addr r

let front_shutdown = function
  | Threaded s -> Kvserver.Tcp.shutdown s
  | Reactor r -> Kvserver.Reactor.shutdown r

(* Replica mode (--replica-of): fresh empty stores bootstrap from the
   primary over the wire and then tail its logs; the engine serves
   bounded-staleness reads and rejects writes until promotion flips it.
   State is always rebuilt from scratch on startup — a replica that was
   down may have missed removes, which a snapshot shows only as absence,
   so stale local state can never be patched (docs/REPLICATION.md). *)
let run_replica ~log ~listener ~data_dir ~n_logs ~n_shards ~snap_ttl_us ~slow_us
    ~use_reactor ~net_domains ~primary ~auto_promote =
  let rdir = Filename.concat data_dir "replica" in
  rm_rf rdir;
  Shard.Bootstrap.mkdir_p rdir;
  let shard_logs =
    Array.init n_shards (fun s ->
        let dir = Filename.concat rdir (Printf.sprintf "shard-%d" s) in
        Shard.Bootstrap.mkdir_p dir;
        Array.init n_logs (fun j ->
            Persist.Logger.create (Filename.concat dir (Printf.sprintf "log-0-%d" j))))
  in
  let stores = Array.map (fun logs -> Kvstore.Store.create ~logs ()) shard_logs in
  let router = if n_shards > 1 then Some (Shard.Router.create stores) else None in
  let route =
    match router with
    | None -> fun _ -> 0
    | Some r -> Shard.Router.shard_of r
  in
  let all_logs = Array.concat (Array.to_list shard_logs) in
  let replica = Repl.Replica.create ~route ~logs:all_logs stores in
  let backend =
    match router with
    | None -> Kvserver.Engine.single ~snap_ttl_us stores.(0)
    | Some r -> Kvserver.Engine.sharded ~snap_ttl_us r
  in
  Kvserver.Engine.set_readonly backend true;
  let on_promote () =
    Kvserver.Engine.set_readonly backend false;
    log "promoted: now accepting writes"
  in
  Kvserver.Engine.set_repl_handler backend (Repl.Replica.handler ~on_promote replica);
  (match router with
  | None -> Kvstore.Store.register_obs stores.(0)
  | Some r -> Shard.Router.register_obs r);
  Repl.Replica.register_obs replica;
  Obs.Trace.set_threshold_us (Obs.Registry.trace Obs.Registry.global) slow_us;
  let server =
    if use_reactor then Reactor (Kvserver.Reactor.start ~shards:net_domains listener backend)
    else Threaded (Kvserver.Tcp.start listener backend)
  in
  (match front_addr server with
  | Kvserver.Tcp.Tcp (h, p) ->
      Printf.printf "mtd replica of %s listening on %s:%d\n%!"
        (match primary with
        | Kvserver.Tcp.Tcp (ph, pp) -> Printf.sprintf "%s:%d" ph pp
        | Kvserver.Tcp.Unix_sock p -> p)
        h p
  | Kvserver.Tcp.Unix_sock p -> Printf.printf "mtd replica listening on %s\n%!" p);
  let stop = Atomic.make false in
  (* Pull-apply-ack driver: one session against the primary, reconnect
     with backoff, optional auto-promotion once the primary is gone. *)
  let driver =
    Thread.create
      (fun () ->
        let client = ref None in
        let drop c =
          (try Kvserver.Tcp.disconnect c with _ -> ());
          client := None
        in
        while not (Atomic.get stop) && not (Repl.Replica.is_promoted replica) do
          match !client with
          | None -> (
              match Kvserver.Tcp.connect primary with
              | c ->
                  log "connected to primary";
                  client := Some c
              | exception _ ->
                  if auto_promote && Repl.Replica.bootstrap_done replica then begin
                    log "primary unreachable; auto-promoting";
                    ignore (Repl.Replica.promote replica);
                    on_promote ()
                  end
                  else Thread.delay 1.0)
          | Some c -> (
              let call req =
                match Kvserver.Tcp.call c [ req ] with
                | [ r ] -> r
                | _ -> Kvserver.Protocol.Failed "bad reply arity"
              in
              match Repl.Replica.step replica ~call with
              | `Continue -> ()
              | `Caught_up -> Thread.delay 0.02
              | `Promoted -> ()
              | `Restart_needed ->
                  (* Local state may now miss records and cannot be
                     patched; a clean restart rebuilds from empty. *)
                  Printf.eprintf
                    "mtd: replication session evicted by primary; restart this \
                     replica to rebuild\n\
                     %!";
                  exit 3
              | `Error m ->
                  Printf.eprintf "mtd: replication error: %s\n%!" m;
                  drop c;
                  Thread.delay 1.0
              | exception (Failure _ | Unix.Unix_error _ | Sys_error _) -> drop c)
        done;
        match !client with Some c -> drop c | None -> ())
      ()
  in
  (* Replicas keep MVCC pruning and snapshot-lease expiry moving but do
     not checkpoint: startup always rebuilds from the primary. *)
  let maint =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Thread.delay 0.2;
          ignore (Kvserver.Engine.sweep_snapshots backend);
          Array.iter Kvstore.Store.prune stores
        done)
      ()
  in
  let quit = ref false in
  let handler _ = quit := true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
  while not !quit do
    Unix.sleepf 0.2
  done;
  print_endline "shutting down";
  Atomic.set stop true;
  Thread.join driver;
  Thread.join maint;
  front_shutdown server;
  Array.iter Kvstore.Store.close stores

let run listen unix_sock data_dir n_logs checkpoint_secs udp_ports stats_interval slow_us
    use_reactor net_domains backlog n_shards hot_keys snap_ttl repl replica_of
    auto_promote verbose =
  let log fmt =
    if verbose then Printf.eprintf (fmt ^^ "\n%!") else Printf.ifprintf stderr fmt
  in
  let n_shards = max 1 n_shards in
  Shard.Bootstrap.mkdir_p data_dir;
  (* Bind the listen socket(s) before touching any on-disk state: a
     startup failure like EADDRINUSE must not leave fresh empty log
     files behind (an empty log used to zero the recovery cutoff and
     make every record in the other logs unrecoverable). *)
  let addr =
    match (unix_sock, listen) with
    | Some path, _ -> Kvserver.Tcp.Unix_sock path
    | None, Some hostport -> (
        match String.index_opt hostport ':' with
        | Some i ->
            Kvserver.Tcp.Tcp
              ( String.sub hostport 0 i,
                int_of_string (String.sub hostport (i + 1) (String.length hostport - i - 1)) )
        | None -> Kvserver.Tcp.Tcp (hostport, 7171))
    | None, None -> Kvserver.Tcp.Tcp ("127.0.0.1", 7171)
  in
  let listener =
    match Kvserver.Tcp.bind ~backlog addr with
    | l -> l
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "mtd: cannot listen: %s\n%!" (Unix.error_message e);
        exit 1
  in
  match replica_of with
  | Some primary_hostport ->
      let primary =
        match String.index_opt primary_hostport ':' with
        | Some i ->
            Kvserver.Tcp.Tcp
              ( String.sub primary_hostport 0 i,
                int_of_string
                  (String.sub primary_hostport (i + 1)
                     (String.length primary_hostport - i - 1)) )
        | None -> Kvserver.Tcp.Tcp (primary_hostport, 7171)
      in
      run_replica
        ~log:(fun s -> log "%s" s)
        ~listener ~data_dir ~n_logs ~n_shards
        ~snap_ttl_us:(Int64.of_float (snap_ttl *. 1e6))
        ~slow_us ~use_reactor ~net_domains ~primary ~auto_promote
  | None ->
  (* Recover every previous incarnation's state (live shard dirs, orphan
     shard dirs from a different --shards, legacy root-dir state), re-home
     it through this incarnation's router under the recovered versions,
     and reclaim the superseded sources once the re-homed dataset is
     durable in the fresh logs.  See Shard.Bootstrap for the contract. *)
  let hot =
    if hot_keys > 0 then
      Some { Shard.Router.default_hot_config with Shard.Router.hot_slots = hot_keys }
    else None
  in
  let boot =
    match
      Shard.Bootstrap.boot ~log:(fun s -> log "%s" s) ?hot ~data_dir ~shards:n_shards
        ~n_logs ()
    with
    | Ok b -> b
    | Error e ->
        Printf.eprintf "%s\n%!" e;
        exit 1
  in
  let stores = boot.Shard.Bootstrap.stores in
  let shard_logs = boot.Shard.Bootstrap.shard_logs in
  let shard_dirs = boot.Shard.Bootstrap.dirs in
  let router = boot.Shard.Bootstrap.router in
  let snap_ttl_us = Int64.of_float (snap_ttl *. 1e6) in
  let backend =
    match router with
    | None -> Kvserver.Engine.single ~snap_ttl_us stores.(0)
    | Some r -> Kvserver.Engine.sharded ~snap_ttl_us r
  in
  (* Replication source (--repl): make every update log shippable and
     answer Repl_* subscriptions on the serving connections. *)
  if repl then begin
    let all_logs = Array.concat (Array.to_list shard_logs) in
    let route =
      match router with None -> fun _ -> 0 | Some r -> Shard.Router.shard_of r
    in
    let src = Repl.Source.create ~route ~logs:all_logs stores in
    Kvserver.Engine.set_repl_handler backend (Repl.Source.handler src);
    Repl.Source.register_obs src;
    log "replication source enabled (%d shippable logs)" (Array.length all_logs)
  end;
  (* Live telemetry: the engine records per-request metrics on its own;
     gauges for the index and log buffers come from the store/router. *)
  (match router with
  | None -> Kvstore.Store.register_obs stores.(0)
  | Some r ->
      Shard.Router.register_obs r;
      log "sharded tier: %d shards, hot-key cache %s" n_shards
        (if hot_keys > 0 then Printf.sprintf "%d slots" hot_keys else "off"));
  Obs.Trace.set_threshold_us (Obs.Registry.trace Obs.Registry.global) slow_us;
  let server =
    if use_reactor then begin
      let r = Kvserver.Reactor.start ~shards:net_domains listener backend in
      log "reactor front end: %d net domain(s), %s poller" net_domains
        (Kvserver.Reactor.backend r);
      Reactor r
    end
    else Threaded (Kvserver.Tcp.start listener backend)
  in
  (match front_addr server with
  | Kvserver.Tcp.Tcp (h, p) -> Printf.printf "mtd listening on %s:%d\n%!" h p
  | Kvserver.Tcp.Unix_sock p -> Printf.printf "mtd listening on %s\n%!" p);
  (* Optional per-core UDP ports (paper §5). *)
  let udp =
    if udp_ports <= 0 then None
    else begin
      let host, base =
        match front_addr server with
        | Kvserver.Tcp.Tcp (h, p) -> (h, p + 1)
        | Kvserver.Tcp.Unix_sock _ -> ("127.0.0.1", 7172)
      in
      let u = Kvserver.Udp.serve ~host ~base_port:base ~workers:udp_ports backend in
      Printf.printf "mtd udp ports: %s\n%!"
        (String.concat "," (List.map string_of_int (Kvserver.Udp.ports u)));
      Some u
    end
  in
  (* Periodic checkpoints, one pass per shard. *)
  let stop = Atomic.make false in
  let stats_thread =
    if stats_interval <= 0.0 then None
    else
      Some
        (Thread.create
           (fun () ->
             while not (Atomic.get stop) do
               Thread.delay stats_interval;
               if not (Atomic.get stop) then
                 Format.eprintf "--- stats %.0fs ---@.%a@." stats_interval
                   Obs.Snapshot.pp
                   (Obs.Registry.snapshot Obs.Registry.global)
             done)
           ())
  in
  (* Checkpoint a shard and reclaim its superseded logs and checkpoints
     (§5 order: rotate, cut, mark, delete — see
     [Kvstore.Store.checkpoint_reclaim]). *)
  let checkpoint_shard i =
    match Kvstore.Store.checkpoint_reclaim stores.(i) ~dir:shard_dirs.(i) ~writers:n_logs with
    | Ok m -> log "checkpoint written: %s" m
    | Error e -> Printf.eprintf "checkpoint failed: %s\n%!" e
  in
  let ckpt_thread =
    Thread.create
      (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          Thread.delay 0.2;
          (* Expire abandoned wire snapshots so a dead client cannot
             wedge version pruning (docs/MVCC.md lease protocol). *)
          let expired = Kvserver.Engine.sweep_snapshots backend in
          if expired > 0 then log "expired %d snapshot lease(s)" expired;
          (* Keep version pruning moving even when the serving path is
             idle (no ops → no epoch ticks → scheduled prunes sit). *)
          Array.iter Kvstore.Store.prune stores;
          let elapsed = float_of_int !i *. 0.2 in
          if checkpoint_secs > 0.0 && elapsed >= checkpoint_secs then begin
            i := 0;
            for s = 0 to n_shards - 1 do
              checkpoint_shard s
            done
          end
          else incr i
        done)
      ()
  in
  (* Run until SIGINT/SIGTERM. *)
  let quit = ref false in
  let handler _ = quit := true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
  while not !quit do
    Unix.sleepf 0.2
  done;
  print_endline "shutting down";
  Atomic.set stop true;
  Thread.join ckpt_thread;
  (match stats_thread with Some t -> Thread.join t | None -> ());
  (match udp with Some u -> Kvserver.Udp.shutdown u | None -> ());
  front_shutdown server;
  Array.iter Kvstore.Store.close stores

let listen_t =
  Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"HOST:PORT" ~doc:"TCP listen address.")

let unix_t =
  Arg.(value & opt (some string) None & info [ "unix" ] ~docv:"PATH" ~doc:"Unix-domain socket path (overrides --listen).")

let data_t =
  Arg.(value & opt string "./mtd-data" & info [ "data" ] ~docv:"DIR" ~doc:"Data directory for logs and checkpoints.")

let logs_t = Arg.(value & opt int 2 & info [ "logs" ] ~docv:"N" ~doc:"Number of per-worker log files (per shard).")

let ckpt_t =
  Arg.(value & opt float 0.0 & info [ "checkpoint-secs" ] ~docv:"S" ~doc:"Checkpoint interval; 0 disables.")

let udp_t =
  Arg.(value & opt int 0 & info [ "udp-ports" ] ~docv:"N" ~doc:"Also serve N per-core UDP ports; 0 disables.")

let stats_t =
  Arg.(value & opt float 0.0 & info [ "stats-interval" ] ~docv:"S" ~doc:"Print a telemetry snapshot to stderr every S seconds; 0 disables.")

let slow_t =
  Arg.(value & opt int 1000 & info [ "slow-us" ] ~docv:"US" ~doc:"Requests slower than US microseconds land in the slow-op trace ring.")

let reactor_t =
  Arg.(value & flag & info [ "reactor" ] ~doc:"Serve with the event-driven reactor (epoll/select, pipelined batches, write coalescing) instead of a thread per connection.")

let net_domains_t =
  Arg.(value & opt int 2 & info [ "net-domains" ] ~docv:"N" ~doc:"Reactor event-loop shard domains (with --reactor).")

let backlog_t =
  Arg.(value & opt int 1024 & info [ "backlog" ] ~docv:"N" ~doc:"Listen backlog.")

let shards_t =
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc:"Serve a sharded tier of N store instances behind a keyspace router, each with its own log directory (data/shard-<i>).  1 = single shared store (default).  Changing N re-homes recovered keys on startup.")

let hot_keys_t =
  Arg.(value & opt int 0 & info [ "hot-keys" ] ~docv:"K" ~doc:"With --shards: front-end hot-key cache slots (top-K keys served without touching their shard; invalidated on write).  0 disables.")

let snap_ttl_t =
  Arg.(value & opt float 30.0 & info [ "snap-ttl" ] ~docv:"S" ~doc:"Snapshot lease TTL in seconds: a wire snapshot untouched for this long is expired and closed so a dead client cannot wedge version pruning.")

let repl_t =
  Arg.(value & flag & info [ "repl" ] ~doc:"Serve replication subscriptions: retain a bounded in-memory tail of each update log and answer Repl_* requests (snapshot bootstrap + log shipping) on the normal serving connections.")

let replica_of_t =
  Arg.(value & opt (some string) None & info [ "replica-of" ] ~docv:"HOST:PORT" ~doc:"Run as a read-only replica of the given primary: rebuild fresh local state, bootstrap over the wire, tail the primary's logs, and serve bounded-staleness reads.  Promote with mtclient repl-promote (or --auto-promote).")

let auto_promote_t =
  Arg.(value & flag & info [ "auto-promote" ] ~doc:"With --replica-of: if the primary becomes unreachable after bootstrap completes, promote automatically and start accepting writes.")

let verbose_t = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")

let cmd =
  Cmd.v
    (Cmd.info "mtd" ~doc:"Masstree key-value server daemon")
    Term.(
      const run $ listen_t $ unix_t $ data_t $ logs_t $ ckpt_t $ udp_t $ stats_t
      $ slow_t $ reactor_t $ net_domains_t $ backlog_t $ shards_t $ hot_keys_t
      $ snap_ttl_t $ repl_t $ replica_of_t $ auto_promote_t $ verbose_t)

let () = exit (Cmd.eval cmd)
