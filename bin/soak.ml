(* soak: randomized multi-domain stress with invariant checking.

   Drives a logged store with a mixed workload (gets, full puts, column
   updates, removes, range scans) from several domains, optionally
   checkpointing concurrently, then:

     1. runs the deep structural invariant check on the index;
     2. verifies every key a per-domain oracle believes it owns;
     3. crash-recovers from the logs + checkpoints into a fresh store and
        verifies the recovered state contains every oracle-owned key.

   Exit code 0 = clean; anything else prints what broke.  Useful as a CI
   soak and when hacking on the concurrency protocol.

     dune exec bin/soak.exe -- --seconds 10 --domains 4 --keys 50000

   With --net threaded|reactor the same workload travels over a real
   server front end on a Unix socket, each domain keeping --pipeline
   frames in flight; oracle expectations are captured at send time, which
   is exactly the per-connection ordering guarantee the server makes.

   With --shards N the target is the sharded tier (keyspace router over N
   stores, hot-key cache enabled), direct or behind --net; --zipf THETA
   skews the key draw so the hot-key cache actually fills and its
   invalidation protocol is exercised under oracle checking. *)

open Cmdliner

let run seconds domains keyspace checkpoint_every stats_interval net pipeline n_shards
    zipf_theta replica_mode verbose =
  let n_shards = max 1 n_shards in
  (* Removed on success; kept (and printed) when an oracle fails. *)
  let dir = Xutil.Tmpdir.fresh "soak" in
  (* A data directory per shard, laid out like the daemon's, with one
     log per domain so ~worker:d maps to a private log in every shard
     (shard 0 doubles as the single-store target). *)
  let shard_dirs =
    Array.init n_shards (fun s ->
        let d = Filename.concat dir (Printf.sprintf "shard-%d" s) in
        Unix.mkdir d 0o755;
        d)
  in
  let shard_loggers =
    Array.map
      (fun sd ->
        Array.init domains (fun d ->
            Persist.Logger.create (Filename.concat sd (Printf.sprintf "log-0-%d" d))))
      shard_dirs
  in
  let stores = Array.map (fun logs -> Kvstore.Store.create ~logs ()) shard_loggers in
  let store = stores.(0) in
  let router =
    if n_shards = 1 then None
    else Some (Shard.Router.create ~hot:Shard.Router.default_hot_config stores)
  in
  if verbose then
    Printf.printf "soak: %d domains, %ds, keyspace %d, %d shard(s), zipf %.2f, data in %s\n%!"
      domains seconds keyspace n_shards zipf_theta dir;
  (* Each domain owns a disjoint key slice so it can keep an exact oracle
     of its own keys while everyone also reads/scans the shared space. *)
  let oracles = Array.init domains (fun _ -> Hashtbl.create 1024) in
  let op_counts = Array.make domains 0 in
  let stop = Atomic.make false in
  (* Soak drives the store directly (no network engine), so the live
     telemetry here is the index gauges + logger metrics. *)
  (match router with
  | None -> Kvstore.Store.register_obs store
  | Some r -> Shard.Router.register_obs r);
  let zipf =
    if zipf_theta > 0.0 then Some (Workload.Zipf.create ~theta:zipf_theta ~n:keyspace ())
    else None
  in
  let draw rng =
    match zipf with Some z -> Workload.Zipf.scramble z rng | None -> Xutil.Rng.int rng keyspace
  in
  let stats_thread =
    if stats_interval <= 0.0 then None
    else
      Some
        (Thread.create
           (fun () ->
             while not (Atomic.get stop) do
               Thread.delay stats_interval;
               if not (Atomic.get stop) then
                 Format.eprintf "--- stats ---@.%a@." Obs.Snapshot.pp
                   (Obs.Registry.snapshot Obs.Registry.global)
             done)
           ())
  in
  (* Checkpoints reclaim as the daemon's do (rotate, cut, mark, delete),
     so the recovery oracle below also covers writes acknowledged while
     a checkpoint runs and its superseded logs are deleted. *)
  let ckpt_thread =
    Thread.create
      (fun () ->
        let n = ref 0 in
        while not (Atomic.get stop) do
          Thread.delay 0.1;
          if checkpoint_every > 0.0 && float_of_int !n *. 0.1 >= checkpoint_every then begin
            n := 0;
            Array.iteri
              (fun s st ->
                match Kvstore.Store.checkpoint_reclaim st ~dir:shard_dirs.(s) ~writers:2 with
                | Ok m -> if verbose then Printf.printf "  checkpoint %s\n%!" m
                | Error e -> Printf.eprintf "checkpoint failed: %s\n%!" e)
              stores
          end
          else incr n
        done)
      ()
  in
  let failures = Atomic.make 0 in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Atomic.incr failures;
        Printf.eprintf "SOAK FAILURE: %s\n%!" m)
      fmt
  in
  (* --replica: an in-process log-shipping replica bootstraps from the
     live tier and tails it for the whole run, racing every writer; at
     the end it drains to lag 0 and its contents are diffed against the
     quiesced primary (the strongest oracle the subsystem offers), then
     it is promoted and re-verified — kill-and-promote with zero lost or
     resurrected keys (docs/REPLICATION.md). *)
  let route_key =
    match router with None -> fun _ -> 0 | Some r -> Shard.Router.shard_of r
  in
  let repl =
    if not replica_mode then None
    else begin
      let src =
        Repl.Source.create ~route:route_key
          ~logs:(Array.concat (Array.to_list shard_loggers))
          stores
      in
      (* Replica stores are unlogged: soak checks replication fidelity,
         not replica durability (lib/repl's torture covers that). *)
      let make_replica () =
        let rstores = Array.init n_shards (fun _ -> Kvstore.Store.create ()) in
        (rstores, Repl.Replica.create ~route:route_key ~logs:[||] rstores)
      in
      let state = ref (make_replica ()) in
      let call req = Repl.Source.handler src ~worker:0 req in
      let restarts = ref 0 in
      let thread =
        Thread.create
          (fun () ->
            while not (Atomic.get stop) do
              let _, rep = !state in
              match Repl.Replica.step rep ~call with
              | `Continue -> ()
              | `Caught_up -> Thread.delay 0.005
              | `Restart_needed ->
                  (* Fell off the bounded tail ring under write pressure:
                     the contract is rebuild-from-empty, so do exactly
                     that and keep going. *)
                  incr restarts;
                  state := make_replica ()
              | `Error m ->
                  fail "replica: %s" m;
                  Thread.delay 0.1
              | `Promoted -> Thread.delay 0.1
            done)
          ()
      in
      if verbose then Printf.printf "soak: in-process replica subscribed\n%!";
      Some (src, state, call, thread, restarts)
    end
  in
  (* Direct-mode ops against whichever tier we target; the router calls
     go through the hot-key cache exactly like served traffic. *)
  let s_get, s_put, s_put_cols, s_remove, s_getrange =
    match router with
    | None ->
        ( (fun _ k -> Kvstore.Store.get store k),
          (fun d k v -> Kvstore.Store.put ~worker:d store k v),
          (fun d k u -> Kvstore.Store.put_columns ~worker:d store k u),
          (fun d k -> ignore (Kvstore.Store.remove ~worker:d store k)),
          fun k f -> ignore (Kvstore.Store.getrange store ~start:k ~limit:20 f) )
    | Some r ->
        ( (fun d k -> Shard.Router.get ~worker:d r k),
          (fun d k v -> Shard.Router.put ~worker:d r k v),
          (fun d k u -> Shard.Router.put_columns ~worker:d r k u),
          (fun d k -> ignore (Shard.Router.remove ~worker:d r k)),
          fun k f -> ignore (Shard.Router.getrange r ~start:k ~limit:20 f) )
  in
  (* A pinned snapshot session against whichever tier we target:
     (read, close).  Used by the snapshot oracle below. *)
  let snap_session () =
    match router with
    | None ->
        let s = Kvstore.Store.Snapshot.open_ store in
        ( (fun k -> Kvstore.Store.Snapshot.read s k),
          fun () -> Kvstore.Store.Snapshot.close s )
    | Some r ->
        let s = Shard.Router.Snapshot.open_ r in
        ( (fun k -> Shard.Router.Snapshot.read s k),
          fun () -> Shard.Router.Snapshot.close s )
  in
  (* Snapshot oracle: freeze a shadow copy of this domain's oracle, pin a
     snapshot, churn some of the domain's own keys so the cut diverges
     from the live state, then diff snapshot reads against the shadow.
     Only this domain writes its keys, so the shadow is exactly the cut. *)
  let snap_check d rng oracle my_key churn =
    let shadow = Hashtbl.copy oracle in
    let read, close = snap_session () in
    for _ = 1 to 5 do
      churn (my_key (draw rng))
    done;
    for _ = 1 to 20 do
      let k = my_key (draw rng) in
      if read k <> Hashtbl.find_opt shadow k then
        fail "domain %d: snapshot diverged from shadow on %s" d k
    done;
    close ()
  in
  (* Optional network front end: same tier, served over a Unix socket. *)
  let backend =
    match router with
    | None -> Kvserver.Engine.single store
    | Some r -> Kvserver.Engine.sharded r
  in
  let sock_path = Filename.concat dir "soak.sock" in
  let server =
    match net with
    | "off" -> None
    | "threaded" ->
        Some (`Threaded (Kvserver.Tcp.serve (Kvserver.Tcp.Unix_sock sock_path) backend))
    | "reactor" ->
        Some
          (`Reactor
            (Kvserver.Reactor.serve ~shards:(max 1 (domains / 2))
               (Kvserver.Tcp.Unix_sock sock_path) backend))
    | other ->
        Printf.eprintf "soak: --net must be off|threaded|reactor, not %S\n" other;
        Xutil.Tmpdir.rm_rf dir;
        exit 2
  in
  if verbose && server <> None then
    Printf.printf "soak: traffic via --net %s (pipeline %d) on %s\n%!" net pipeline
      sock_path;
  (* Mixed workload over the wire: one frame per op, up to [pipeline]
     frames in flight per connection.  Each validator captures the oracle
     expectation at send time; the server's per-connection in-order
     execution makes that the correct expectation at execute time. *)
  let net_loop d rng oracle my_key deadline =
    let module P = Kvserver.Protocol in
    let c = Kvserver.Tcp.connect (Kvserver.Tcp.Unix_sock sock_path) in
    let fd = Kvserver.Tcp.client_fd c in
    let inflight : (P.response list -> unit) Queue.t = Queue.create () in
    let recv_one () =
      match P.read_frame fd with
      | Some body -> (Queue.pop inflight) (P.decode_responses body)
      | None -> failwith "soak: server closed connection"
    in
    let send req validate =
      P.write_frame fd (P.encode_requests [ req ]);
      Queue.push validate inflight;
      while Queue.length inflight >= max 1 pipeline do
        recv_one ()
      done
    in
    while Int64.compare (Xutil.Clock.now_ns ()) deadline < 0 do
      op_counts.(d) <- op_counts.(d) + 1;
      let i = draw rng in
      let k = my_key i in
      match Xutil.Rng.int rng 100 with
      | p when p < 30 ->
          let expected = Hashtbl.find_opt oracle k in
          send
            (P.Get { key = k; columns = [] })
            (function
              | [ P.Value got ] ->
                  let matches =
                    match (expected, got) with
                    | None, None -> true
                    | Some v, Some g -> g = v
                    | _ -> false
                  in
                  if not matches then fail "domain %d: net oracle mismatch on %s" d k
              | _ -> fail "domain %d: unexpected get reply for %s" d k)
      | p when p < 55 ->
          let v = [| string_of_int (Xutil.Rng.int rng 1000); string_of_int d |] in
          Hashtbl.replace oracle k v;
          send
            (P.Put { key = k; columns = v })
            (function
              | [ P.Ok_put ] -> () | _ -> fail "domain %d: put failed for %s" d k)
      | p when p < 70 ->
          let ci = Xutil.Rng.int rng 4 in
          let data = string_of_int (Xutil.Rng.int rng 100) in
          let base = match Hashtbl.find_opt oracle k with Some v -> v | None -> [||] in
          let w = max (Array.length base) (ci + 1) in
          let merged = Array.make w "" in
          Array.blit base 0 merged 0 (Array.length base);
          merged.(ci) <- data;
          Hashtbl.replace oracle k merged;
          send
            (P.Put_cols { key = k; updates = [ (ci, data) ] })
            (function
              | [ P.Ok_put ] -> () | _ -> fail "domain %d: put_cols failed for %s" d k)
      | p when p < 85 ->
          Hashtbl.remove oracle k;
          send (P.Remove k) (function
            | [ P.Removed _ ] -> ()
            | _ -> fail "domain %d: remove failed for %s" d k)
      | p when p < 95 ->
          let other = Xutil.Rng.int rng domains in
          send
            (P.Get { key = Printf.sprintf "d%d-%06d" other i; columns = [] })
            (fun _ -> ())
      | p when p < 98 ->
          send
            (P.Getrange { start = k; count = 20; columns = [] })
            (function
              | [ P.Range items ] ->
                  let prev = ref "" in
                  List.iter
                    (fun (k', _) ->
                      if !prev <> "" && String.compare k' !prev <= 0 then
                        fail "domain %d: net scan order violation at %s" d k';
                      prev := k')
                    items
              | _ -> fail "domain %d: unexpected scan reply" d)
      | _ ->
          (* Snapshot oracle over the wire.  Drain the pipeline first so
             the shadow copy is exactly the server state at Snap_open
             (per-connection ordering makes the open a sync point). *)
          while not (Queue.is_empty inflight) do
            recv_one ()
          done;
          let sync req =
            P.write_frame fd (P.encode_requests [ req ]);
            match P.read_frame fd with
            | Some body -> P.decode_responses body
            | None -> failwith "soak: server closed connection"
          in
          let shadow = Hashtbl.copy oracle in
          (match sync P.Snap_open with
          | [ P.Snap_opened snap ] ->
              (* Churn this domain's keys so the cut diverges. *)
              for _ = 1 to 5 do
                let k' = my_key (draw rng) in
                let v =
                  [| string_of_int (Xutil.Rng.int rng 1000); string_of_int d |]
                in
                Hashtbl.replace oracle k' v;
                match sync (P.Put { key = k'; columns = v }) with
                | [ P.Ok_put ] -> ()
                | _ -> fail "domain %d: snap churn put failed for %s" d k'
              done;
              for _ = 1 to 20 do
                let k' = my_key (draw rng) in
                match sync (P.Snap_read { snap; key = k'; columns = [] }) with
                | [ P.Value got ] ->
                    if got <> Hashtbl.find_opt shadow k' then
                      fail "domain %d: net snapshot diverged from shadow on %s" d
                        k'
                | [ P.Snap_failed e ] ->
                    fail "domain %d: snap read failed: %s" d
                      (P.snap_error_to_string e)
                | _ -> fail "domain %d: unexpected snap read reply" d
              done;
              (match sync (P.Snap_close snap) with
              | [ P.Snap_closed ] -> ()
              | _ -> fail "domain %d: snap close failed" d)
          | _ -> fail "domain %d: snap open failed" d)
    done;
    while not (Queue.is_empty inflight) do
      recv_one ()
    done;
    Kvserver.Tcp.disconnect c
  in
  ignore
    (Xutil.Domain_pool.run domains (fun d ->
         let rng = Xutil.Rng.create (Int64.of_int (0xBEEF + d)) in
         let oracle = oracles.(d) in
         let my_key i = Printf.sprintf "d%d-%06d" d i in
         let deadline =
           Int64.add (Xutil.Clock.now_ns ()) (Int64.of_float (float_of_int seconds *. 1e9))
         in
         if server <> None then net_loop d rng oracle my_key deadline
         else
         while Int64.compare (Xutil.Clock.now_ns ()) deadline < 0 do
           op_counts.(d) <- op_counts.(d) + 1;
           let i = draw rng in
           let k = my_key i in
           match Xutil.Rng.int rng 100 with
           | p when p < 30 ->
               (* own-key get checked against the oracle *)
               let expected = Hashtbl.find_opt oracle k in
               let got = s_get d k in
               let matches =
                 match (expected, got) with
                 | None, None -> true
                 | Some v, Some g -> g = v
                 | _ -> false
               in
               if not matches then fail "domain %d: oracle mismatch on %s" d k
           | p when p < 55 ->
               let v = [| string_of_int (Xutil.Rng.int rng 1000); string_of_int d |] in
               s_put d k v;
               Hashtbl.replace oracle k v
           | p when p < 70 ->
               let c = Xutil.Rng.int rng 4 in
               let data = string_of_int (Xutil.Rng.int rng 100) in
               s_put_cols d k [ (c, data) ];
               let base =
                 match Hashtbl.find_opt oracle k with Some v -> v | None -> [||]
               in
               let w = max (Array.length base) (c + 1) in
               let merged = Array.make w "" in
               Array.blit base 0 merged 0 (Array.length base);
               merged.(c) <- data;
               Hashtbl.replace oracle k merged
           | p when p < 85 ->
               s_remove d k;
               Hashtbl.remove oracle k
           | p when p < 95 ->
               (* cross-domain read: just must not crash or return junk *)
               let other = Xutil.Rng.int rng domains in
               ignore (s_get d (Printf.sprintf "d%d-%06d" other i))
           | p when p < 98 ->
               (* ordered scan over the shared space (cross-shard merged
                  when the target is the router) *)
               let prev = ref "" in
               s_getrange k (fun k' _ ->
                   if !prev <> "" && String.compare k' !prev <= 0 then
                     fail "domain %d: scan order violation at %s" d k';
                   prev := k')
           | _ ->
               snap_check d rng oracle my_key (fun k' ->
                   let v =
                     [| string_of_int (Xutil.Rng.int rng 1000); string_of_int d |]
                   in
                   s_put d k' v;
                   Hashtbl.replace oracle k' v)
         done));
  Atomic.set stop true;
  Thread.join ckpt_thread;
  (match stats_thread with Some t -> Thread.join t | None -> ());
  (match server with
  | Some (`Threaded s) -> Kvserver.Tcp.shutdown s
  | Some (`Reactor r) -> Kvserver.Reactor.shutdown r
  | None -> ());
  let total_ops = Array.fold_left ( + ) 0 op_counts in
  Printf.printf "soak: %d ops across %d domains\n%!" total_ops domains;
  (match router with
  | Some r when verbose -> (
      match Shard.Router.hot_stats r with
      | Some st ->
          Printf.printf "  hot cache: %d hits, %d misses, %d fills, %d invalidations\n%!"
            st.Shard.Hotcache.s_hits st.Shard.Hotcache.s_misses st.Shard.Hotcache.s_fills
            st.Shard.Hotcache.s_invalidations
      | None -> ())
  | _ -> ());
  (* 1. structural invariants (all shards) *)
  (match
     (match router with Some r -> Shard.Router.check r | None -> Kvstore.Store.check store)
   with
  | Ok () -> ()
  | Error m -> fail "structural check: %s" m);
  (* 1b. node-arena leak oracle: after quiescing, every pool cell and
     suffix blob still counted live must be reachable from its tree
     (allocs == frees + live), and no deferred free may be stuck *)
  (match
     (match router with
     | Some r -> Shard.Router.pool_consistency r
     | None ->
         Kvstore.Store.maintain store;
         Kvstore.Store.pool_consistency store)
   with
  | Ok () -> ()
  | Error m -> fail "pool leak check: %s" m);
  (* 2. final oracle verification — through the router (and its cache)
     when sharded, so cache staleness would be caught here too *)
  let final_get k =
    match router with Some r -> Shard.Router.get r k | None -> Kvstore.Store.get store k
  in
  Array.iteri
    (fun d oracle ->
      Hashtbl.iter
        (fun k v -> if final_get k <> Some v then fail "domain %d: final state lost %s" d k)
        oracle)
    oracles;
  (* 2b. replica fidelity at the quiesced cut + kill-and-promote *)
  (match repl with
  | None -> ()
  | Some (_src, state, call, thread, restarts) ->
      Thread.join thread;
      (* Writers are quiesced; drain the tail to lag 0 (one rebuild
         allowed in case the ring evicted us right at the end). *)
      let rec drained attempts =
        let _, rep = !state in
        match Repl.Replica.catch_up rep ~call with
        | `Caught_up -> true
        | `Restart_needed when attempts > 0 ->
            incr restarts;
            state :=
              (let rstores = Array.init n_shards (fun _ -> Kvstore.Store.create ()) in
               (rstores, Repl.Replica.create ~route:route_key ~logs:[||] rstores));
            drained (attempts - 1)
        | `Restart_needed -> fail "replica: could not converge (ring eviction loop)"; false
        | `Error m -> fail "replica drain: %s" m; false
        | `Promoted -> fail "replica: promoted before drain"; false
        | `Gave_up -> fail "replica: gave up before lag 0"; false
      in
      if drained 2 then begin
        let rstores, rep = !state in
        (* Pinned-cut equality: per shard, the replica must hold exactly
           the primary's live bindings — nothing lost, nothing
           resurrected (a missed remove shows up here as an extra key). *)
        let dump st =
          let h = Hashtbl.create 4096 in
          ignore
            (Kvstore.Store.getrange st ~start:"" ~limit:max_int (fun k v ->
                 Hashtbl.replace h k v));
          h
        in
        let diff s a b =
          Hashtbl.iter
            (fun k v ->
              match Hashtbl.find_opt b k with
              | Some v' when v' = v -> ()
              | Some _ -> fail "replica shard %d: wrong value for %s" s k
              | None -> fail "replica shard %d: lost %s" s k)
            a;
          Hashtbl.iter
            (fun k _ ->
              if not (Hashtbl.mem a k) then
                fail "replica shard %d: resurrected %s" s k)
            b
        in
        let applied_before = Repl.Replica.applied rep in
        Array.iteri (fun s st -> diff s (dump st) (dump rstores.(s))) stores;
        (* Bounded-staleness contract: at lag 0 a floor equal to the
           primary's clock must be served; an unreachable floor must not. *)
        Array.iteri
          (fun s st ->
            let floor = Kvstore.Store.max_version st in
            let probe = Printf.sprintf "d0-%06d" 0 in
            if route_key probe = s then begin
              (match Repl.Replica.read rep ~key:probe ~columns:[] ~floor with
              | Kvserver.Protocol.Value _ -> ()
              | _ -> fail "replica shard %d: fresh read refused at floor %Ld" s floor);
              match
                Repl.Replica.read rep ~key:probe ~columns:[] ~floor:Int64.max_int
              with
              | Kvserver.Protocol.Repl_stale _ -> ()
              | _ -> fail "replica shard %d: served an unreachable floor" s
            end)
          stores;
        (* Kill the primary (stop calling it) and promote: contents must
           be byte-identical to the pre-promotion state and the promoted
           tier must accept writes with fresh versions. *)
        ignore (Repl.Replica.promote rep);
        Array.iteri (fun s st -> diff s (dump st) (dump rstores.(s))) stores;
        let applied_after = Repl.Replica.applied rep in
        if applied_after < applied_before then
          fail "replica: promotion regressed the applied clock";
        let wkey = "promoted-write-probe" in
        Kvstore.Store.put rstores.(route_key wkey) wkey [| "pp" |];
        (match Kvstore.Store.get rstores.(route_key wkey) wkey with
        | Some [| "pp" |] -> ()
        | _ -> fail "replica: promoted tier refused a write");
        Printf.printf
          "soak: replica converged to lag 0 (%d session restart(s), %d records \
           applied), promote verified\n\
           %!"
          !restarts
          (Repl.Replica.applied_count rep)
      end);
  (* 3. crash recovery equivalence: recover every shard from its own logs
     + checkpoints, re-assemble the tier, and verify each oracle again *)
  (match router with
  | Some r -> Shard.Router.close r
  | None -> Kvstore.Store.close store);
  let recovered =
    Array.init n_shards (fun s ->
        match
          Kvstore.Store.recover
            ~log_paths:(Shard.Bootstrap.find_logs shard_dirs.(s))
            ~checkpoint_dirs:(Shard.Bootstrap.find_checkpoints shard_dirs.(s))
            ()
        with
        | Error e ->
            fail "recovery (shard %d): %s" s e;
            None
        | Ok (s2, stats) ->
            if verbose then
              Printf.printf "  shard %d: recovered %d keys (%d records, %d checkpoint entries)\n%!"
                s (Kvstore.Store.cardinal s2) stats.Persist.Recovery.records_applied
                stats.Persist.Recovery.checkpoint_entries;
            Some s2)
  in
  (if Array.for_all Option.is_some recovered then
     let stores2 = Array.map Option.get recovered in
     let rec_get =
       if n_shards = 1 then fun k -> Kvstore.Store.get stores2.(0) k
       else
         let r2 = Shard.Router.create stores2 in
         fun k -> Shard.Router.get r2 k
     in
     Array.iteri
       (fun d oracle ->
         Hashtbl.iter
           (fun k v -> if rec_get k <> Some v then fail "domain %d: recovery lost %s" d k)
           oracle)
       oracles);
  if Atomic.get failures = 0 then begin
    Printf.printf "soak: all invariants held\n";
    Xutil.Tmpdir.rm_rf dir;
    0
  end
  else begin
    Printf.printf "soak: %d failures; data kept in %s\n" (Atomic.get failures) dir;
    1
  end

let seconds_t = Arg.(value & opt int 10 & info [ "seconds" ] ~docv:"S" ~doc:"Soak duration.")

let domains_t = Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N" ~doc:"Worker domains.")

let keys_t = Arg.(value & opt int 20_000 & info [ "keys" ] ~docv:"N" ~doc:"Keyspace per domain.")

let ckpt_t =
  Arg.(value & opt float 2.0 & info [ "checkpoint-every" ] ~docv:"S" ~doc:"Concurrent checkpoint interval; 0 disables.")

let stats_t =
  Arg.(value & opt float 0.0 & info [ "stats-interval" ] ~docv:"S" ~doc:"Print a telemetry snapshot to stderr every S seconds; 0 disables.")

let net_t =
  Arg.(value & opt string "off" & info [ "net" ] ~docv:"MODE" ~doc:"Drive the workload through a server front end on a Unix socket: off (direct store calls), threaded, or reactor.")

let pipeline_t =
  Arg.(value & opt int 8 & info [ "pipeline" ] ~docv:"W" ~doc:"Request frames kept in flight per connection in --net modes.")

let shards_t =
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc:"Target the sharded tier: N stores behind the keyspace router with the hot-key cache enabled.  1 = plain single store (default).")

let zipf_t =
  Arg.(value & opt float 0.0 & info [ "zipf" ] ~docv:"THETA" ~doc:"Draw keys Zipfian with skew THETA (e.g. 0.99) instead of uniformly — heats the hot-key cache so its invalidation protocol gets exercised under oracle checking.  0 = uniform.")

let replica_t =
  Arg.(value & flag & info [ "replica" ] ~doc:"Run an in-process log-shipping replica for the whole soak (bootstrap races live writers, steady-state tailing), then verify it converges to exact equality with the quiesced primary and survives kill-and-promote with zero lost or resurrected keys.")

let verbose_t = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Progress output.")

let cmd =
  Cmd.v
    (Cmd.info "soak" ~doc:"Randomized concurrency + persistence soak test")
    Term.(
      const run $ seconds_t $ domains_t $ keys_t $ ckpt_t $ stats_t $ net_t
      $ pipeline_t $ shards_t $ zipf_t $ replica_t $ verbose_t)

let () = exit (Cmd.eval' cmd)
