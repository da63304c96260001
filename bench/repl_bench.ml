(* Replication: bootstrap convergence under writes + replica read offload.

   Two halves, one BENCH_repl.json (docs/REPLICATION.md):

   1. Bootstrap + catch-up: a replica subscribes to a loaded 4-shard
      primary while a writer thread keeps mutating it.  The snapshot
      phase streams the pinned cut, the tail phase drains the racing
      writes, and once the writer stops the replica must converge to
      lag 0 with contents identical to the primary — the "no lost, no
      phantom records under concurrent load" gate.

   2. Read offload: the Fig-13 hot-shard experiment with the other
      mitigation.  Same 4 Dedicated-locked shards as [bench shard], but
      instead of a hot-key cache in front of the owning partition, reads
      round-robin to the (now converged) replica via
      [Shard.Router.get_offload], bypassing the shard locks entirely.
      The measured stream is the hot shard's own read traffic (Zipf
      draws filtered to the shard owning rank 0 — the reads a deployment
      would actually offload), and the primary is kept busy: a writer
      domain drives Zipfian puts through the same Dedicated router for
      the whole measured section, so the hot shard's lock is held much
      of the time — the saturation regime offload exists for.  The
      writer runs under BOTH halves of every pair (the CPU it steals
      cancels out of the ratio; the lock serialization does not), and
      the paired-round / median-of-ratios discipline from shard_bench
      cancels single-core host drift.  Offloaded reads must beat
      single-primary reads by >= 1.3x. *)

open Bench_util
module P = Kvserver.Protocol

let shards = 4

let theta = 0.99

let run scale =
  header "replication: bootstrap under writes + replica read offload";
  let domains = scale.domains in
  let dir = Xutil.Tmpdir.scoped "replbench" in
  (* Primary: 4 logged stores behind the router (shared mode for the
     load + writer; the Dedicated router for the measured rows comes
     later, over the same stores). *)
  let loggers =
    Array.init shards (fun s ->
        [| Persist.Logger.create (Filename.concat dir (Printf.sprintf "s%d-log" s)) |])
  in
  let stores = Array.map (fun logs -> Kvstore.Store.create ~logs ()) loggers in
  let loader = Shard.Router.create stores in
  let keys =
    preload_decimal ~keys:scale.keys ~range:(1 lsl 30) (fun k ->
        Shard.Router.put loader k [| k |])
  in
  let n = Array.length keys in
  let route = Shard.Router.shard_of loader in
  let all_logs = Array.concat (Array.to_list loggers) in
  let src = Repl.Source.create ~route ~logs:all_logs stores in
  let call req = Repl.Source.handler src ~worker:0 req in
  row "%d shards, %d keys preloaded, %d driver domains\n" shards n domains;

  (* --- 1. bootstrap + catch-up under concurrent writes --- *)
  subheader "bootstrap + catch-up under a concurrent writer";
  let rstores = Array.init shards (fun _ -> Kvstore.Store.create ()) in
  let replica = Repl.Replica.create ~route ~logs:[||] rstores in
  let stop_writer = ref false in
  let writer_ops = ref 0 in
  let writer =
    Thread.create
      (fun () ->
        let rng = Xutil.Rng.create 0xF00DL in
        let i = ref 0 in
        while not !stop_writer do
          incr i;
          (* half overwrites of loaded keys, half fresh inserts *)
          if !i land 1 = 0 then
            Shard.Router.put loader keys.(Xutil.Rng.int rng n) [| "w"; string_of_int !i |]
          else Shard.Router.put loader (Printf.sprintf "live-%07d" !i) [| "x" |];
          incr writer_ops;
          if !i land 63 = 0 then Thread.yield ()
        done)
      ()
  in
  let t0 = Xutil.Clock.now_ns () in
  let boot_deadline = Int64.add t0 (Int64.of_float (4.0 *. scale.seconds *. 1e9)) in
  let rec boot () =
    if Int64.compare (Xutil.Clock.now_ns ()) boot_deadline > 0 then
      failwith "bootstrap did not complete in time"
    else
      match Repl.Replica.step replica ~call with
      | `Continue | `Caught_up ->
          if Repl.Replica.bootstrap_done replica then () else boot ()
      | `Restart_needed -> failwith "bootstrap: unexpected session restart"
      | `Error m -> failwith ("bootstrap: " ^ m)
      | `Promoted -> failwith "bootstrap: unexpected promotion"
  in
  boot ();
  let boot_s = Xutil.Clock.elapsed_s t0 in
  let ops_during_boot = !writer_ops in
  row "bootstrap done in %.2fs  (%d snapshot-phase records, writer issued %d ops)\n"
    boot_s (Repl.Replica.applied_count replica) ops_during_boot;
  (* Let the tail chase the live writer briefly, then stop the writer
     and require convergence to lag 0. *)
  let chase_deadline =
    Int64.add (Xutil.Clock.now_ns ()) (Int64.of_float (0.25 *. scale.seconds *. 1e9))
  in
  let rec chase () =
    if Int64.compare (Xutil.Clock.now_ns ()) chase_deadline < 0 then
      match Repl.Replica.step replica ~call with
      | `Continue | `Caught_up -> chase ()
      | _ -> failwith "tail chase failed"
  in
  chase ();
  stop_writer := true;
  Thread.join writer;
  let t1 = Xutil.Clock.now_ns () in
  (match Repl.Replica.catch_up ~max_rounds:100_000 replica ~call with
  | `Caught_up -> ()
  | _ -> failwith "catch-up after writer stop failed");
  let catchup_s = Xutil.Clock.elapsed_s t1 in
  let status = Repl.Source.status src in
  let lag =
    List.fold_left (fun a p -> a + p.P.peer_lag) 0 status.P.repl_peers
  in
  (* Content oracle: every shard's full dump must match. *)
  let dump st =
    let l = ref [] in
    ignore
      (Kvstore.Store.getrange st ~start:"" ~limit:max_int (fun k cols ->
           l := (k, Array.to_list cols) :: !l));
    !l
  in
  let mismatched = ref 0 in
  Array.iteri
    (fun s st -> if dump st <> dump rstores.(s) then incr mismatched)
    stores;
  let converged = lag = 0 && !mismatched = 0 in
  row "writer total %d ops; catch-up after stop %.3fs; ship lag %d; %s\n"
    !writer_ops catchup_s lag
    (if !mismatched = 0 then "all shard dumps identical"
     else Printf.sprintf "%d shard dump(s) MISMATCH" !mismatched);

  (* --- 2. replica read offload on the hot-shard workload --- *)
  subheader "zipf(0.99) reads: Dedicated shard locks vs replica offload";
  (* Concurrent readers are the point of this experiment: with a single
     client there is no queueing on the hot shard's lock to relieve, so
     the sweep drives at least two reader domains even on a one-core
     host (Dedicated mode models one core per shard; readers model
     clients, and the kernel timeslicing them is part of the contention
     being measured — identically in both halves of each pair). *)
  let r_domains = max 2 domains in
  let ded = Shard.Router.create ~concurrency:Shard.Router.Dedicated stores in
  let handle =
    {
      Shard.Router.rh_label = "replica-0";
      rh_read =
        (fun key cols floor ->
          match Repl.Replica.read replica ~key ~columns:cols ~floor with
          | P.Value v -> `Value v
          | P.Repl_stale _ -> `Stale
          | _ -> `Down);
      rh_applied = (fun () -> Repl.Replica.applied_max replica);
    }
  in
  Shard.Router.set_replicas ded [ handle ];
  let zipf = Workload.Zipf.create ~theta ~n () in
  row "zipf(%.2f) mass on top-1024 ranks: %.0f%%\n" theta
    (100.0 *. Workload.Zipf.expected_top_fraction zipf 1024);
  (* The measured stream is the HOT SHARD's read traffic: Zipf(0.99)
     draws filtered to the shard that owns rank 0.  That is the traffic
     a deployment actually offloads — the saturated partition's reads —
     and the baseline for the gate: those reads serialize on one
     Dedicated lock (against each other and against the writer), while
     offloaded they fan to the replica and never wait.  Streams are
     pre-drawn per domain (same rationale as shard_bench: the pow() per
     draw would dominate the measured op). *)
  let hot_shard = Shard.Router.shard_of ded keys.(0) in
  let stream_len = 1 lsl 16 in
  let zipf_streams =
    Array.init r_domains (fun d ->
        let rng = Xutil.Rng.create (Int64.of_int (0xFEED + d)) in
        Array.init stream_len (fun _ ->
            let rec draw () =
              let k = keys.(Workload.Zipf.sample zipf rng) in
              if Shard.Router.shard_of ded k = hot_shard then k else draw ()
            in
            draw ()))
  in
  row "measured stream: reads owned by hot shard %d (the shard of rank 0)\n"
    hot_shard;
  let cursors = Array.init r_domains (fun _ -> ref 0) in
  let next d =
    let cur = cursors.(d) in
    let c = !cur in
    cur := c + 1;
    zipf_streams.(d).(c land (stream_len - 1))
  in
  let primary_op d _rng = ignore (Shard.Router.get ~worker:d ded (next d)) in
  let offload_op d _rng = ignore (Shard.Router.get_offload ~worker:d ded (next d)) in
  let rounds = 16 in
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let row_scale = { scale with ops = max (4 * r_domains) (scale.ops / 6) } in
  let measure_row per_op =
    Gc.compact ();
    measure ~scale:row_scale ~domains:r_domains per_op
  in
  (* The concurrent writer: Zipfian puts through the same Dedicated
     router on a dedicated domain, running across every measured row of
     both halves.  Baseline reads of a hot key serialize with it on the
     owning shard's lock; offloaded reads are served by the replica and
     never wait.  (The replica does not apply during the measured rows —
     it serves its converged state, which [floor = 0] accepts; staleness
     floors are exercised in test/repl and by [mtclient repl-get].) *)
  let stop_bg = Atomic.make false in
  let bg_ops = ref 0 in
  let bg_stream =
    (* The writer's share of the skew lands on the same hot shard (under
       Zipf most write mass does anyway — this keeps the short measured
       rows honest about it): the saturated partition is serving its
       reads AND its writes, which is precisely the load the replica
       takes the reads away from. *)
    let rng = Xutil.Rng.create 0xBEEFL in
    Array.init stream_len (fun _ ->
        let rec draw () =
          let k = keys.(Workload.Zipf.sample zipf rng) in
          if Shard.Router.shard_of ded k = hot_shard then k else draw ()
        in
        draw ())
  in
  let bg_writer =
    Domain.spawn (fun () ->
        let c = ref 0 in
        while not (Atomic.get stop_bg) do
          Shard.Router.put ded bg_stream.(!c land (stream_len - 1)) [| "w" |];
          incr c
        done;
        bg_ops := !c)
  in
  (* warmup both paths *)
  ignore (measure ~scale:row_scale ~domains:r_domains primary_op);
  ignore (measure ~scale:row_scale ~domains:r_domains offload_op);
  let pairs =
    List.init rounds (fun r ->
        if r land 1 = 0 then begin
          let p = measure_row primary_op in
          let o = measure_row offload_op in
          (p, o)
        end
        else begin
          let o = measure_row offload_op in
          let p = measure_row primary_op in
          (p, o)
        end)
  in
  Atomic.set stop_bg true;
  Domain.join bg_writer;
  let p_ops = median (List.map fst pairs) in
  let o_ops = median (List.map snd pairs) in
  let speedup = median (List.map (fun (p, o) -> o /. p) pairs) in
  let served, fallback = Shard.Router.offload_stats ded in
  row "concurrent writer issued %d puts during the measured section\n" !bg_ops;
  row "%-34s %10.0f ops/s\n" "single primary (Dedicated locks)" p_ops;
  row "%-34s %10.0f ops/s   served %d  fallback %d\n" "replica offload" o_ops
    served fallback;
  row "median of %d paired ratios: %.2fx\n" rounds speedup;
  let smoke = scale.smoke in
  let verdict ok =
    if smoke then "smoke scale, informational" else if ok then "PASS" else "FAIL"
  in
  row "offload speedup: %.2fx  (acceptance: >= 1.3x: %s)\n" speedup
    (verdict (speedup >= 1.3));
  row "bootstrap+catch-up converged to lag 0: %b  (acceptance: %s)\n" converged
    (verdict converged);

  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"shards\": %d,\n" shards);
  Buffer.add_string buf (Printf.sprintf "  \"driver_domains\": %d,\n" r_domains);
  Buffer.add_string buf (Printf.sprintf "  \"keys\": %d,\n" n);
  Buffer.add_string buf (Printf.sprintf "  \"zipf_theta\": %.2f,\n" theta);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"bootstrap\": {\"seconds\": %.3f, \"records_applied\": %d, \
        \"writer_ops_during_bootstrap\": %d},\n"
       boot_s
       (Repl.Replica.applied_count replica)
       ops_during_boot);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"catchup\": {\"seconds_after_writer_stop\": %.3f, \"writer_ops_total\": \
        %d, \"final_ship_lag\": %d, \"shard_dumps_mismatched\": %d},\n"
       catchup_s !writer_ops lag !mismatched);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"offload\": {\"primary_ops_per_sec\": %.0f, \"offload_ops_per_sec\": \
        %.0f, \"speedup\": %.2f, \"served\": %d, \"fallback\": %d, \
        \"concurrent_writer_puts\": %d},\n"
       p_ops o_ops speedup served fallback !bg_ops);
  Buffer.add_string buf
    (Printf.sprintf "  \"acceptance_offload_speedup_ge_1_3\": %b,\n" (speedup >= 1.3));
  Buffer.add_string buf
    (Printf.sprintf "  \"acceptance_bootstrap_converged_lag0\": %b\n}\n" converged);
  write_result ~scale "BENCH_repl.json" (Buffer.contents buf);
  Repl.Source.close src;
  (* [ded] and [loader] wrap the same stores; close once. *)
  Shard.Router.close ded
