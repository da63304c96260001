(* One run of one workload: set up, drive the phases, check durability,
   and (traced runs) replay the stream per layer.

   Phases, identical on every commit:
     setup   start mtd, preload (repeated [setups] times; median reported)
     warmup  closed loop, discarded
     sat     closed loop: throughput, with Stats snapshots around it
     rtt     window-1 probes: empty frames alternating with the workload's
     open    open loop at the workload's fixed rate: latency from due time
   then the durability read-back, a graceful restart, and the read-back
   again. *)

module Y = Workload.Ycsb
module P = Kvserver.Protocol
module Snap = Obs.Snapshot

type report = {
  e2e : (string * float) list;
  layers : (string * float) list;
  tally : Client.tally;
  meta : (string * Json.t) list;
}

(* ---- samples ---- *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then t.a <- Array.append t.a (Array.make t.n 0);
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s

  (* Nearest-rank percentile of sorted ns samples, in us. *)
  let pct s p =
    let n = Array.length s in
    if n = 0 then nan
    else float s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float n)) - 1))) /. 1000.
end

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---- Stats deltas ---- *)

let value (s : Snap.t) name =
  match List.assoc_opt name s.counters with
  | Some v -> float v
  | None -> ( match List.assoc_opt name s.gauges with Some v -> float v | None -> 0.0)

let hist_delta (a : Snap.t) (b : Snap.t) name =
  let get (s : Snap.t) =
    match List.assoc_opt name s.hists with Some h -> (float h.count, float h.sum) | None -> (0., 0.)
  in
  let ca, sa = get a and cb, sb = get b in
  (cb -. ca, sb -. sa)

let ratio a b = if b <= 0.0 then 0.0 else a /. b

(* Stats histograms are cumulative summaries: only their count and sum
   can be diffed over a phase, so these metrics are means. *)
let hist_mean a b name =
  let c, s = hist_delta a b name in
  ratio s c

let stats_layers (s0 : Snap.t) (s1 : Snap.t) ~seconds =
  let d name = value s1 name -. value s0 name in
  let ops = d "ops.get" +. d "ops.put_cols" +. d "ops.scan" in
  let puts = d "ops.put_cols" in
  let multigets, _ = hist_delta s0 s1 "lat_us.multiget_batch" in
  let hits = d "shard.hot.hits" and misses = d "shard.hot.misses" in
  [
    ("net.frames_per_wakeup_mean", hist_mean s0 s1 "net.frames_per_wakeup");
    ("net.flushes_per_kframe", 1000. *. ratio (d "net.flushes") (d "net.frames"));
    ("net.bytes_out_per_op", ratio (d "net.bytes_out") ops);
    ("net.buf_grows", d "net.buf_grows");
    ("engine.keys_per_multiget", ratio (d "ops.get") multigets);
    ("router.imbalance_pct", value s1 "shard.imbalance_pct");
    ("hotcache.hit_pct", 100. *. ratio hits (hits +. misses));
    ("hotcache.invalidations_per_kput", 1000. *. ratio (d "shard.hot.invalidations") puts);
    ("mvcc.chain_len_mean", hist_mean s0 s1 "mvcc.chain_len");
    ("mvcc.snapshots_per_min", 60. *. d "mvcc.snap_open_total" /. seconds);
    ("tree.root_retries_per_mop", 1e6 *. ratio (d "masstree.root_retries") ops);
    ("tree.local_retries_per_mop", 1e6 *. ratio (d "masstree.local_retries") ops);
    ("tree.pipeline_restarts_per_mop", 1e6 *. ratio (d "masstree.pipeline_restarts") ops);
    ("pool.footprint_mb", value s1 "pool.footprint_bytes" /. 1048576.);
    ("logger.bytes_per_put", ratio (d "log.flushed_bytes") puts);
    ("logger.fsync_mean_us", hist_mean s0 s1 "log.fsync_us");
    ("logger.commit_lag_mean_us", hist_mean s0 s1 "log.commit_lag_us");
    ("gc.minor_per_kop", 1000. *. ratio (d "gc.minor_collections") ops);
    ("gc.major_per_kop", 1000. *. ratio (d "gc.major_collections") ops);
    ("gc.alloc_words_per_op", ratio (d "gc.allocated_words") ops);
  ]

(* ---- environment ---- *)

let commit () =
  let read f = try String.trim (In_channel.with_open_text f In_channel.input_all) with _ -> "" in
  match read ".git/HEAD" with
  | "" -> "unknown"
  | h when String.starts_with ~prefix:"ref: " h -> (
      match read (Filename.concat ".git" (String.sub h 5 (String.length h - 5))) with
      | "" -> "unknown"
      | c -> c)
  | h -> h

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- the run ---- *)

let run ~mtd ~(w : Spec.t) ~(sizes : Spec.sizes) ~seed ~trace ~work ~trace_out =
  let records = sizes.records in
  let y = Gen.ycsb w ~records in
  let ph = Spec.phases sizes.seconds in
  let started = Unix.gettimeofday () in
  let say fmt =
    Printf.printf ("[%s +%.1fs] " ^^ fmt ^^ "\n%!") w.name (Unix.gettimeofday () -. started)
  in
  (* Inputs, all from the seed and all encoded before the first phase. *)
  let halves frames =
    Array.init 2 (fun c -> Array.of_list (List.filteri (fun i _ -> i land 1 = c) (Array.to_list frames)))
  in
  let preload_pools = halves (Gen.preload_frames y ~seed ~records ~per_frame:64) in
  let opf = w.ops_per_frame in
  let pool_n = max sizes.closed_pool (Spec.replay_ops w sizes) / opf * opf in
  let open_rate = w.open_rate *. sizes.rate_scale in
  let due = Gen.schedule ~seed ~rate:open_rate ~seconds:ph.open_ in
  let all_ops = Gen.ops w y ~seed ~n:(pool_n + (Array.length due * opf)) in
  let closed_pools = Gen.split_by_conn (Gen.frames w (Array.sub all_ops 0 pool_n)) in
  let open_frames = Gen.frames w (Array.sub all_ops pool_n (Array.length due * opf)) in
  let open_conn = Array.mapi Gen.conn_of_frame open_frames in
  (* The durability model: preload values, overridden by every put sent
     to a sampled key (a key's writes all travel one connection, in
     order, so the last one sent is the one that must read back). *)
  let sample = Gen.sample ~seed ~records ~n:sizes.sample in
  let sampled = Hashtbl.create (Array.length sample) in
  Array.iter (fun r -> Hashtbl.replace sampled (Y.key_of_rank y r) r) sample;
  let overrides = Hashtbl.create 4096 in
  let on_send (f : Gen.frame) =
    if f.kind = Gen.Put then
      Array.iter
        (function
          | Y.Put (k, col, data) when Hashtbl.mem sampled k -> Hashtbl.replace overrides (k, col) data
          | _ -> ())
        f.ops
  in
  let expected key =
    let cols = Array.copy (Gen.initial_value y ~seed (Hashtbl.find sampled key)) in
    Array.iteri
      (fun c _ -> match Hashtbl.find_opt overrides (key, c) with Some d -> cols.(c) <- d | None -> ())
      cols;
    cols
  in
  let readback_pools =
    halves
      (Array.init
         ((Array.length sample + 31) / 32)
         (fun f ->
           let lo = f * 32 in
           Gen.frame_of_ops
             (Array.init (min 32 (Array.length sample - lo)) (fun j -> Y.Get (Y.key_of_rank y sample.(lo + j))))))
  in
  let tally = { Client.attempted = 0; failed = 0; first_error = None } in
  (* Keys of the sample that do not read back as the model says. *)
  let read_back cl =
    let mismatches = ref 0 in
    let verify (p : Client.pending) body =
      let bad =
        match P.decode_responses body with
        | resps when List.length resps = Array.length p.frame.ops ->
            List.fold_left2
              (fun bad op r ->
                match (op, r) with
                | Y.Get k, P.Value (Some cols) when cols = expected k -> bad
                | _ -> bad + 1)
              0 (Array.to_list p.frame.ops) resps
        | _ -> Array.length p.frame.ops
        | exception _ -> Array.length p.frame.ops
      in
      mismatches := !mismatches + bad;
      bad = 0
    in
    ignore (Client.closed cl ~pools:readback_pools ~window:4 ~stop:Client.Once ~verify ());
    !mismatches
  in
  say "inputs ready";
  (* setup, repeated: the last instance is the one measured.  Each
     set-up also records mtd's peak resident set once the preload is
     acknowledged: the memory that holds the dataset, read before any
     time-driven work (checkpoints, the measured phases) has grown the
     heap by amounts that depend on GC timing. *)
  let data i = Filename.concat work (Printf.sprintf "%s-%d" w.name i) in
  let cleanup d =
    Server.rm_rf d;
    Server.rm_rf (d ^ ".log")
  in
  let setup i =
    cleanup (data i);
    Server.mkdir_p (data i);
    let t0 = Client.now () in
    let srv = Server.spawn ~mtd ~data:(data i) ~flags:w.mtd_flags in
    let cl = Client.create ~port:srv.port ~tally ~on_send in
    ignore (Client.closed cl ~pools:preload_pools ~window:16 ~stop:Client.Once ());
    let dt = float (Client.now () - t0) /. 1e9 in
    (srv, cl, dt, Server.hwm_mib srv)
  in
  let n_setups = if trace then 1 else sizes.setups in
  let rec setups i times rsss =
    let srv, cl, dt, rss = setup i in
    if i + 1 < n_setups then begin
      Client.close cl;
      Server.stop srv;
      cleanup (data i);
      setups (i + 1) (dt :: times) (rss :: rsss)
    end
    else (srv, cl, data i, median (dt :: times), median (rss :: rsss))
  in
  let srv, cl, dir, setup_s, rss = setups 0 [] [] in
  say "setup %.3f s, loaded rss %.1f MiB (medians of %d), %d records" setup_s rss n_setups records;
  (* warmup and saturation *)
  let cursor = Array.make 2 0 in
  ignore (Client.closed cl ~pools:closed_pools ~cursor ~window:w.window ~stop:(Client.After ph.warmup) ());
  let s0 = Client.stats cl in
  let c0 = cpu_s () in
  let completed, sat_s =
    Client.closed cl ~pools:closed_pools ~cursor ~window:w.window ~stop:(Client.After ph.sat) ()
  in
  let cpu_pct = 100. *. (cpu_s () -. c0) /. sat_s in
  let s1 = Client.stats cl in
  let ops_per_s = float completed /. sat_s in
  say "sat %.0f ops/s over %.2f s, client cpu %.0f%%" ops_per_s sat_s cpu_pct;
  (* Round trips: empty frames alternate with the workload's own, so
     both see the host in the same state. *)
  let rtt0 = Samples.create () and rtt1 = Samples.create () in
  let probes =
    Array.concat (Array.to_list (Array.map (fun f -> [| Gen.empty_frame; f |]) closed_pools.(0)))
  in
  Client.probe cl ~frames:probes ~seconds:ph.rtt ~on_done:(fun p d ->
      Samples.add (if p.Client.frame.kind = Gen.Empty then rtt0 else rtt1) d);
  let rtt0_us = Samples.pct (Samples.sorted rtt0) 50. and rtt1_us = Samples.pct (Samples.sorted rtt1) 50. in
  say "rtt p50: empty frame %.1f us, workload frame %.1f us" rtt0_us rtt1_us;
  (* open loop *)
  let lat = Samples.create () and late = Samples.create () in
  let by_kind = Array.init 3 (fun _ -> Samples.create ()) in
  let kind_idx = function Gen.Get -> 0 | Gen.Put -> 1 | _ -> 2 in
  Client.open_loop cl ~frames:open_frames ~conn:open_conn ~due
    ~on_done:(fun p d ->
      Samples.add lat d;
      Samples.add by_kind.(kind_idx p.Client.frame.kind) d)
    ~late:(Samples.add late);
  let lat_s = Samples.sorted lat in
  let late_p99 = Samples.pct (Samples.sorted late) 99. in
  let rss_end = Server.hwm_mib srv in
  let poller = Server.poller srv in
  say "open %.0f frames/s for %.1f s: p50 %.1f us, p99 %.1f us, p999 %.1f us (%d frames); sender late p99 %.1f us"
    open_rate ph.open_ (Samples.pct lat_s 50.) (Samples.pct lat_s 99.) (Samples.pct lat_s 99.9)
    (Array.length lat_s) late_p99;
  let diag =
    List.concat
      (List.mapi
         (fun k name ->
           let s = Samples.sorted by_kind.(k) in
           if Array.length s = 0 then []
           else begin
             say "  %s: n=%d p50 %.1f us p99 %.1f us p999 %.1f us" name (Array.length s) (Samples.pct s 50.)
               (Samples.pct s 99.) (Samples.pct s 99.9);
             [
               (name ^ "_n", Json.Num (float (Array.length s)));
               (name ^ "_p50_us", Json.Num (Samples.pct s 50.));
               (name ^ "_p99_us", Json.Num (Samples.pct s 99.));
               (name ^ "_p999_us", Json.Num (Samples.pct s 99.9));
             ]
           end)
         [ "get"; "put"; "scan" ])
  in
  (* Durability: read back, restart gracefully, read back again.  A
     mismatch before the restart is a failure.  So is one after it,
     except with checkpoints on: there the seed's daemon loses the
     writes acknowledged between a checkpoint's snapshot cut and the log
     rotation that follows it (the rotation deletes the logs holding
     them), so the loss is reported as [lost_after_restart] instead of
     failing every run of that workload. *)
  let live_bad = read_back cl in
  if live_bad > 0 then Client.fail cl live_bad "read-back mismatch before restart";
  Client.close cl;
  Server.stop srv;
  let t0 = Client.now () in
  let srv = Server.spawn ~mtd ~data:dir ~flags:w.mtd_flags in
  let restart_s = float (Client.now () - t0) /. 1e9 in
  let cl = Client.create ~port:srv.port ~tally ~on_send in
  let lost = read_back cl in
  let checkpointing = List.mem "--checkpoint-secs" w.mtd_flags in
  if lost > 0 && not checkpointing then Client.fail cl lost "read-back mismatch after restart";
  Client.close cl;
  Server.stop srv;
  cleanup dir;
  say "restart %.3f s; read-back of %d keys: %d mismatches live, %d after restart%s" restart_s
    (Array.length sample) live_bad lost
    (if lost > 0 && checkpointing then " (WARNING: acknowledged writes lost across a checkpoint)" else "");
  let replay =
    if not trace then []
    else begin
      let rdir = Filename.concat work (w.name ^ "-replay") in
      cleanup rdir;
      Server.mkdir_p rdir;
      let r = Replay.run w sizes ~seed ~dir:rdir in
      cleanup rdir;
      let out =
        match trace_out with
        | Some p -> p
        | None -> Filename.concat work (Printf.sprintf "spans-%s.tsv" w.name)
      in
      Replay.write_spans r out;
      let ledger = Replay.ledger r ~rtt0_us ~ops_per_frame:opf in
      let total = List.fold_left (fun a (_, v) -> a +. v) 0.0 ledger in
      say "ledger (replay of %d ops, %d frames per wakeup; spans in %s)" r.n_ops w.wakeup_frames out;
      say "  %-9s %12s %7s" "layer" "self ns/op" "share";
      List.iter (fun (l, v) -> say "  %-9s %12.1f %6.1f%%" l v (100. *. v /. total)) ledger;
      let predicted = rtt0_us +. (r.frame_ns /. 1000.) in
      let residual = 100. *. Float.abs (rtt1_us -. predicted) /. rtt1_us in
      say "  reconcile: rtt0 %.1f + engine %.1f = %.1f us vs rtt1 %.1f us: residual %.1f%%; trace overhead %.1f%%"
        rtt0_us (r.frame_ns /. 1000.) predicted rtt1_us residual r.overhead_pct;
      Replay.metrics r @ [ ("ledger.residual_pct", residual) ]
    end
  in
  let fail_pct = 100. *. float tally.failed /. float (max 1 tally.attempted) in
  say "attempted %d ops, failed %d (%.4f%%)%s" tally.attempted tally.failed fail_pct
    (match tally.first_error with Some e -> ": first failure: " ^ e | None -> "");
  {
    e2e =
      [ ("setup_s", setup_s); ("ops_per_s", ops_per_s); ("p50_us", Samples.pct lat_s 50.); ("rss_mb", rss) ];
    layers =
      [ ("net.rtt0_us", rtt0_us); ("net.rtt1_us", rtt1_us) ]
      @ stats_layers s0 s1 ~seconds:sat_s
      @ replay
      @ [ ("client.cpu_pct", cpu_pct); ("client.gen_late_p99_us", late_p99) ];
    tally;
    meta =
      [
        ("workload", Json.Str w.name);
        ("seed", Json.Num (float seed));
        ("commit", Json.Str (commit ()));
        ("nproc", Json.Num (float (Array.length Server.all_cpus)));
        ("cpus", Json.Str (Printf.sprintf "client %s, mtd %s" (Server.cpu_list Server.client_cpus)
                             (Server.cpu_list Server.server_cpus)));
        ("poller", Json.Str poller);
        ("mtd_flags", Json.Str (String.concat " " (Spec.base_flags @ w.mtd_flags)));
        ("records", Json.Num (float records));
        ("seconds", Json.Num sizes.seconds);
        ("open_rate", Json.Num open_rate);
        ("fail_pct", Json.Num fail_pct);
        ("client.cpu_pct", Json.Num cpu_pct);
        ("client.gen_late_p99_us", Json.Num late_p99);
        ("open_frames", Json.Num (float (Array.length lat_s)));
        ("p99_us", Json.Num (Samples.pct lat_s 99.));
        ("p999_us", Json.Num (Samples.pct lat_s 99.9));
        ("rss_end_mb", Json.Num rss_end);
        ("restart_s", Json.Num restart_s);
        ("lost_after_restart", Json.Num (float lost));
      ]
      @ diag;
  }
