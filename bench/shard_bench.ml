(* Sharded tier under skew: the Fig 13 weakness and its mitigation.

   §6.6 / Fig 13: hard-partitioned deployments beat a shared tree on
   uniform load but collapse under skew — the partition owning the hot
   keys saturates while the rest idle.  This experiment reproduces that on
   the real sharded tier (lib/shard): 4 stores behind the keyspace router
   in Dedicated mode (every shard access serializes on that shard's lock,
   modeling one core per shard), driven uniform vs Zipfian(0.99), with the
   hot-key cache off vs on.  The cache serves the top-K keys lock-free at
   the front end, so Zipfian throughput recovers while uniform throughput
   is untouched.

   The same imbalance metric is printed for the modeled hard-partitioned
   baseline (Baselines.Partitioned per-partition load counters) and the
   real tier's router counters, side by side.

   Acceptance (real scale): Zipfian mitigated >= 1.5x unmitigated;
   uniform mitigated within 5% of unmitigated.  Results land in
   BENCH_shard.json. *)

open Bench_util

let shards = 4

let theta = 0.99

type outcome = {
  o_workload : string;
  o_mitigation : bool;
  o_ops : float;
  o_imbalance : float;
  o_hit_rate : float; (* hot-cache hit %, 0 when mitigation off *)
}

let hot_delta before after =
  match (before, after) with
  | Some b, Some a ->
      let hits = a.Shard.Hotcache.s_hits - b.Shard.Hotcache.s_hits in
      let misses = a.Shard.Hotcache.s_misses - b.Shard.Hotcache.s_misses in
      let total = hits + misses in
      if total = 0 then 0.0 else 100.0 *. float_of_int hits /. float_of_int total
  | _ -> 0.0

let run scale =
  header "sharded tier: uniform vs Zipfian(0.99), hot-key mitigation off/on";
  let domains = scale.domains in
  let stores = Array.init shards (fun _ -> Kvstore.Store.create ()) in
  let loader = Shard.Router.create stores in
  let keys =
    preload_decimal ~keys:scale.keys ~range:(1 lsl 30) (fun k ->
        Shard.Router.put loader k [| k |])
  in
  let n = Array.length keys in
  let zipf = Workload.Zipf.create ~theta ~n () in
  row "%d shards (Dedicated: per-shard lock), %d driver domains, %d keys\n" shards
    domains n;
  row "zipf(%.2f) mass on top-1024 ranks: %.0f%%\n" theta
    (100.0 *. Workload.Zipf.expected_top_fraction zipf 1024);
  let plain = Shard.Router.create ~concurrency:Shard.Router.Dedicated stores in
  (* The hot layer is sized to the workload: top-16k ranks carry ~76% of
     the Zipf(0.99) mass over 200k keys (vs 57% for the server default's
     top-1k) — a few MB of flat arrays buys most of the skew back.  The
     sketch's refresh window scales with the run so the top-K set reaches
     deep into the distribution (reach grows with observations per window)
     yet matures within the warmup at any --ops. *)
  let refresh_every = min 49152 (max 4096 (scale.ops / 32)) in
  let hot_config =
    { Shard.Router.hot_slots = 16384; sketch_capacity = 32768;
      refresh_every; sample = 16 }
  in
  let hot =
    Shard.Router.create ~concurrency:Shard.Router.Dedicated ~hot:hot_config stores
  in
  let uniform rng = Xutil.Rng.int rng n in
  let zipfian rng = Workload.Zipf.sample zipf rng in
  (* The Zipfian sampler does a floating-point pow per draw, so its key
     stream is pre-drawn per domain and cycled (64k draws — long against
     the top-K working set, so cycling doesn't manufacture hot keys).
     Uniform draws are one integer op and stay live: a pre-drawn uniform
     stream would cycle its finite draw set every row and turn "uniform"
     into a repeating — cacheable — workload, which is exactly what the
     uniform control must not be. *)
  let stream_len = 1 lsl 16 in
  let zipf_streams =
    Array.init domains (fun d ->
        let rng = Xutil.Rng.create (Int64.of_int (0xFEED + d)) in
        Array.init stream_len (fun _ -> keys.(zipfian rng)))
  in
  let cursors = Array.init domains (fun _ -> ref 0) in
  let zipf_next d _rng =
    let cur = cursors.(d) in
    let c = !cur in
    cur := c + 1;
    zipf_streams.(d).(c land (stream_len - 1))
  in
  let uniform_next _d rng = keys.(uniform rng) in
  (* ~97/3 get/put over the drawn key (1 put in 32, decided by a
     per-domain counter).  The paper's Fig 13 partition experiment drives
     gets; the light write mix keeps the cache-invalidation path honest
     in the measured numbers without turning the experiment into a write
     benchmark.  Under Zipf, rank 0 is the hottest key, so the run
     concentrates on whichever shard owns keys.(0). *)
  let op_ticks = Array.init domains (fun _ -> ref 0) in
  let per_op next router d rng =
    let tick = op_ticks.(d) in
    let c = !tick in
    tick := c + 1;
    let k = next d rng in
    if c land 31 = 31 then Shard.Router.put ~worker:d router k [| k; "w" |]
    else ignore (Shard.Router.get ~worker:d router k)
  in
  let results = ref [] in
  (* Paired rounds: a single-core host shows +-20% drift between
     measurements (host steal, GC phase), far larger than the margins
     under test.  Alternating off/on rows back to back and taking the
     median of per-round ratios cancels the drift — each ratio compares
     two runs that shared the machine conditions; flipping which of the
     pair runs first each round cancels order effects too.  Many short
     rows beat few long ones here: the closer in time the two halves of
     a pair run, the better a host stall cancels out of their ratio. *)
  let rounds = 16 in
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let row_scale = { scale with ops = max (4 * domains) (scale.ops / 6) } in
  let measure_row router next =
    Gc.compact ();
    measure ~scale:row_scale ~domains (per_op next router)
  in
  let run_pair workload next =
    (* warmup: long enough for the sketch to cross a couple of refresh
       windows so the mitigated rows measure the mature top-K set, not
       its ramp-up *)
    let warm = { scale with ops = max (4 * domains) (scale.ops / 4) } in
    ignore (measure ~scale:warm ~domains (per_op next plain));
    let warm = { scale with ops = max (4 * domains) scale.ops } in
    ignore (measure ~scale:warm ~domains (per_op next hot));
    Shard.Router.reset_shard_loads plain;
    Shard.Router.reset_shard_loads hot;
    let before = Shard.Router.hot_stats hot in
    let pairs =
      List.init rounds (fun r ->
          if r land 1 = 0 then begin
            let p = measure_row plain next in
            let h = measure_row hot next in
            (p, h)
          end
          else begin
            let h = measure_row hot next in
            let p = measure_row plain next in
            (p, h)
          end)
    in
    let p_ops = median (List.map fst pairs) in
    let h_ops = median (List.map snd pairs) in
    let ratio = median (List.map (fun (p, h) -> h /. p) pairs) in
    let p_imb = Shard.Router.imbalance_pct (Shard.Router.shard_loads plain) in
    let h_imb = Shard.Router.imbalance_pct (Shard.Router.shard_loads hot) in
    let hit_rate = hot_delta before (Shard.Router.hot_stats hot) in
    row "%-28s %10.0f ops/s   shard imbalance %6.1f%%   hot hit rate %5.1f%%\n"
      (workload ^ ", mitigation off") p_ops p_imb 0.0;
    row "%-28s %10.0f ops/s   shard imbalance %6.1f%%   hot hit rate %5.1f%%\n"
      (workload ^ ", mitigation on") h_ops h_imb hit_rate;
    row "%-28s median of %d paired ratios: %.2fx\n" "" rounds ratio;
    (match (before, Shard.Router.hot_stats hot) with
    | Some b, Some a ->
        let probes =
          a.Shard.Hotcache.s_hits + a.Shard.Hotcache.s_misses - b.Shard.Hotcache.s_hits
          - b.Shard.Hotcache.s_misses
        in
        let gets = rounds * row_scale.ops * 31 / 32 in
        row "%-28s coverage: %d probes / ~%d gets = %.0f%%  hotkeys=%d\n" "" probes gets
          (100.0 *. float_of_int probes /. float_of_int gets)
          (Shard.Router.hot_key_count hot)
    | _ -> ());
    results :=
      { o_workload = workload; o_mitigation = true; o_ops = h_ops; o_imbalance = h_imb;
        o_hit_rate = hit_rate }
      :: { o_workload = workload; o_mitigation = false; o_ops = p_ops; o_imbalance = p_imb;
           o_hit_rate = 0.0 }
      :: !results;
    ratio
  in
  let u_ratio = run_pair "uniform" uniform_next in
  let z_ratio = run_pair "zipfian(0.99)" zipf_next in
  (* Modeled hard-partitioned baseline: same key population and draws,
     same imbalance metric from its per-partition load counters. *)
  subheader "modeled hard-partitioned baseline (per-partition load counters)";
  let part = Baselines.Partitioned.create ~parts:shards in
  Array.iter (fun k -> ignore (Baselines.Partitioned.put part k 1)) keys;
  let model_imbalance draw =
    Baselines.Partitioned.reset_load_counts part;
    let rng = Xutil.Rng.create 0xBA5EL in
    for _ = 1 to scale.model_ops do
      ignore (Baselines.Partitioned.get part keys.(draw rng))
    done;
    Shard.Router.imbalance_pct (Baselines.Partitioned.load_counts part)
  in
  let model_u = model_imbalance uniform in
  let model_z = model_imbalance zipfian in
  let real_u = (List.find (fun o -> o.o_workload = "uniform" && not o.o_mitigation) !results).o_imbalance in
  let real_z = (List.find (fun o -> o.o_workload = "zipfian(0.99)" && not o.o_mitigation) !results).o_imbalance in
  row "%-10s %28s %28s\n" "workload" "modeled imbalance (%)" "real tier imbalance (%)";
  row "%-10s %28.1f %28.1f\n" "uniform" model_u real_u;
  row "%-10s %28.1f %28.1f\n" "zipfian" model_z real_z;
  (* Acceptance: on the median paired ratios.  The smoke scale exists to
     exercise the code path in CI seconds — its rows are far too short
     for the ~1% uniform overhead to rise above host noise, so verdicts
     are informational there instead of PASS/FAIL. *)
  let speedup = z_ratio in
  let u_delta = abs_float (u_ratio -. 1.0) *. 100.0 in
  let verdict ok = if scale.smoke then "smoke scale, informational" else if ok then "PASS" else "FAIL" in
  row "zipfian mitigation speedup: %.2fx  (acceptance: >= 1.5x: %s)\n" speedup
    (verdict (speedup >= 1.5));
  row "uniform mitigation delta: %.1f%%  (acceptance: within 5%%: %s)\n" u_delta
    (verdict (u_delta <= 5.0));
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"shards\": %d,\n" shards);
  Buffer.add_string buf (Printf.sprintf "  \"driver_domains\": %d,\n" domains);
  Buffer.add_string buf (Printf.sprintf "  \"keys\": %d,\n" n);
  Buffer.add_string buf (Printf.sprintf "  \"zipf_theta\": %.2f,\n" theta);
  Buffer.add_string buf "  \"results\": [\n";
  let results = List.rev !results in
  List.iteri
    (fun i o ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"workload\": \"%s\", \"mitigation\": %b, \"ops_per_sec\": %.0f, \
            \"shard_imbalance_pct\": %.1f, \"hot_hit_rate_pct\": %.1f}%s\n"
           o.o_workload o.o_mitigation o.o_ops o.o_imbalance o.o_hit_rate
           (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"modeled_partitioned_imbalance_pct\": {\"uniform\": %.1f, \"zipfian\": %.1f},\n"
       model_u model_z);
  Buffer.add_string buf (Printf.sprintf "  \"zipf_mitigation_speedup\": %.2f,\n" speedup);
  Buffer.add_string buf (Printf.sprintf "  \"uniform_mitigation_delta_pct\": %.1f,\n" u_delta);
  Buffer.add_string buf
    (Printf.sprintf "  \"acceptance_zipf_speedup_ge_1_5\": %b,\n" (speedup >= 1.5));
  Buffer.add_string buf
    (Printf.sprintf "  \"acceptance_uniform_within_5pct\": %b\n}\n" (u_delta <= 5.0));
  write_result ~scale "BENCH_shard.json" (Buffer.contents buf);
  Shard.Router.close hot
