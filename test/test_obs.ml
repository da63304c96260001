(* lib/obs: counter integrity under concurrent domains, slow-op ring
   overwrite semantics, snapshot wire codec, and a loopback round trip of
   the Stats request against a live server stack. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Counter increments are atomic per shard: no update is ever lost, no
   matter how worker ids collide across domains. *)
let test_counters_concurrent () =
  let reg = Obs.Registry.create ~shards:4 () in
  let c = Obs.Registry.counter reg "ops" in
  let domains = 4 and per = 25_000 in
  ignore
    (Xutil.Domain_pool.run domains (fun d ->
         for i = 1 to per do
           (* Mix explicit worker ids (colliding across domains) with the
              domain-id default. *)
           if i land 1 = 0 then Obs.Registry.incr ~worker:(i land 7) c
           else Obs.Registry.incr c;
           ignore d
         done));
  check_int "no increment lost" (domains * per) (Obs.Registry.counter_value c);
  let snap = Obs.Registry.snapshot reg in
  check_int "snapshot agrees" (domains * per)
    (List.assoc "ops" snap.Obs.Snapshot.counters)

let test_counter_identity_and_disable () =
  let reg = Obs.Registry.create () in
  let a = Obs.Registry.counter reg "x" in
  let b = Obs.Registry.counter reg "x" in
  Obs.Registry.add a 5;
  Obs.Registry.incr b;
  check_int "same name, same counter" 6 (Obs.Registry.counter_value a);
  Obs.Registry.set_enabled reg false;
  Obs.Registry.incr a;
  check_int "disabled: no-op" 6 (Obs.Registry.counter_value a);
  Obs.Registry.set_enabled reg true;
  Obs.Registry.incr a;
  check_int "re-enabled: counts again" 7 (Obs.Registry.counter_value a)

let test_histogram_shards () =
  let reg = Obs.Registry.create ~shards:8 () in
  let h = Obs.Registry.histogram reg "lat" in
  for w = 0 to 7 do
    for _ = 1 to 100 do
      Obs.Registry.observe ~worker:w h ((w + 1) * 10)
    done
  done;
  let snap = Obs.Registry.snapshot reg in
  let s = List.assoc "lat" snap.Obs.Snapshot.hists in
  check_int "all samples merged" 800 s.Obs.Snapshot.count;
  check_int "min" 10 s.Obs.Snapshot.minimum;
  check_int "max" 80 s.Obs.Snapshot.maximum;
  check_bool "p50 in range" true (s.Obs.Snapshot.p50 >= 10 && s.Obs.Snapshot.p50 <= 80)

(* Shards allocate their buckets on the first sample: one domain
   observing a 16-shard histogram costs one bucket array, and the merged
   snapshot matches a single histogram fed the same samples. *)
let test_histogram_lazy_shards () =
  let reg = Obs.Registry.create ~shards:16 () in
  let h = Obs.Registry.histogram reg "lazy" in
  check_int "nothing allocated before a sample" 0 (Obs.Registry.allocated_shards h);
  let empty = List.assoc "lazy" (Obs.Registry.snapshot reg).Obs.Snapshot.hists in
  check_int "empty count" 0 empty.Obs.Snapshot.count;
  check_int "empty p99" 0 empty.Obs.Snapshot.p99;
  let single = Xutil.Histogram.create () in
  let rng = Xutil.Rng.create 7L in
  for _ = 1 to 5_000 do
    let v = Xutil.Rng.int rng 100_000 in
    Obs.Registry.observe h v;
    Xutil.Histogram.add single v
  done;
  check_int "one shard allocated" 1 (Obs.Registry.allocated_shards h);
  let got = List.assoc "lazy" (Obs.Registry.snapshot reg).Obs.Snapshot.hists in
  let want = Obs.Snapshot.summarize single in
  check_int "count" want.Obs.Snapshot.count got.Obs.Snapshot.count;
  check_int "sum" want.Obs.Snapshot.sum got.Obs.Snapshot.sum;
  check_int "min" want.Obs.Snapshot.minimum got.Obs.Snapshot.minimum;
  check_int "max" want.Obs.Snapshot.maximum got.Obs.Snapshot.maximum;
  check_int "p50" want.Obs.Snapshot.p50 got.Obs.Snapshot.p50;
  check_int "p90" want.Obs.Snapshot.p90 got.Obs.Snapshot.p90;
  check_int "p99" want.Obs.Snapshot.p99 got.Obs.Snapshot.p99;
  check_int "p999" want.Obs.Snapshot.p999 got.Obs.Snapshot.p999;
  Obs.Registry.reset reg;
  let cleared = List.assoc "lazy" (Obs.Registry.snapshot reg).Obs.Snapshot.hists in
  check_int "reset empties" 0 cleared.Obs.Snapshot.count;
  check_int "reset keeps one array" 1 (Obs.Registry.allocated_shards h)

let test_gauge_replace () =
  let reg = Obs.Registry.create () in
  Obs.Registry.gauge reg "g" (fun () -> 1);
  Obs.Registry.gauge reg "g" (fun () -> 2);
  Obs.Registry.gauge reg "boom" (fun () -> failwith "nope");
  let snap = Obs.Registry.snapshot reg in
  check_int "latest registration wins" 2 (List.assoc "g" snap.Obs.Snapshot.gauges);
  check_int "raising gauge reads 0" 0 (List.assoc "boom" snap.Obs.Snapshot.gauges)

(* The ring keeps the most recent [capacity] entries per worker and
   overwrites the oldest once full. *)
let test_trace_ring_overwrite () =
  let tr = Obs.Trace.create ~workers:2 ~capacity:4 ~threshold_us:0 () in
  for i = 1 to 10 do
    Obs.Trace.record tr ~worker:0 ~op:"get" ~key:(Printf.sprintf "k%02d" i)
      ~dur_us:i
  done;
  let entries = Obs.Trace.recent tr in
  check_int "capacity bounds retention" 4 (List.length entries);
  let durs = List.map (fun e -> e.Obs.Snapshot.dur_us) entries in
  check_bool "exactly the newest entries survive" true
    (List.sort compare durs = [ 7; 8; 9; 10 ]);
  (* Thresholding: below-threshold ops are not captured. *)
  Obs.Trace.set_threshold_us tr 1000;
  Obs.Trace.maybe_record tr ~worker:1 ~op:"get" ~key:"fast" ~dur_us:999;
  Obs.Trace.maybe_record tr ~worker:1 ~op:"get" ~key:"slow" ~dur_us:1000;
  let keys =
    List.map (fun e -> e.Obs.Snapshot.key) (Obs.Trace.recent tr)
  in
  check_bool "slow captured" true (List.mem "slow" keys);
  check_bool "fast skipped" true (not (List.mem "fast" keys));
  (* Key prefixes are truncated. *)
  Obs.Trace.record tr ~worker:1 ~op:"put" ~key:(String.make 100 'x') ~dur_us:5000;
  let longest =
    List.fold_left
      (fun acc e -> max acc (String.length e.Obs.Snapshot.key))
      0 (Obs.Trace.recent tr)
  in
  check_int "key prefix truncated" Obs.Trace.key_prefix_len longest

let test_snapshot_codec_roundtrip () =
  let snap =
    {
      Obs.Snapshot.taken_at_us = 1_234_567_890L;
      counters = [ ("ops.get", 42); ("ops.put", 0) ];
      gauges = [ ("masstree.root_retries", 3); ("weird.negative", -17) ];
      hists =
        [
          ( "lat_us.get",
            {
              Obs.Snapshot.count = 10;
              sum = 1000;
              minimum = 5;
              maximum = 400;
              p50 = 90;
              p90 = 200;
              p99 = 390;
              p999 = 400;
            } );
        ];
      slow =
        [
          {
            Obs.Snapshot.at_us = 99L;
            worker = 7;
            op = "scan";
            key = "user:\x00\xff";
            dur_us = 123_456;
          };
        ];
    }
  in
  let w = Xutil.Binio.writer () in
  Obs.Snapshot.write w snap;
  let decoded = Obs.Snapshot.read (Xutil.Binio.reader (Xutil.Binio.contents w)) in
  check_bool "roundtrip" true (decoded = snap);
  check_bool "truncated input rejected" true
    (match
       Obs.Snapshot.read
         (Xutil.Binio.reader (String.sub (Xutil.Binio.contents w) 0 10))
     with
    | _ -> false
    | exception Xutil.Binio.Truncated -> true)

(* Full stack: requests over the loopback transport, telemetry recorded
   by the engine, Stats snapshot back over the wire. *)
let test_stats_over_loopback () =
  let g = Obs.Registry.global in
  Obs.Registry.reset g;
  Obs.Registry.set_enabled g true;
  let dir = Xutil.Tmpdir.scoped "obsrv" in
  let logs =
    [| Persist.Logger.create ~synchronous:true (Filename.concat dir "log0") |]
  in
  let store = Kvstore.Store.create ~logs () in
  Kvstore.Store.register_obs store;
  let server = Kvserver.Loopback.start ~workers:1 (Kvserver.Engine.single store) in
  let conn = Kvserver.Loopback.connect server in
  ignore
    (Kvserver.Loopback.call conn
       [
         Kvserver.Protocol.Put { key = "a"; columns = [| "1" |] };
         Kvserver.Protocol.Put { key = "b"; columns = [| "2" |] };
         Kvserver.Protocol.Get { key = "a"; columns = [] };
         Kvserver.Protocol.Getrange { start = ""; count = 10; columns = [] };
       ]);
  let snap =
    match Kvserver.Loopback.call conn [ Kvserver.Protocol.Stats ] with
    | [ Kvserver.Protocol.Stats_reply s ] -> s
    | _ -> Alcotest.fail "expected Stats_reply"
  in
  let counter n = List.assoc n snap.Obs.Snapshot.counters in
  let gauge n = List.assoc n snap.Obs.Snapshot.gauges in
  let hist n = List.assoc n snap.Obs.Snapshot.hists in
  check_int "ops.put" 2 (counter "ops.put");
  check_int "ops.get" 1 (counter "ops.get");
  check_int "ops.scan" 1 (counter "ops.scan");
  check_int "ops.failed" 0 (counter "ops.failed");
  check_int "put latency count" 2 (hist "lat_us.put").Obs.Snapshot.count;
  check_bool "masstree gauge live" true (gauge "masstree.puts" >= 2);
  (* Synchronous logger: both puts flushed and fsynced already. *)
  check_bool "log flushes recorded" true (counter "log.flushes" >= 2);
  check_bool "fsync latency recorded" true
    ((hist "log.fsync_us").Obs.Snapshot.count >= 2);
  check_int "log buffer drained" 0 (gauge "log.buffered_bytes");
  (* Capture everything: with the threshold at 0 the Stats request itself
     must show up in the slow-op ring on the next snapshot. *)
  Obs.Trace.set_threshold_us (Obs.Registry.trace g) 0;
  ignore (Kvserver.Loopback.call conn [ Kvserver.Protocol.Get { key = "a"; columns = [] } ]);
  let snap2 =
    match Kvserver.Loopback.call conn [ Kvserver.Protocol.Stats ] with
    | [ Kvserver.Protocol.Stats_reply s ] -> s
    | _ -> Alcotest.fail "expected Stats_reply"
  in
  check_bool "slow ops captured" true (snap2.Obs.Snapshot.slow <> []);
  Obs.Trace.set_threshold_us (Obs.Registry.trace g) 1000;
  Kvserver.Loopback.close_conn conn;
  Kvserver.Loopback.stop server;
  Kvstore.Store.close store

let suite =
  [
    Alcotest.test_case "counters under concurrent domains" `Quick
      test_counters_concurrent;
    Alcotest.test_case "counter identity + disable" `Quick
      test_counter_identity_and_disable;
    Alcotest.test_case "histogram shards merge" `Quick test_histogram_shards;
    Alcotest.test_case "histogram shards allocate lazily" `Quick
      test_histogram_lazy_shards;
    Alcotest.test_case "gauge replace + failure" `Quick test_gauge_replace;
    Alcotest.test_case "trace ring overwrite" `Quick test_trace_ring_overwrite;
    Alcotest.test_case "snapshot codec roundtrip" `Quick
      test_snapshot_codec_roundtrip;
    Alcotest.test_case "stats over loopback" `Quick test_stats_over_loopback;
  ]
