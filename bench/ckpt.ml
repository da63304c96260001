(* §5 persistence costs: checkpoint duration, recovery duration, and put
   throughput while a checkpoint runs concurrently.

   Paper reference (140M pairs, 9.1 GB, 4 SSDs): 58 s to checkpoint, 38 s
   to recover, and a put-only workload at 72% of normal throughput during
   a concurrent checkpoint.  Scaled here to the bench key count; the
   readout that matters is the ratio and that both paths work. *)

open Bench_util

let run scale =
  header "§5: checkpoint and recovery";
  let dir = Xutil.Tmpdir.scoped "ckptbench" in
  let log_paths = List.init 2 (fun i -> Filename.concat dir (Printf.sprintf "log%d" i)) in
  let logs = Array.of_list (List.map Persist.Logger.create log_paths) in
  let store = Kvstore.Store.create ~logs () in
  let rng = Xutil.Rng.create 77L in
  let gen = Workload.Keygen.decimal_1_10 ~range:(1 lsl 30) in
  let keys = Array.init scale.keys (fun _ -> gen rng) in
  Array.iteri (fun i k -> Kvstore.Store.put ~worker:(i land 1) store k [| "0123456789" |]) keys;
  let nkeys = Kvstore.Store.cardinal store in

  (* Checkpoint duration. *)
  let ck1 = Filename.concat dir "ckpt-1" in
  let t0 = Xutil.Clock.now_ns () in
  (match Kvstore.Store.checkpoint store ~dir:ck1 ~writers:2 with
  | Ok _ -> ()
  | Error e -> failwith e);
  let ckpt_s = Xutil.Clock.elapsed_s t0 in
  row "checkpoint of %d pairs: %.2f s (%.2f Mpairs/s; paper: 140M pairs in 58 s = 2.4 \
       Mpairs/s)\n"
    nkeys ckpt_s
    (float_of_int nkeys /. ckpt_s /. 1e6);

  (* Put throughput without vs with a concurrent checkpoint. *)
  let n = Array.length keys in
  let puts_rate () =
    measure ~scale:{ scale with ops = scale.ops / 2 } ~domains:scale.domains
      (fun d rng -> Kvstore.Store.put ~worker:d store keys.(Xutil.Rng.int rng n) [| "x" |])
  in
  let base = puts_rate () in
  let ck_running = Atomic.make true in
  let ck_thread =
    Thread.create
      (fun () ->
        let i = ref 0 in
        while Atomic.get ck_running do
          incr i;
          match
            Kvstore.Store.checkpoint store
              ~dir:(Filename.concat dir (Printf.sprintf "ckpt-bg-%d" !i))
              ~writers:2
          with
          | Ok _ -> ()
          | Error e -> Printf.eprintf "bg checkpoint failed: %s\n" e
        done)
      ()
  in
  let during = puts_rate () in
  Atomic.set ck_running false;
  Thread.join ck_thread;
  row "puts: %.2f Mops/s normally, %.2f Mops/s during checkpoint = %.0f%% (paper: 72%%)\n"
    (mops base) (mops during)
    (during /. base *. 100.0);

  (* MVCC foreground interference: put latency idle vs with snapshot
     checkpoints running (the non-blocking claim, docs/MVCC.md).  The
     snapshot walk pins the version horizon, so concurrent puts pay the
     chain-install path instead of racing the dump — the readout is the
     put p99 and the retained-version bound after the horizon clears. *)
  subheader "mvcc: put latency under a concurrent checkpoint";
  let measure_put_lat () =
    let per_domain = max 1 (scale.ops / 2 / scale.domains) in
    let hists = Array.init scale.domains (fun _ -> Xutil.Histogram.create ()) in
    let barrier = Xutil.Barrier.create scale.domains in
    let t_start = ref 0L in
    let totals = Array.make scale.domains 0 in
    ignore
      (Xutil.Domain_pool.run scale.domains (fun d ->
           let rng = Xutil.Rng.create (Int64.of_int (0x5EED + d)) in
           Xutil.Barrier.wait barrier;
           if d = 0 then t_start := Xutil.Clock.now_ns ();
           let deadline =
             Int64.add (Xutil.Clock.now_ns ())
               (Int64.of_float (scale.seconds *. 1e9))
           in
           let i = ref 0 in
           while
             !i < per_domain
             && (!i land 0xFFF <> 0
                || Int64.compare (Xutil.Clock.now_ns ()) deadline < 0)
           do
             let s = Xutil.Clock.now_ns () in
             Kvstore.Store.put ~worker:d store keys.(Xutil.Rng.int rng n) [| "x" |];
             Xutil.Histogram.add hists.(d)
               (Int64.to_int (Int64.sub (Xutil.Clock.now_ns ()) s) / 1000);
             incr i
           done;
           totals.(d) <- !i));
    let dt = Xutil.Clock.elapsed_s !t_start in
    let lat = Xutil.Histogram.create () in
    Array.iter (fun h -> Xutil.Histogram.merge_into ~dst:lat h) hists;
    let total = Array.fold_left ( + ) 0 totals in
    (float_of_int total /. dt, Xutil.Histogram.percentile lat 50.0,
     Xutil.Histogram.percentile lat 99.0)
  in
  let with_bg_ckpt f =
    let running = Atomic.make true in
    let th =
      Thread.create
        (fun () ->
          let i = ref 0 in
          while Atomic.get running do
            incr i;
            match
              Kvstore.Store.checkpoint store
                ~dir:(Filename.concat dir (Printf.sprintf "ckpt-mv-%d" !i))
                ~writers:2
            with
            | Ok _ -> ()
            | Error e -> Printf.eprintf "bg checkpoint failed: %s\n" e
          done)
        ()
    in
    let r = f () in
    Atomic.set running false;
    Thread.join th;
    r
  in
  let idle_rate, idle_p50, idle_p99 = measure_put_lat () in
  let snap_rate, snap_p50, snap_p99 = with_bg_ckpt measure_put_lat in
  (* After the horizon clears, pruning must collapse every chain the
     snapshot checkpoints pinned. *)
  Kvstore.Store.prune store;
  let residual = Kvstore.Store.mvcc_versions_live store in
  row "puts idle:            %.2f Mops/s, p50 %d us, p99 %d us\n"
    (mops idle_rate) idle_p50 idle_p99;
  row "puts + snapshot ckpt: %.2f Mops/s, p50 %d us, p99 %d us (%.0f%% of idle)\n"
    (mops snap_rate) snap_p50 snap_p99
    (snap_rate /. idle_rate *. 100.0);
  row "versions live after horizon cleared + prune: %d\n" residual;
  write_result ~scale "BENCH_mvcc.json"
  @@ Printf.sprintf
    "{\n\
    \  \"keys\": %d,\n\
    \  \"domains\": %d,\n\
    \  \"rows\": [\n\
    \    {\"mode\": \"idle\", \"ops_per_sec\": %.0f, \"p50_us\": %d, \"p99_us\": %d},\n\
    \    {\"mode\": \"snapshot_ckpt\", \"ops_per_sec\": %.0f, \"p50_us\": %d, \"p99_us\": %d}\n\
    \  ],\n\
    \  \"snapshot_ckpt_rate_vs_idle\": %.3f,\n\
    \  \"versions_live_after_prune\": %d\n\
     }\n"
    nkeys scale.domains idle_rate idle_p50 idle_p99 snap_rate snap_p50 snap_p99
    (snap_rate /. idle_rate) residual;

  (* Recovery duration. *)
  Kvstore.Store.close store;
  let t0 = Xutil.Clock.now_ns () in
  (match Kvstore.Store.recover ~log_paths ~checkpoint_dirs:[ ck1 ] () with
  | Ok (recovered, stats) ->
      let rec_s = Xutil.Clock.elapsed_s t0 in
      row "recovery: %.2f s for %d keys (checkpoint entries %d, log records %d; paper: \
           38 s for 140M)\n"
        rec_s
        (Kvstore.Store.cardinal recovered)
        stats.Persist.Recovery.checkpoint_entries stats.Persist.Recovery.records_applied
  | Error e -> failwith e)
