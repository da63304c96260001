(* The standing workloads and run sizes.

   Workload names are final: later changes cite them.  Each workload is
   chosen to exercise some layers and bypass others, so that a change to
   one layer has a workload where it should move the numbers and one
   where it should not (README.md has the full table). *)

type traffic = Uniform_gets | Mix of Workload.Ycsb.mix

type t = {
  name : string;
  traffic : traffic;
  ops_per_frame : int;
  mtd_flags : string list; (* on top of [base_flags] *)
  window : int; (* closed-loop frames in flight per connection *)
  open_rate : float;
      (* open-loop frames per second over both connections, frozen: never
         recomputed from a later commit.  About a quarter to a third of
         the closed-loop throughput measured on the 2-vCPU test host, so
         that the host's slow spells do not turn the open loop into an
         overload test. *)
  wakeup_frames : int; (* frames per Engine.execute_frames call in the replay *)
  replay_ops : int; (* ops replayed in-process per layer by a traced run *)
}

let base_flags = [ "--reactor"; "--net-domains"; "1"; "--logs"; "1" ]

let all =
  [
    (* 32 uniform gets per frame amortise the network, so pipelined tree
       descents that miss in cache do most of the work; no writes reach
       the logger, MVCC or checkpoints. *)
    {
      name = "get-uniform-b32";
      traffic = Uniform_gets;
      ops_per_frame = 32;
      mtd_flags = [];
      window = 4;
      open_rate = 3_000.;
      wakeup_frames = 4;
      replay_ops = 200_000;
    };
    (* Writes beside reads: logger group commit, version minting and MVCC
       chains pinned by back-to-back snapshot checkpoints, with per-frame
       network cost dominating and short runs of gets for the merge. *)
    {
      name = "ycsb-a-ckpt";
      traffic = Mix Workload.Ycsb.A;
      ops_per_frame = 1;
      mtd_flags = [ "--checkpoint-secs"; "2" ];
      window = 16;
      (* Lower still: with mtd on one CPU a checkpoint stalls the reactor
         for up to ~0.5 s, and the backlog a higher rate builds meanwhile
         reaches the client's 10k-per-connection cap. *)
      open_rate = 25_000.;
      wakeup_frames = 16;
      replay_ops = 200_000;
    };
    (* Serial tree scans and large responses through protocol encode and
       write coalescing; no multi-get merge at all. *)
    {
      name = "ycsb-e";
      traffic = Mix Workload.Ycsb.E;
      ops_per_frame = 1;
      mtd_flags = [];
      window = 8;
      open_rate = 8_000.;
      wakeup_frames = 8;
      replay_ops = 40_000;
    };
    (* The only workload where the shard router and the hot-key cache
       run. *)
    {
      name = "ycsb-b-sharded-hot";
      traffic = Mix Workload.Ycsb.B;
      ops_per_frame = 1;
      mtd_flags = [ "--shards"; "2"; "--hot-keys"; "1024" ];
      window = 16;
      open_rate = 60_000.;
      wakeup_frames = 16;
      replay_ops = 200_000;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Sizes of one run.  [seconds] is the measured window, split over the
   warmup, saturation, round-trip and open-loop phases. *)
type sizes = {
  records : int;
  seconds : float;
  setups : int; (* set-ups per run; [setup_s] is their median *)
  sample : int; (* keys read back by the durability check *)
  rate_scale : float; (* multiplies every open-loop rate *)
  replay_scale : float; (* multiplies every [replay_ops] *)
  closed_pool : int; (* pre-encoded ops cycled by the closed-loop phases *)
}

let full ~seconds =
  {
    records = 100_000;
    seconds;
    setups = 3;
    sample = 10_000;
    rate_scale = 1.0;
    replay_scale = 1.0;
    closed_pool = 200_000;
  }

(* The test-suite variant: every workload and the traced replay on a
   small dataset at a quarter of the open-loop rate, so that a loaded
   build machine does not turn it into an overload test. *)
let smoke =
  {
    records = 20_000;
    seconds = 1.2;
    setups = 1;
    sample = 2_000;
    rate_scale = 0.25;
    replay_scale = 0.05;
    closed_pool = 20_000;
  }

type phases = { warmup : float; sat : float; rtt : float; open_ : float }

let phases s =
  { warmup = 0.05 *. s; sat = 0.45 *. s; rtt = 0.1 *. s; open_ = 0.4 *. s }

let replay_ops w sizes = max 1_000 (int_of_float (float w.replay_ops *. sizes.replay_scale))

(* Reported metrics and their units; BENCHMARK.json lists the same. *)
let e2e_metrics =
  [
    ("setup_s", "s");
    ("ops_per_s", "ops/s");
    ("p50_us", "us");
    ("rss_mb", "MiB");
  ]

let layer_metrics =
  [
    ("net.rtt0_us", "us");
    ("net.rtt1_us", "us");
    ("net.frames_per_wakeup_mean", "frames");
    ("net.flushes_per_kframe", "1/kframe");
    ("net.bytes_out_per_op", "B");
    ("net.buf_grows", "count");
    ("protocol.decode_ns_per_op", "ns");
    ("protocol.encode_ns_per_op", "ns");
    ("engine.self_ns_per_op", "ns");
    ("engine.keys_per_multiget", "keys");
    ("router.self_ns_per_op", "ns");
    ("router.imbalance_pct", "%");
    ("hotcache.hit_pct", "%");
    ("hotcache.invalidations_per_kput", "1/kput");
    ("store.self_get_ns_per_key", "ns");
    ("store.self_put_ns", "ns");
    ("store.self_scan_ns_per_key", "ns");
    ("mvcc.chain_len_mean", "versions");
    ("mvcc.snapshots_per_min", "1/min");
    ("tree.multiget_ns_per_key", "ns");
    ("tree.update_ns", "ns");
    ("tree.scan_ns_per_key", "ns");
    ("tree.root_retries_per_mop", "1/Mop");
    ("tree.local_retries_per_mop", "1/Mop");
    ("tree.pipeline_restarts_per_mop", "1/Mop");
    ("pool.footprint_mb", "MiB");
    ("logger.append_ns", "ns");
    ("ckpt.duration_s", "s");
    ("logger.bytes_per_put", "B");
    ("logger.fsync_mean_us", "us");
    ("logger.commit_lag_mean_us", "us");
    ("gc.minor_per_kop", "1/kop");
    ("gc.major_per_kop", "1/kop");
    ("gc.alloc_words_per_op", "words");
    ("client.cpu_pct", "%");
    ("client.gen_late_p99_us", "us");
    ("trace.overhead_pct", "%");
    ("ledger.residual_pct", "%");
  ]
