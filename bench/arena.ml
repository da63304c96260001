(* bench arena: the off-heap node arena vs the boxed baseline.

   The tentpole claim (docs/MEMORY.md): moving border-node key payloads
   into pooled Bigarray slabs removes the OCaml-heap allocation that the
   boxed layout pays on the write path (boxed slices, suffix strings,
   node key arrays), which in turn removes the major-GC work that
   allocation buys — visible as the write-latency tail under a
   write-heavy zipfian soak.

   Both engines run the same single-domain workload (the container is
   1-core; concurrency is schedsim's and soak's job): preload the key
   population, then a 70/15/15 put/remove/get zipfian mix, sampling
   per-op latency in nanoseconds and — through [Runtime_events] — the
   runtime's own GC phase spans, which give the real pause distribution
   ([Gc.quick_stat] has no durations): every EV_MINOR and EV_MAJOR
   begin/end pair on the bench domain is one stop-the-world pause.

   Exit criteria (enforced here, not just reported): hot-path heap
   allocation per op down >= 50% vs the boxed baseline, and — at full
   scale, where the numbers are stable — an improved write p99 or max GC
   pause.  (The boxed baseline is the {e single-threaded} tree: it pays
   no version-validation, lock, or epoch cost, so raw p99 is an uphill
   comparison for the concurrent pooled tree; what the arena buys
   directly is the GC side, which is exactly what the pause gate
   checks.)  The pool leak oracle (allocs == frees + reachable after
   quiesce) must pass in every mode.  Results land in BENCH_arena.json. *)

open Bench_util

(* GC pause recorder: pair runtime-phase begin/end events from the
   self-monitoring Runtime_events cursor.  Only the outer EV_MINOR /
   EV_MAJOR spans are kept — inner phases (mark, sweep, local roots) nest
   inside them. *)
type pauses = {
  mutable min_begin : int64; (* -1L = no open span *)
  mutable maj_begin : int64;
  minor_h : Xutil.Histogram.t;
  major_h : Xutil.Histogram.t;
  mutable lost : int;
}

let fresh_pauses () =
  {
    min_begin = -1L;
    maj_begin = -1L;
    minor_h = Xutil.Histogram.create ();
    major_h = Xutil.Histogram.create ();
    lost = 0;
  }

let pause_callbacks p =
  let open Runtime_events in
  let span ts opened h =
    if opened >= 0L then
      Xutil.Histogram.add h (Int64.to_int (Int64.sub (Timestamp.to_int64 ts) opened))
  in
  Callbacks.create
    ~runtime_begin:(fun _ring ts phase ->
      match phase with
      | EV_MINOR -> p.min_begin <- Timestamp.to_int64 ts
      | EV_MAJOR -> p.maj_begin <- Timestamp.to_int64 ts
      | _ -> ())
    ~runtime_end:(fun _ring ts phase ->
      match phase with
      | EV_MINOR ->
          span ts p.min_begin p.minor_h;
          p.min_begin <- -1L
      | EV_MAJOR ->
          span ts p.maj_begin p.major_h;
          p.maj_begin <- -1L
      | _ -> ())
    ~lost_events:(fun _ring n -> p.lost <- p.lost + n)
    ()

let re_cursor =
  lazy
    (Runtime_events.start ();
     Runtime_events.create_cursor None)

let drain cursor cbs =
  while Runtime_events.read_poll cursor cbs None > 0 do
    ()
  done

type engine_result = {
  ename : string;
  rate : float; (* ops/s over the measured mix *)
  alloc_words_per_op : float;
  put_p50 : int;
  put_p99 : int;
  put_p999 : int;
  put_max : int; (* ns *)
  get_p50 : int;
  get_p99 : int;
  majors : int;
  minors : int;
  heap_delta_words : int;
  gc_minor_pauses : int;
  gc_minor_pause_p99 : int; (* ns *)
  gc_pause_max : int; (* ns, max over minor and major spans *)
  gc_major_pause_max : int; (* ns *)
}

let run_engine ~scale ~ename ~put ~get ~remove ~maintain =
  let nkeys = scale.keys and ops = scale.ops in
  (* Preload the population so the mix mutates a warm tree. *)
  for i = 0 to nkeys - 1 do
    ignore (put (string_of_int i) i)
  done;
  let rng = Xutil.Rng.create 4242L in
  let gen = Workload.Keygen.zipfian_decimal ~range:nkeys ~theta:0.99 in
  let put_h = Xutil.Histogram.create () in
  let get_h = Xutil.Histogram.create () in
  (* Level the field: start both engines from a settled heap. *)
  Gc.full_major ();
  (* Discard GC events from preload and the full_major, then record the
     measured region's pauses.  Polled at maintain points so the ring
     never wraps. *)
  let cursor = Lazy.force re_cursor in
  drain cursor (pause_callbacks (fresh_pauses ()));
  let pauses = fresh_pauses () in
  let pcbs = pause_callbacks pauses in
  let s0 = Gc.quick_stat () in
  let t_start = Xutil.Clock.now_ns () in
  for i = 1 to ops do
    let k = gen rng in
    let c = Xutil.Rng.int rng 100 in
    let t0 = Xutil.Clock.now_ns () in
    (if c < 70 then ignore (put k i)
     else if c < 85 then ignore (remove k)
     else ignore (get k));
    let dt = Int64.to_int (Int64.sub (Xutil.Clock.now_ns ()) t0) in
    (* Removes count as writes: they share the locked path and (pooled)
       drive retirement and coalescing. *)
    if c < 85 then Xutil.Histogram.add put_h dt else Xutil.Histogram.add get_h dt;
    if i land 0x3FFF = 0 then begin
      maintain ();
      drain cursor pcbs
    end
  done;
  maintain ();
  drain cursor pcbs;
  let dt_s = Xutil.Clock.elapsed_s t_start in
  let s1 = Gc.quick_stat () in
  let words =
    s1.Gc.minor_words -. s0.Gc.minor_words
    +. (s1.Gc.major_words -. s0.Gc.major_words)
    -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)
  in
  {
    ename;
    rate = float_of_int ops /. dt_s;
    alloc_words_per_op = words /. float_of_int ops;
    put_p50 = Xutil.Histogram.percentile put_h 50.0;
    put_p99 = Xutil.Histogram.percentile put_h 99.0;
    put_p999 = Xutil.Histogram.percentile put_h 99.9;
    put_max = Xutil.Histogram.max_value put_h;
    get_p50 = Xutil.Histogram.percentile get_h 50.0;
    get_p99 = Xutil.Histogram.percentile get_h 99.0;
    majors = s1.Gc.major_collections - s0.Gc.major_collections;
    minors = s1.Gc.minor_collections - s0.Gc.minor_collections;
    heap_delta_words = s1.Gc.heap_words - s0.Gc.heap_words;
    gc_minor_pauses = Xutil.Histogram.count pauses.minor_h;
    gc_minor_pause_p99 = Xutil.Histogram.percentile pauses.minor_h 99.0;
    gc_pause_max =
      max (Xutil.Histogram.max_value pauses.minor_h)
        (Xutil.Histogram.max_value pauses.major_h);
    gc_major_pause_max = Xutil.Histogram.max_value pauses.major_h;
  }

let print_result r =
  row
    "%-8s %8.2f Mops/s  alloc %7.1f words/op  put p50/p99/p999/max %6d/%6d/%7d/%8d ns  get p50/p99 %5d/%6d ns\n"
    r.ename (mops r.rate) r.alloc_words_per_op r.put_p50 r.put_p99 r.put_p999
    r.put_max r.get_p50 r.get_p99;
  row
    "         gc: %d minor / %d major collections, %d minor pauses (p99 %d ns), max pause %d ns (major %d ns)\n"
    r.minors r.majors r.gc_minor_pauses r.gc_minor_pause_p99 r.gc_pause_max
    r.gc_major_pause_max

(* Per-engine facts the parent needs from the pooled child: tree counters,
   pool occupancy, and the leak-oracle verdict. *)
type pool_report = {
  splits : int;
  merges : int;
  node_deletes : int;
  slot_reuses : int;
  cell_slabs : int;
  blob_slabs : int;
  cells_live : int;
  blobs_live : int;
  refills : int;
  footprint : int;
  leak : (unit, string) result;
}

(* Run one engine in a forked child so the two measurements cannot
   contaminate each other: without isolation, whichever engine runs second
   pays minor-GC and major-slice costs proportional to the first engine's
   surviving (and unswept) heap, which is exactly the effect under
   measurement.  The child marshals its result back over a pipe. *)
let in_child (f : unit -> 'a) : 'a =
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc (result : ('a, string) result) [];
      flush oc;
      (* _exit skips the runtime's teardown, which would otherwise remove
         the Runtime_events ring-buffer file; drop it ourselves. *)
      (try Sys.remove (string_of_int (Unix.getpid ()) ^ ".events")
       with Sys_error _ -> ());
      (* Skip at_exit: the parent owns stdout flushing and temp files. *)
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let result = (Marshal.from_channel ic : ('a, string) result) in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match result with
      | Ok r -> r
      | Error m -> failwith ("arena: engine child failed: " ^ m))

let run_boxed scale =
  in_child (fun () ->
      let t = Baselines.St_masstree.create () in
      run_engine ~scale ~ename:"boxed"
        ~put:(fun k v -> Baselines.St_masstree.put t k v)
        ~get:(fun k -> Baselines.St_masstree.get t k)
        ~remove:(fun k -> Baselines.St_masstree.remove t k)
        ~maintain:(fun () -> ()))

let run_pooled scale =
  in_child (fun () ->
      let t = Masstree_core.Tree.create () in
      let r =
        run_engine ~scale ~ename:"pooled"
          ~put:(fun k v -> Masstree_core.Tree.put t k v)
          ~get:(fun k -> Masstree_core.Tree.get t k)
          ~remove:(fun k -> Masstree_core.Tree.remove t k)
          ~maintain:(fun () -> Masstree_core.Tree.maintain t)
      in
      let stat c = Masstree_core.Stats.read (Masstree_core.Tree.stats t) c in
      let ps = Masstree_core.Pool.stats (Masstree_core.Tree.pool t) in
      let report =
        {
          splits = stat Masstree_core.Stats.Splits_border;
          merges = stat Masstree_core.Stats.Leaf_merges;
          node_deletes = stat Masstree_core.Stats.Node_deletes;
          slot_reuses = stat Masstree_core.Stats.Slot_reuses;
          cell_slabs = ps.Masstree_core.Pool.cell_slabs;
          blob_slabs = ps.Masstree_core.Pool.blob_slabs;
          cells_live = ps.Masstree_core.Pool.cells_live;
          blobs_live = ps.Masstree_core.Pool.blobs_live;
          refills = ps.Masstree_core.Pool.refills;
          footprint = Masstree_core.Pool.footprint_bytes (Masstree_core.Tree.pool t);
          leak = Masstree_core.Tree.pool_consistency t;
        }
      in
      (r, report))

let run scale =
  header "arena: pooled node storage vs boxed baseline (write-heavy zipf)";
  let smoke = scale.smoke in
  subheader
    (Printf.sprintf
       "%d keys, %d ops, 70/15/15 put/remove/get, zipf 0.99, one fresh process per engine"
       scale.keys scale.ops);

  let boxed = run_boxed scale in
  print_result boxed;
  let pooled, report = run_pooled scale in
  print_result pooled;

  row "pooled tree: %d border splits, %d leaf merges, %d node deletes, %d slot reuses\n"
    report.splits report.merges report.node_deletes report.slot_reuses;
  row
    "pool: %d cell slabs + %d blob slabs (%.1f MiB), %d cells live, %d blobs live, %d refills\n"
    report.cell_slabs report.blob_slabs
    (float_of_int report.footprint /. 1048576.0)
    report.cells_live report.blobs_live report.refills;

  (* Leak oracle: after the final maintain, allocs == frees + reachable. *)
  (match report.leak with
  | Ok () -> row "pool leak check: ok\n"
  | Error m -> failwith ("arena: pool leak check failed: " ^ m));

  let reduction =
    if boxed.alloc_words_per_op <= 0.0 then 0.0
    else
      (boxed.alloc_words_per_op -. pooled.alloc_words_per_op)
      /. boxed.alloc_words_per_op *. 100.0
  in
  row "hot-path heap allocation: %.1f -> %.1f words/op (%.0f%% reduction)\n"
    boxed.alloc_words_per_op pooled.alloc_words_per_op reduction;
  (* Gate: improved write p99 OR improved max major-GC pause.  The p99 arm
     compares a concurrent tree against a lock-free-of-charge
     single-threaded baseline, so it rarely wins on raw op cost; the pause
     arm is what the arena buys directly — promoting almost nothing means
     the major collector has almost nothing to mark, and its slices
     shrink. *)
  let tail_ok =
    pooled.put_p99 <= boxed.put_p99
    || pooled.gc_major_pause_max <= boxed.gc_major_pause_max
  in
  row "write tail: p99 %d vs %d ns; max major-gc pause %d vs %d ns (max any-gc %d vs %d ns) -> %s\n"
    pooled.put_p99 boxed.put_p99 pooled.gc_major_pause_max
    boxed.gc_major_pause_max pooled.gc_pause_max boxed.gc_pause_max
    (if tail_ok then "pooled no worse" else "pooled worse");

  (* The model's version of the same contrast (put path: GC allocator vs
     free-list pop), at the paper's scale. *)
  let model profile =
    let sim =
      run_model ~n:scale.model_keys ~ops:scale.model_ops
        (fun sim ~rank ~key_len -> profile sim ~n:scale.model_keys ~rank ~key_len Memsim.Profiles.Put)
    in
    Memsim.Model.cycles_per_op sim
  in
  let m_boxed = model (fun sim ~n ~rank ~key_len op -> Memsim.Profiles.masstree_op sim ~n ~rank ~key_len op) in
  let m_pooled = model (fun sim ~n ~rank ~key_len op -> Memsim.Profiles.masstree_pooled_op sim ~n ~rank ~key_len op) in
  row "modeled put cycles/op at %dM keys: boxed %.0f, pooled %.0f\n"
    (scale.model_keys / 1_000_000) m_boxed m_pooled;

  let emit r =
    Printf.sprintf
      "    {\"engine\": %S, \"ops_per_sec\": %.0f, \"alloc_words_per_op\": %.2f,\n\
      \     \"put_p50_ns\": %d, \"put_p99_ns\": %d, \"put_p999_ns\": %d, \"put_max_ns\": %d,\n\
      \     \"get_p50_ns\": %d, \"get_p99_ns\": %d,\n\
      \     \"minor_collections\": %d, \"major_collections\": %d, \"heap_delta_words\": %d,\n\
      \     \"gc_minor_pauses\": %d, \"gc_minor_pause_p99_ns\": %d,\n\
      \     \"gc_pause_max_ns\": %d, \"gc_major_pause_max_ns\": %d}"
      r.ename r.rate r.alloc_words_per_op r.put_p50 r.put_p99 r.put_p999
      r.put_max r.get_p50 r.get_p99 r.minors r.majors r.heap_delta_words
      r.gc_minor_pauses r.gc_minor_pause_p99 r.gc_pause_max r.gc_major_pause_max
  in
  write_result ~scale "BENCH_arena.json"
  @@ Printf.sprintf
    "{\n\
    \  \"keys\": %d,\n\
    \  \"ops\": %d,\n\
    \  \"mix\": \"put70/remove15/get15 zipf0.99\",\n\
    \  \"rows\": [\n%s,\n%s\n  ],\n\
    \  \"alloc_reduction_pct\": %.1f,\n\
    \  \"write_tail_no_worse\": %b,\n\
    \  \"leaf_merges\": %d,\n\
    \  \"pool_footprint_bytes\": %d,\n\
    \  \"modeled_put_cycles\": {\"boxed\": %.0f, \"pooled\": %.0f},\n\
    \  \"leak_check\": \"ok\"\n\
     }\n"
    scale.keys scale.ops (emit boxed) (emit pooled) reduction tail_ok
    report.merges report.footprint
    m_boxed m_pooled;

  (* Gate: the allocation reduction is deterministic enough to assert in
     every mode; the latency tail only at full scale, where one run's
     noise doesn't dominate. *)
  if reduction < 50.0 then
    failwith
      (Printf.sprintf "arena: alloc/op reduction %.1f%% below the 50%% target"
         reduction);
  if (not smoke) && not tail_ok then
    failwith "arena: pooled write tail regressed vs boxed baseline"
