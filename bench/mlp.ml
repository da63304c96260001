(* bench mlp — memory-level-parallel group get (EXPERIMENTS.md E15,
   docs/BATCHING.md).

   Two readouts, Fig-8 style:
   - real 1-core throughput of [Tree.multi_get] vs a
     sequential loop of [Tree.get] over identical key streams, across
     batch sizes {1,4,8,16,32} and key distributions (uniform, zipfian
     0.99, shared-prefix);
   - the memsim model's prediction for the same sweep: the sequential
     side replays the per-key pooled masstree walk, the pipelined side
     replays the identical trace level-synchronously through
     [Model.visit_group], so the only modeled difference is fetch
     overlap bounded by [Config.mlp_width].

   Gates (recorded in BENCH_mlp.json; the smoke gate exits non-zero so
   CI can block on it):
   - full scale: pipelined >= 1.15x sequential at some batch >= 8 on at
     least one distribution, and the model's speedup trend matches the
     measured trend's sign at every batch-size step (with a small noise
     band on the measured deltas);
   - smoke scale: pipelined >= sequential at some batch >= 8 on at
     least one distribution.  Smoke still floors the population at
     300k keys: a fully cached tree has no fetch latency to overlap,
     so the pipeline's bookkeeping would lose by construction; 300k
     outgrows L2, builds in under a second, and gives the smoke gate a
     signal that actually exercises the mechanism. *)

open Bench_util
module Tree = Masstree_core.Tree

let batch_sizes = [| 1; 4; 8; 16; 32 |]
let theta = 0.99
let prefix_len = 16

type dist = Uniform | Zipf | Prefix

let dist_name = function
  | Uniform -> "uniform"
  | Zipf -> Printf.sprintf "zipfian(%.2f)" theta
  | Prefix -> Printf.sprintf "shared-prefix(%d)" prefix_len

(* Model-side masstree shape per distribution: uniform/zipfian decimal
   keys are the paper's §6.2 population (a third of keys in layer-1
   nodes); the shared-prefix population pays two hot chained layers for
   its constant 16-byte prefix and nothing deeper. *)
let shape_of = function
  | Uniform | Zipf -> (0.33, 2.3, 0)
  | Prefix -> (0.0, 2.3, 2)

type cell = {
  c_dist : string;
  c_batch : int;
  c_seq : float; (* Mops/s, median *)
  c_pipe : float;
  c_speedup : float;
  c_model_speedup : float;
}

let median a =
  let s = Array.copy a in
  Array.sort compare s;
  s.(Array.length s / 2)

(* ---- real side (1 core) ---- *)

let build_population dist n =
  let rng = Xutil.Rng.create 0xFEED5EEDL in
  let gen =
    match dist with
    | Uniform | Zipf -> Workload.Keygen.decimal_1_10 ~range:(1 lsl 30)
    | Prefix -> Workload.Keygen.prefixed ~prefix_len
  in
  let t = Tree.create () in
  let pop = Array.init n (fun _ -> gen rng) in
  Array.iter (fun k -> ignore (Tree.put t k 1)) pop;
  (t, pop)

let index_stream dist n ops =
  let rng = Xutil.Rng.create 0xA11CE5L in
  match dist with
  | Uniform | Prefix -> Array.init ops (fun _ -> Xutil.Rng.int rng n)
  | Zipf ->
      let z = Workload.Zipf.create ~theta ~n () in
      Array.init ops (fun _ -> Workload.Zipf.scramble z rng)

(* One timed pass over the whole index stream in batches of [b].  The
   sequential side fills the same scratch batch array, so both sides pay
   identical stream-handling costs and differ only in traversal. *)
let run_pass t pop idx b pipelined =
  let batch = Array.make b "" in
  let sink = ref 0 in
  let nidx = Array.length idx in
  let i = ref 0 in
  while !i + b <= nidx do
    for j = 0 to b - 1 do
      batch.(j) <- pop.(idx.(!i + j))
    done;
    if pipelined then
      Array.iter
        (function Some _ -> incr sink | None -> ())
        (Tree.multi_get t batch)
    else
      for j = 0 to b - 1 do
        match Tree.get t batch.(j) with Some _ -> incr sink | None -> ()
      done;
    i := !i + b
  done;
  (!sink, !i)

let measure_real t pop idx b ~reps =
  let tput pipelined =
    let t0 = Xutil.Clock.now_ns () in
    let _, ops = run_pass t pop idx b pipelined in
    float_of_int ops /. Xutil.Clock.elapsed_s t0
  in
  ignore (run_pass t pop idx b false);
  ignore (run_pass t pop idx b true);
  let seqs = Array.make reps 0.0 and pipes = Array.make reps 0.0 in
  for r = 0 to reps - 1 do
    (* Alternate sides within each rep so drift hits both equally. *)
    seqs.(r) <- tput false;
    pipes.(r) <- tput true
  done;
  (median seqs, median pipes)

(* ---- modeled side (1 core) ---- *)

let model_speedup ~model_n ~ops dist b =
  let layer_frac, avg_layer_keys, shared_prefix_layers = shape_of dist in
  let cycles pipelined =
    let sim = Memsim.Model.create () in
    let pass measuring =
      let rng = Xutil.Rng.create 7L in
      let next =
        match dist with
        | Uniform | Prefix -> fun () -> Xutil.Rng.int rng model_n
        | Zipf ->
            let z = Workload.Zipf.create ~theta ~n:model_n () in
            fun () -> Workload.Zipf.scramble z rng
      in
      for _ = 1 to max 1 (ops / b) do
        let ranks = Array.init b (fun _ -> next ()) in
        let key_lens =
          match dist with
          | Prefix -> Array.make b (prefix_len + 8)
          | Uniform | Zipf ->
              Array.map (fun r -> String.length (string_of_int r)) ranks
        in
        if pipelined then
          Memsim.Profiles.masstree_group_get sim ~n:model_n ~ranks ~key_lens
            ~layer_frac ~avg_layer_keys ~shared_prefix_layers ()
        else
          Array.iteri
            (fun i r ->
              Memsim.Profiles.masstree_pooled_op sim ~n:model_n ~rank:r
                ~key_len:key_lens.(i) ~layer_frac ~avg_layer_keys
                ~shared_prefix_layers Memsim.Profiles.Get)
            ranks
      done;
      if not measuring then Memsim.Model.reset sim
    in
    pass false;
    pass true;
    Memsim.Model.cycles_per_op sim
  in
  cycles false /. cycles true

(* ---- trend comparison ---- *)

(* The measured curve is noisy where the modeled one is smooth: on the
   shared host each side's median throughput wobbles ~5%, so a
   step-to-step delta of speedup ratios wobbles ~0.1-0.15.  Treat a
   measured delta within [noise] of flat as agreeing with either modeled
   direction; only a clear measured move *against* the model's direction
   fails the trend gate. *)
let noise = 0.15

let trend_matches cells =
  let ok = ref true in
  for i = 1 to Array.length cells - 1 do
    let dm = cells.(i).c_speedup -. cells.(i - 1).c_speedup in
    let dp = cells.(i).c_model_speedup -. cells.(i - 1).c_model_speedup in
    let agree =
      if dp >= 0.0 then dm >= -.noise else dm <= noise
    in
    if not agree then ok := false
  done;
  !ok

(* ---- harness ---- *)

let run scale =
  header "MLP group get: pipelined vs sequential, modeled + real (1 core)";
  let smoke = scale.ops < 100_000 in
  (* The real side must outgrow the caches for fetch overlap to matter:
     full scale floors the population at 2M keys, smoke at 300k (past
     L2, still sub-second to build). *)
  let n = if smoke then max scale.keys 300_000 else max scale.keys 2_000_000 in
  let ops = scale.ops in
  let reps = if smoke then 3 else 5 in
  let mlp_width = Memsim.Model.Config.default.Memsim.Model.Config.mlp_width in
  row "population=%d ops=%d reps=%d modeled mlp_width=%d\n" n ops reps mlp_width;
  let all_cells = ref [] in
  List.iter
    (fun dist ->
      subheader (dist_name dist);
      let t, pop = build_population dist n in
      let idx = index_stream dist n ops in
      row "%-6s %14s %14s %9s %9s\n" "batch" "seq (Mops/s)" "pipe (Mops/s)"
        "speedup" "modeled";
      let cells =
        Array.map
          (fun b ->
            let seq, pipe = measure_real t pop idx b ~reps in
            let ms = model_speedup ~model_n:scale.model_keys ~ops:scale.model_ops dist b in
            let c =
              {
                c_dist = dist_name dist;
                c_batch = b;
                c_seq = mops seq;
                c_pipe = mops pipe;
                c_speedup = pipe /. seq;
                c_model_speedup = ms;
              }
            in
            row "%-6d %14.2f %14.2f %8.2fx %8.2fx\n" b c.c_seq c.c_pipe c.c_speedup
              c.c_model_speedup;
            c)
          batch_sizes
      in
      all_cells := (dist, cells) :: !all_cells)
    [ Uniform; Zipf; Prefix ];
  let all = List.rev !all_cells in
  (* Gates. *)
  let best_ge8 =
    List.fold_left
      (fun acc (_, cells) ->
        Array.fold_left
          (fun acc c -> if c.c_batch >= 8 then max acc c.c_speedup else acc)
          acc cells)
      0.0 all
  in
  let real_ok = best_ge8 >= 1.15 in
  let trend_ok = List.for_all (fun (_, cells) -> trend_matches cells) all in
  let verdict ok = if smoke then "smoke scale, informational" else if ok then "PASS" else "FAIL" in
  row "\nbest pipelined speedup at batch >= 8: %.2fx  (acceptance: >= 1.15x: %s)\n"
    best_ge8 (verdict real_ok);
  row "model-vs-measured trend sign agrees at every batch step: %b  (%s)\n" trend_ok
    (verdict trend_ok);
  if smoke then
    row "smoke gate: pipelined >= sequential at some batch >= 8: %.2fx (%s)\n"
      best_ge8
      (if best_ge8 >= 1.0 then "ok" else "VIOLATED");
  (* JSON trajectory file. *)
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"keys\": %d,\n" n);
  Buffer.add_string buf (Printf.sprintf "  \"ops\": %d,\n" ops);
  Buffer.add_string buf (Printf.sprintf "  \"model_keys\": %d,\n" scale.model_keys);
  Buffer.add_string buf (Printf.sprintf "  \"mlp_width\": %d,\n" mlp_width);
  Buffer.add_string buf (Printf.sprintf "  \"zipf_theta\": %.2f,\n" theta);
  Buffer.add_string buf "  \"results\": [\n";
  let cells = List.concat_map (fun (_, cs) -> Array.to_list cs) all in
  List.iteri
    (fun i c ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"distribution\": \"%s\", \"batch\": %d, \"seq_mops\": %.3f, \
            \"pipe_mops\": %.3f, \"speedup\": %.3f, \"model_speedup\": %.3f}%s\n"
           c.c_dist c.c_batch c.c_seq c.c_pipe c.c_speedup c.c_model_speedup
           (if i = List.length cells - 1 then "" else ",")))
    cells;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"best_speedup_at_batch_ge_8\": %.3f,\n" best_ge8);
  Buffer.add_string buf
    (Printf.sprintf "  \"acceptance_real_speedup_ge_1_15\": %b,\n" real_ok);
  Buffer.add_string buf
    (Printf.sprintf "  \"acceptance_model_trend_sign_match\": %b\n}\n" trend_ok);
  let oc = open_out "BENCH_mlp.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  row "wrote BENCH_mlp.json\n";
  if smoke && best_ge8 < 1.0 then begin
    Printf.eprintf
      "bench mlp --smoke: pipelined group get slower than sequential (%.2fx)\n"
      best_ge8;
    exit 1
  end
