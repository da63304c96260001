(* Shared measurement machinery for the experiment harness. *)

type scale = {
  keys : int; (* key population for real runs *)
  model_keys : int; (* key population for modeled runs *)
  ops : int; (* operations per real measurement *)
  model_ops : int; (* operations per modeled trace *)
  domains : int; (* domains for real concurrent runs *)
  seconds : float; (* soft cap per real measurement *)
  smoke : bool; (* CI-sized run: numbers not meaningful *)
}

let default_scale =
  {
    keys = 200_000;
    (* The model is trace-driven over virtual node ids, so it runs at the
       paper's full 140M-key scale regardless of host memory. *)
    model_keys = 140_000_000;
    ops = 400_000;
    model_ops = 60_000;
    domains = Xutil.Domain_pool.recommended_domains ~cap:8 ();
    seconds = 10.0;
    smoke = false;
  }

(* Write an experiment's result file [name] (a committed BENCH_*.json)
   in the working directory, at full scale only: a smoke run's numbers
   are not meaningful, so it writes nothing and leaves the committed
   file alone. *)
let write_result ~scale name contents =
  if scale.smoke then Printf.printf "smoke scale: %s not written\n%!" name
  else begin
    let oc = open_out name in
    output_string oc contents;
    close_out oc;
    Printf.printf "wrote %s\n%!" name
  end

let header title =
  Printf.printf "\n=== %s ===\n%!" title

let subheader s = Printf.printf "--- %s\n%!" s

let row fmt = Printf.printf fmt

(* Run [per_op] [ops] times across [domains] domains and return total
   ops/second.  Each domain gets an independent RNG; the soft time cap
   stops long runs early and scales the count accordingly. *)
let measure ~scale ~domains per_op =
  let per_domain = scale.ops / domains in
  let done_ops = Array.make domains 0 in
  let barrier = Xutil.Barrier.create domains in
  let t_start = ref 0L in
  let workers =
    Xutil.Domain_pool.run domains (fun d ->
        let rng = Xutil.Rng.create (Int64.of_int (0x9E37 + d)) in
        Xutil.Barrier.wait barrier;
        if d = 0 then t_start := Xutil.Clock.now_ns ();
        let deadline =
          Int64.add (Xutil.Clock.now_ns ()) (Int64.of_float (scale.seconds *. 1e9))
        in
        let i = ref 0 in
        while
          !i < per_domain && (!i land 0xFFF <> 0 || Int64.compare (Xutil.Clock.now_ns ()) deadline < 0)
        do
          per_op d rng;
          incr i
        done;
        done_ops.(d) <- !i)
  in
  ignore workers;
  let dt = Xutil.Clock.elapsed_s !t_start in
  let total = Array.fold_left ( + ) 0 done_ops in
  float_of_int total /. dt

let mops v = v /. 1e6

(* Preload [keys] decimal keys into a store via [put]; returns the key
   array so the measurement phase replays the same population. *)
let preload_decimal ~keys ~range put =
  let rng = Xutil.Rng.create 424242L in
  let gen = Workload.Keygen.decimal_1_10 ~range in
  let arr = Array.init keys (fun _ -> gen rng) in
  Array.iter (fun k -> put k) arr;
  arr

(* Drive a memsim profile over [ops] uniform ranks with 1-to-10-byte
   decimal key lengths, with a warmup pass, returning the sim. *)
let run_model ?(config = Memsim.Model.Config.default) ~n ~ops profile =
  let sim = Memsim.Model.create ~config () in
  let pass measure_pass =
    let rng = Xutil.Rng.create 7L in
    for _ = 1 to ops do
      let rank = Xutil.Rng.int rng n in
      let key_len = String.length (string_of_int rank) in
      profile sim ~rank ~key_len
    done;
    if not measure_pass then Memsim.Model.reset sim
  in
  pass false;
  pass true;
  sim
