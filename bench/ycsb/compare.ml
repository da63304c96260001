(* [ycsb_bench compare A B]: two sets of run outputs (the captured
   stdout of any number of runs, concatenated), judged per workload and
   end-to-end metric against the bounds in BENCHMARK.json.

   Verdicts follow the measurement rules the benchmark is built on:
   - unresolved: either side's quartile spread exceeds the bound, unless
     every B run reads better than every A run;
   - regressed: B's median is worse than A's by more than the bound;
   - improved: B wins at least nine tenths of the run pairs and the
     medians differ by more than A's quartile spread;
   - same: otherwise. *)

type metric = { name : string; unit_ : string; lower : bool; bound : float }

let read_file path = In_channel.with_open_text path In_channel.input_all

let metrics_of_benchmark path =
  let j = Json.parse (read_file path) in
  match Json.member "end_to_end" j with
  | Some (Json.Arr l) ->
      List.map
        (fun m ->
          let s k = Option.bind (Json.member k m) Json.str |> Option.value ~default:"" in
          {
            name = s "name";
            unit_ = s "unit";
            lower = s "better" = "lower";
            bound = Option.bind (Json.member "bound" m) Json.num |> Option.value ~default:0.0;
          })
        l
  | _ -> failwith (path ^ ": no end_to_end list")

type run = { workload : string; seed : float; client_cpu : float; values : (string * float) list }

(* Runs in file order: each result line belongs to the meta line before it. *)
let runs_of_file path =
  let meta = ref None in
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if not (String.starts_with ~prefix:"{" line) then None
      else
        match Json.parse line with
        | exception Json.Error _ -> None
        | j -> (
            match (Json.member "meta" j, Json.member "metrics" j, !meta) with
            | Some m, _, _ ->
                meta := Some m;
                None
            | None, Some (Json.Obj ms), Some m ->
                let num k = Option.bind (Json.member k m) Json.num |> Option.value ~default:nan in
                Some
                  {
                    workload = Option.bind (Json.member "workload" m) Json.str |> Option.value ~default:"?";
                    seed = num "seed";
                    client_cpu = num "client.cpu_pct";
                    values =
                      List.filter_map
                        (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.num))
                        ms;
                  }
            | _ -> None))
    (String.split_on_char '\n' (read_file path))

(* Python's statistics.quantiles(values, n=4), the default exclusive
   method, and statistics.median. *)
let quartiles values =
  let d = Array.of_list values in
  Array.sort compare d;
  let n = Array.length d in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float (4 - delta)) +. (d.(j) *. float delta)) /. 4.
    in
    let median = if n mod 2 = 1 then d.(n / 2) else (d.((n / 2) - 1) +. d.(n / 2)) /. 2. in
    (q 1, median, q 3)

let verdict m a b =
  let better x y = if m.lower then x < y else x > y in
  let q1a, meda, q3a = quartiles a and q1b, medb, q3b = quartiles b in
  let spread q1 med q3 = (q3 -. q1) /. Float.abs med in
  let all_better = List.for_all (fun vb -> List.for_all (fun va -> better vb va) a) b in
  let worse = (if m.lower then medb -. meda else meda -. medb) /. Float.abs meda in
  let pairs = List.filteri (fun i _ -> i < List.length b) a |> List.mapi (fun i va -> (va, List.nth b i)) in
  let wins = List.length (List.filter (fun (va, vb) -> better vb va) pairs) in
  if Float.max (spread q1a meda q3a) (spread q1b medb q3b) > m.bound then
    if all_better then "improved" else "unresolved"
  else if worse > m.bound then "regressed"
  else if
    worse < 0.0
    && float wins >= 0.9 *. float (List.length pairs)
    && Float.abs (medb -. meda) > q3a -. q1a
  then "improved"
  else "same"

let client_limit_pct = 70.

let run ~benchmark a_path b_path =
  let metrics = metrics_of_benchmark benchmark in
  let a = runs_of_file a_path and b = runs_of_file b_path in
  List.iter
    (fun (side, runs) ->
      List.iter
        (fun r ->
          if r.client_cpu > client_limit_pct then
            Printf.printf "note: %s %s seed %.0f: client %.0f%% busy, so that run measured the client\n" side
              r.workload r.seed r.client_cpu)
        runs)
    [ ("A", a); ("B", b) ];
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (a @ b)) in
  let regressed = ref false in
  Printf.printf "%-20s %-10s %5s %-32s %-32s %8s  %s\n" "workload" "metric" "runs" "A median [q1, q3]"
    "B median [q1, q3]" "change" "verdict";
  List.iter
    (fun wl ->
      let vals runs name =
        List.filter_map (fun r -> if r.workload = wl then List.assoc_opt name r.values else None) runs
      in
      List.iter
        (fun m ->
          let va = vals a m.name and vb = vals b m.name in
          if va <> [] && vb <> [] then begin
            let q1a, meda, q3a = quartiles va and q1b, medb, q3b = quartiles vb in
            let v = verdict m va vb in
            if v = "regressed" then regressed := true;
            let show q1 med q3 = Printf.sprintf "%.4g [%.4g, %.4g] %s" med q1 q3 m.unit_ in
            Printf.printf "%-20s %-10s %2d/%-2d %-32s %-32s %+7.1f%%  %s (bound %.0f%%)\n" wl m.name
              (List.length va) (List.length vb) (show q1a meda q3a) (show q1b medb q3b)
              (100. *. (medb -. meda) /. meda) v (100. *. m.bound)
          end)
        metrics)
    workloads;
  if !regressed then 1 else 0
