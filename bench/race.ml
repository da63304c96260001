(* Race sweep (§4.5–§4.7 concurrency): run every schedule-exploration
   scenario under the deterministic scheduler — exhaustive DFS over
   schedule prefixes while the tree stays small enough, then seeded
   PCT/uniform random exploration — checking each run against the
   sequential oracle.  Exits nonzero on any violation, or if some
   registered schedule point never fired (the sweep would be vacuous
   there).

   Any failure prints an exact replay recipe:

     MT_RACE_SCENARIO=<name> MT_RACE_SEED=<n> [MT_RACE_STYLE=pct|uniform] \
       dune exec bench/main.exe -- race
     MT_RACE_SCENARIO=<name> MT_RACE_CHOICES=0,2,1,... \
       dune exec bench/main.exe -- race *)

module Schedpoint = Masstree_core.Schedpoint
module Sched = Schedsim.Sched
module Scenario = Schedsim.Scenario
module Mvcc_scenario = Schedsim.Mvcc_scenario

(* Tree-level and store-level (MVCC) scenario libraries behind one
   sweep shape. *)
let all_scenarios : (string * Sched.mk) list =
  List.map
    (fun (sc : Scenario.t) -> (sc.name, Scenario.mk sc))
    Scenario.scenarios
  @ List.map
      (fun (sc : Mvcc_scenario.t) -> (sc.name, Mvcc_scenario.mk sc))
      Mvcc_scenario.scenarios

let find_mk name =
  match Scenario.find name with
  | Some sc -> Some (Scenario.mk sc)
  | None -> (
      match Mvcc_scenario.find name with
      | Some sc -> Some (Mvcc_scenario.mk sc)
      | None -> None)

let min_cases = 100

type mode = Choices of int array | Seeded of int64 * Sched.style

type fail = { scenario : string; mode : mode; msg : string }

let replay_recipe f =
  match f.mode with
  | Choices c ->
      Printf.sprintf
        "MT_RACE_SCENARIO=%s MT_RACE_CHOICES=%s dune exec bench/main.exe -- race"
        f.scenario
        (Sched.choices_to_string c)
  | Seeded (seed, style) ->
      Printf.sprintf
        "MT_RACE_SCENARIO=%s MT_RACE_SEED=%Ld MT_RACE_STYLE=%s dune exec bench/main.exe -- race"
        f.scenario seed
        (Sched.style_to_string style)

let print_trace (run : Sched.run) =
  let tail = 40 in
  let tr = run.trace in
  let n = List.length tr in
  if n > tail then Printf.printf "  ... (%d earlier suspensions)\n" (n - tail);
  List.iteri
    (fun i (task, point) ->
      if i >= n - tail then Printf.printf "  %4d  %-10s %s\n" (i + 1) task point)
    tr

(* Replay mode: reproduce one schedule with a full trace. *)
let replay name =
  let mk =
    match find_mk name with
    | Some mk -> mk
    | None ->
        Printf.eprintf "unknown scenario %S; known:\n" name;
        List.iter (fun (n, _) -> Printf.eprintf "  %s\n" n) all_scenarios;
        exit 2
  in
  let case =
    match Sys.getenv_opt "MT_RACE_CHOICES" with
    | Some s ->
        let choices = Sched.choices_of_string s in
        Printf.printf "replaying %s with choices [%s]\n" name
          (Sched.choices_to_string choices);
        Sched.run_choices ~mk ~choices ~record_trace:true ()
    | None ->
        let seed =
          match Sys.getenv_opt "MT_RACE_SEED" with
          | Some s -> Int64.of_string s
          | None ->
              Printf.eprintf "set MT_RACE_SEED or MT_RACE_CHOICES to replay\n";
              exit 2
        in
        let style =
          match Sys.getenv_opt "MT_RACE_STYLE" with
          | None -> Sched.Pct
          | Some s -> (
              match Sched.style_of_string s with
              | Some st -> st
              | None ->
                  Printf.eprintf "bad MT_RACE_STYLE %S (pct|uniform)\n" s;
                  exit 2)
        in
        Printf.printf "replaying %s with seed %Ld style %s\n" name seed
          (Sched.style_to_string style);
        Sched.run_random ~mk ~seed ~style ~record_trace:true ()
  in
  Printf.printf "%d steps, %d branch points; schedule-point trace:\n"
    case.run.steps
    (Array.length case.run.chosen);
  print_trace case.run;
  (match case.ok with
  | Ok () -> Printf.printf "replay OK: no violation under this schedule\n"
  | Error m ->
      Printf.printf "replay reproduces the violation:\n  %s\n" m;
      exit 1);
  ()

let sweep ~smoke =
  let budget, seeds = if smoke then (150, 6) else (800, 24) in
  Schedpoint.reset_counts ();
  let t0 = Xutil.Clock.wall_us () in
  let failures = ref [] in
  let cases = ref 0 in
  Printf.printf "%-24s %-16s %-8s %s\n" "scenario" "exhaustive" "random"
    "failures";
  List.iter
    (fun (name, mk) ->
      let before = List.length !failures in
      let ex = Sched.explore_exhaustive ~mk ~max_schedules:budget () in
      cases := !cases + ex.explored;
      (match ex.fail with
      | Some (msg, choices) ->
          failures :=
            { scenario = name; mode = Choices choices; msg } :: !failures
      | None -> ());
      for i = 0 to seeds - 1 do
        let seed = Int64.of_int (((Hashtbl.hash name land 0xFFFF) * 1000) + i) in
        let style = if i land 1 = 0 then Sched.Pct else Sched.Uniform in
        let case = Sched.run_random ~mk ~seed ~style () in
        incr cases;
        match case.ok with
        | Ok () -> ()
        | Error msg ->
            failures :=
              { scenario = name; mode = Seeded (seed, style); msg }
              :: !failures
      done;
      Printf.printf "%-24s %-16s %-8d %d\n" name
        (Printf.sprintf "%d%s" ex.explored
           (if ex.exhaustive then " (closed)" else ""))
        seeds
        (List.length !failures - before))
    all_scenarios;
  let elapsed_ms =
    Int64.to_float (Int64.sub (Xutil.Clock.wall_us ()) t0) /. 1000.
  in
  let points = Schedpoint.names () in
  let uncovered = List.filter (fun p -> Schedpoint.hits p = 0) points in
  Printf.printf
    "\n%d schedules in %.0f ms across %d scenarios; %d/%d schedule points hit\n"
    !cases elapsed_ms
    (List.length all_scenarios)
    (List.length points - List.length uncovered)
    (List.length points);
  List.iter
    (fun f ->
      Printf.printf "\nVIOLATION in %s:\n  %s\n  replay: %s\n" f.scenario f.msg
        (replay_recipe f))
    (List.rev !failures);
  if uncovered <> [] then begin
    Printf.printf "\nuncovered schedule points:\n";
    List.iter (fun p -> Printf.printf "  %s\n" p) uncovered
  end;
  if !failures <> [] then begin
    Printf.printf "race sweep FAILED: linearizability violations\n";
    exit 1
  end;
  if uncovered <> [] then begin
    Printf.printf "race sweep FAILED: %d schedule points never fired\n"
      (List.length uncovered);
    exit 1
  end;
  if !cases < min_cases then begin
    Printf.printf "race sweep FAILED: only %d cases (expected >= %d)\n" !cases
      min_cases;
    exit 1
  end;
  Printf.printf "race sweep OK\n%!"

let run (scale : Bench_util.scale) =
  Printf.printf
    "\n=== race: deterministic interleaving sweep over the OCC core ===\n%!";
  match Sys.getenv_opt "MT_RACE_SCENARIO" with
  | Some name -> replay name
  | None -> sweep ~smoke:scale.Bench_util.smoke
