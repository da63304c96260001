(* Tests for the schedule-exploration harness (lib/schedsim) and the
   race scenarios it drives.

   Three layers: the oracle's checker on hand-built histories (it must
   reject the failure shapes the sweep exists to find), the scheduler's
   own guarantees (determinism, exhaustive enumeration, bug detection,
   deadlock detection) on toy tasks, and the scenario library run for
   real at small budgets — including the reverse-scan-vs-split schedule
   that exposed a genuine lost-keys bug in the scan's border read
   ([cursor_fill]). *)

module Schedpoint = Masstree_core.Schedpoint
module Sched = Schedsim.Sched
module Oracle = Schedsim.Oracle
module Scenario = Schedsim.Scenario

let check_ok what = function
  | Ok () -> ()
  | Error (m : string) -> Alcotest.failf "%s: unexpected violation: %s" what m

let check_rejects what = function
  | Ok () -> Alcotest.failf "%s: checker accepted a bogus history" what
  | Error (_ : string list) -> ()

let oracle_accepts what = function
  | Ok () -> ()
  | Error ms ->
      Alcotest.failf "%s: checker rejected a valid history: %s" what
        (String.concat "; " ms)

(* ------------------------------------------------------------------ *)
(* Oracle checker                                                      *)
(* ------------------------------------------------------------------ *)

let test_oracle_reads () =
  (* Sequential: write then read sees the write; earlier value is stale. *)
  let o = Oracle.create () in
  let _ = Oracle.record_write o "a" (Some 1) ~s:1 ~e:2 in
  let _ = Oracle.record_write o "a" (Some 2) ~s:3 ~e:4 in
  Oracle.record_read o "a" (Some 2) ~s:5 ~e:6 ~exclude:(-1) ~what:"r1";
  oracle_accepts "sequential read" (Oracle.check o);
  Oracle.record_read o "a" (Some 1) ~s:5 ~e:6 ~exclude:(-1) ~what:"r2";
  check_rejects "stale read" (Oracle.check o);
  (* Phantom: a value never written. *)
  let o = Oracle.create () in
  Oracle.record_read o "a" (Some 99) ~s:1 ~e:2 ~exclude:(-1) ~what:"r";
  check_rejects "phantom read" (Oracle.check o);
  (* Initial absence is readable, including before any write lands. *)
  let o = Oracle.create () in
  let _ = Oracle.record_write o "a" (Some 1) ~s:3 ~e:4 in
  Oracle.record_read o "a" None ~s:1 ~e:2 ~exclude:(-1) ~what:"r";
  oracle_accepts "read before write" (Oracle.check o)

let test_oracle_concurrent_window () =
  (* A read overlapping a write may see either side; one fully separated
     from the old value may not. *)
  let o = Oracle.create () in
  let _ = Oracle.record_write o "a" (Some 1) ~s:1 ~e:2 in
  let _ = Oracle.record_write o "a" (Some 2) ~s:10 ~e:20 in
  Oracle.record_read o "a" (Some 1) ~s:12 ~e:15 ~exclude:(-1) ~what:"during";
  Oracle.record_read o "a" (Some 2) ~s:12 ~e:15 ~exclude:(-1) ~what:"during'";
  oracle_accepts "overlapping read" (Oracle.check o);
  Oracle.record_read o "a" (Some 1) ~s:25 ~e:26 ~exclude:(-1) ~what:"after";
  check_rejects "read past a completed overwrite" (Oracle.check o)

let test_oracle_prev_exclusion () =
  (* A put's prev-result must not be matched against its own write. *)
  let o = Oracle.create () in
  let wid = Oracle.record_write o "a" (Some 1) ~s:1 ~e:2 in
  Oracle.record_read o "a" (Some 1) ~s:1 ~e:2 ~exclude:wid ~what:"prev";
  check_rejects "put seeing its own value as prev" (Oracle.check o);
  let o = Oracle.create () in
  let wid = Oracle.record_write o "a" (Some 1) ~s:1 ~e:2 in
  Oracle.record_read o "a" None ~s:1 ~e:2 ~exclude:wid ~what:"prev";
  oracle_accepts "put over absent key" (Oracle.check o)

let scan_emits o ~rev emits ~s ~e =
  Oracle.record_scan o ~rev ~start:None ~stop:None ~limit:max_int
    ~emits:
      (List.map (fun (k, v, t) -> { Oracle.ekey = k; eval_ = v; estep = t }) emits)
    ~count:(List.length emits) ~s ~e

let test_oracle_scans () =
  let prepped () =
    let o = Oracle.create () in
    let _ = Oracle.record_write o "a" (Some 1) ~s:0 ~e:0 in
    let _ = Oracle.record_write o "b" (Some 2) ~s:0 ~e:0 in
    let _ = Oracle.record_write o "c" (Some 3) ~s:0 ~e:0 in
    o
  in
  let o = prepped () in
  scan_emits o ~rev:false [ ("a", 1, 2); ("b", 2, 3); ("c", 3, 4) ] ~s:1 ~e:5;
  oracle_accepts "full forward scan" (Oracle.check o);
  let o = prepped () in
  scan_emits o ~rev:true [ ("c", 3, 2); ("b", 2, 3); ("a", 1, 4) ] ~s:1 ~e:5;
  oracle_accepts "full reverse scan" (Oracle.check o);
  (* Lost key: stably-present b missing. *)
  let o = prepped () in
  scan_emits o ~rev:false [ ("a", 1, 2); ("c", 3, 4) ] ~s:1 ~e:5;
  check_rejects "lost key" (Oracle.check o);
  (* Out of order. *)
  let o = prepped () in
  scan_emits o ~rev:false [ ("b", 2, 2); ("a", 1, 3); ("c", 3, 4) ] ~s:1 ~e:5;
  check_rejects "out-of-order scan" (Oracle.check o);
  (* Duplicate. *)
  let o = prepped () in
  scan_emits o ~rev:false
    [ ("a", 1, 2); ("a", 1, 3); ("b", 2, 4); ("c", 3, 5) ]
    ~s:1 ~e:6;
  check_rejects "duplicate emission" (Oracle.check o);
  (* Limit cutoff excuses the un-reached tail, not a skipped middle. *)
  let o = prepped () in
  Oracle.record_scan o ~rev:false ~start:None ~stop:None ~limit:2
    ~emits:
      [
        { Oracle.ekey = "a"; eval_ = 1; estep = 2 };
        { Oracle.ekey = "b"; eval_ = 2; estep = 3 };
      ]
    ~count:2 ~s:1 ~e:4;
  oracle_accepts "limit cutoff" (Oracle.check o);
  (* A key being removed concurrently is not required. *)
  let o = prepped () in
  let _ = Oracle.record_write o "b" None ~s:2 ~e:3 in
  scan_emits o ~rev:false [ ("a", 1, 2); ("c", 3, 4) ] ~s:1 ~e:5;
  oracle_accepts "concurrently removed key may be skipped" (Oracle.check o)

(* ------------------------------------------------------------------ *)
(* Scheduler on toy tasks                                              *)
(* ------------------------------------------------------------------ *)

let p1 = Schedpoint.define "test.point.one"
let p2 = Schedpoint.define "test.point.two"
let pspin = Schedpoint.define "test.point.spin"

let test_exhaustive_count () =
  (* Two tasks, two Step yields each: each task is 3 atomic segments, so
     the schedule tree has C(6,3) = 20 leaves.  The DFS must enumerate
     them all, each exactly once. *)
  let traces = Hashtbl.create 32 in
  let mk : Sched.mk =
   fun () ->
    let hits = ref [] in
    let task name () =
      hits := (name ^ ".a") :: !hits;
      Schedpoint.hit p1;
      hits := (name ^ ".b") :: !hits;
      Schedpoint.hit p2;
      hits := (name ^ ".c") :: !hits
    in
    ( [ ("A", task "A"); ("B", task "B") ],
      fun () ->
        Hashtbl.replace traces (String.concat "," (List.rev !hits)) ();
        Ok () )
  in
  let r = Sched.explore_exhaustive ~mk ~max_schedules:1000 () in
  Alcotest.(check bool) "exhaustive" true r.exhaustive;
  Alcotest.(check (option reject)) "no failure" None
    (Option.map (fun _ -> ()) r.fail);
  Alcotest.(check int) "20 interleavings" 20 r.explored;
  Alcotest.(check int) "all distinct" 20 (Hashtbl.length traces)

let test_finds_lost_update () =
  (* The classic non-atomic increment: read, yield, write back.  The
     exhaustive driver must find a schedule where an update is lost, and
     the printed choice prefix must reproduce it. *)
  let mk : Sched.mk =
   fun () ->
    let c = ref 0 in
    let bump () =
      let v = !c in
      Schedpoint.hit p1;
      c := v + 1
    in
    ( [ ("A", bump); ("B", bump) ],
      fun () -> if !c = 2 then Ok () else Error "lost update" )
  in
  match (Sched.explore_exhaustive ~mk ~max_schedules:100 ()).fail with
  | None -> Alcotest.fail "exhaustive exploration missed the lost update"
  | Some (msg, choices) ->
      Alcotest.(check string) "diagnosis" "lost update" msg;
      let case = Sched.run_choices ~mk ~choices () in
      (match case.ok with
      | Error "lost update" -> ()
      | Error m -> Alcotest.failf "replay found a different failure: %s" m
      | Ok () -> Alcotest.fail "choice-prefix replay did not reproduce")

let test_deadlock_detection () =
  (* A task spinning on a condition nobody establishes must be reported
     as a deadlock, not spun forever. *)
  let mk : Sched.mk =
   fun () ->
    let flag = ref false in
    ( [ ("spinner", fun () -> while not !flag do Schedpoint.spin pspin done) ],
      fun () -> Ok () )
  in
  match (Sched.explore_exhaustive ~mk ~max_schedules:3 ()).fail with
  | Some (msg, _) ->
      if not (String.length msg >= 8 && String.sub msg 0 8 = "deadlock") then
        Alcotest.failf "expected a deadlock diagnosis, got: %s" msg
  | None -> Alcotest.fail "spin loop not flagged"

let test_spin_defers_to_others () =
  (* A Spin yield must deschedule the task until the other one acts; the
     schedule tree of spinner-vs-setter stays finite and every schedule
     completes. *)
  let mk : Sched.mk =
   fun () ->
    let flag = ref false in
    ( [
        ("spinner", fun () -> while not !flag do Schedpoint.spin pspin done);
        ("setter", fun () -> Schedpoint.hit p1; flag := true);
      ],
      fun () -> if !flag then Ok () else Error "finished unset" )
  in
  let r = Sched.explore_exhaustive ~mk ~max_schedules:500 () in
  Alcotest.(check bool) "closed" true r.exhaustive;
  (match r.fail with
  | None -> ()
  | Some (m, _) -> Alcotest.failf "unexpected failure: %s" m)

let test_determinism () =
  (* Same scenario, seed and style: identical schedule, step for step. *)
  let sc = Option.get (Scenario.find "split-vs-scan") in
  let run () =
    Sched.run_random ~mk:(Scenario.mk sc) ~seed:7L ~style:Sched.Pct
      ~record_trace:true ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "steps" a.run.steps b.run.steps;
  Alcotest.(check (list (pair string string))) "trace" a.run.trace b.run.trace;
  Alcotest.(check (array int)) "choices" a.run.chosen b.run.chosen

(* ------------------------------------------------------------------ *)
(* Scenario library for real                                           *)
(* ------------------------------------------------------------------ *)

let run_scenario ?(budget = 60) ?(seeds = 2) name () =
  let mk =
    match (Scenario.find name, Schedsim.Mvcc_scenario.find name) with
    | Some sc, _ -> Scenario.mk sc
    | None, Some sc -> Schedsim.Mvcc_scenario.mk sc
    | None, None -> Alcotest.failf "unknown scenario %s" name
  in
  (match (Sched.explore_exhaustive ~mk ~max_schedules:budget ()).fail with
  | None -> ()
  | Some (m, choices) ->
      Alcotest.failf "%s: violation (choices %s): %s" name
        (Sched.choices_to_string choices)
        m);
  for i = 0 to seeds - 1 do
    let style = if i land 1 = 0 then Sched.Pct else Sched.Uniform in
    let case = Sched.run_random ~mk ~seed:(Int64.of_int (1000 + i)) ~style () in
    check_ok (Printf.sprintf "%s seed %d" name i) case.ok
  done

(* The schedule that exposed the reverse-scan-vs-split lost-keys bug in
   the scan's border read, [cursor_fill] (scanner reads the pre-split
   root, waits out the split's dirty window, then must NOT accept the
   narrowed node). *)
let test_scan_rev_split_regression () =
  let sc = Option.get (Scenario.find "split-vs-scan-rev") in
  let case =
    Sched.run_random ~mk:(Scenario.mk sc) ~seed:33395001L ~style:Sched.Uniform ()
  in
  check_ok "scan_rev-vs-split regression schedule" case.ok

(* A writer step lands between a pipeline round's touch pass and its step
   pass: some seeded schedule must suspend the reader at
   [tree.pipeline.touched] and run the writer through one of [points]
   before the reader resumes, and every schedule tried must pass the
   oracle. *)
let reaches_touch_window name ~writer ~points () =
  let sc = Option.get (Scenario.find name) in
  let rec window = function
    | (task, p) :: rest when task = writer -> List.mem p points || window rest
    | _ -> false
  in
  let rec reached = function
    | ("reader", "tree.pipeline.touched") :: rest -> window rest || reached rest
    | _ :: rest -> reached rest
    | [] -> false
  in
  let rec try_seed i =
    i < 400
    &&
    let style = if i land 1 = 0 then Sched.Pct else Sched.Uniform in
    let case =
      Sched.run_random ~mk:(Scenario.mk sc) ~seed:(Int64.of_int (5000 + i)) ~style
        ~record_trace:true ()
    in
    check_ok (Printf.sprintf "%s seed %d" name i) case.ok;
    reached case.run.trace || try_seed (i + 1)
  in
  Alcotest.(check bool) (name ^ ": writer between touch and step") true (try_seed 0)

let () =
  Alcotest.run "race"
    [
      ( "oracle",
        [
          Alcotest.test_case "point reads" `Quick test_oracle_reads;
          Alcotest.test_case "concurrent windows" `Quick
            test_oracle_concurrent_window;
          Alcotest.test_case "prev exclusion" `Quick test_oracle_prev_exclusion;
          Alcotest.test_case "scans" `Quick test_oracle_scans;
        ] );
      ( "sched",
        [
          Alcotest.test_case "exhaustive enumeration" `Quick
            test_exhaustive_count;
          Alcotest.test_case "finds lost update" `Quick test_finds_lost_update;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "spin defers" `Quick test_spin_defers_to_others;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "scenarios",
        List.map
          (fun (sc : Scenario.t) ->
            Alcotest.test_case sc.name `Quick (run_scenario sc.name))
          Scenario.scenarios );
      ( "satellite",
        [
          Alcotest.test_case "scan vs split" `Quick
            (run_scenario ~budget:300 ~seeds:6 "split-vs-scan");
          Alcotest.test_case "scan_rev vs split" `Quick
            (run_scenario ~budget:300 ~seeds:6 "split-vs-scan-rev");
          Alcotest.test_case "scan vs remove" `Quick
            (run_scenario ~budget:300 ~seeds:6 "remove-vs-scan");
          Alcotest.test_case "scan_rev vs remove" `Quick
            (run_scenario ~budget:300 ~seeds:6 "remove-vs-scan-rev");
          Alcotest.test_case "scan vs suffix recycle" `Quick
            (run_scenario ~budget:300 ~seeds:6 "remove-vs-scan-suffix");
          Alcotest.test_case "multi_get vs insert burst" `Quick
            (run_scenario ~budget:300 ~seeds:6 "multiget-vs-insert-burst");
          (* A collapse lands between a scan's validated layer-0 read and
             its descent into the layer only on some schedules (resuming a
             restart from [start] instead of the last emitted key re-emits
             a key there); the scenario's own default run reaches them,
             these extra seeds widen the sweep. *)
          Alcotest.test_case "scan vs layer collapse" `Quick
            (run_scenario ~budget:300 ~seeds:32 "layer-collapse-vs-scan");
          Alcotest.test_case "scan_rev split regression" `Quick
            test_scan_rev_split_regression;
          Alcotest.test_case "merge between touch and step" `Quick
            (reaches_touch_window "coalesce-vs-pipelined-get" ~writer:"remover"
               ~points:[ "tree.pool.retire"; "tree.merge.done" ]);
          Alcotest.test_case "split between touch and step" `Quick
            (reaches_touch_window "pipelined-batch-vs-split" ~writer:"writer"
               ~points:[ "tree.split.migrated"; "tree.split.linked"; "tree.split.root_grown" ]);
        ] );
      ( "mvcc",
        List.map
          (fun (sc : Schedsim.Mvcc_scenario.t) ->
            Alcotest.test_case sc.name `Quick
              (run_scenario ~budget:150 ~seeds:4 sc.name))
          Schedsim.Mvcc_scenario.scenarios );
    ]
