(* Epoch-based reclamation: retirement ordering, pinned sections blocking
   frees, maintenance tasks, and multi-domain advancement. *)

open Masstree_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_retire_then_quiesce () =
  let m = Epoch.manager () in
  let h = Epoch.register m in
  let freed = ref 0 in
  Epoch.retire h (fun () -> incr freed);
  Epoch.retire h (fun () -> incr freed);
  check_int "pending" 2 (Epoch.pending m);
  Epoch.quiesce m;
  check_int "freed" 2 !freed;
  check_int "none pending" 0 (Epoch.pending m);
  Epoch.unregister h

let test_pin_blocks_free () =
  let m = Epoch.manager () in
  let h = Epoch.register m in
  let other = Epoch.register m in
  let freed = ref false in
  (* A pinned participant in the retirement epoch must hold back frees. *)
  Epoch.pin other (fun () ->
      Epoch.retire h (fun () -> freed := true);
      (* Only this domain can advance; the pinned slot pins the epoch. *)
      for _ = 1 to 10 do
        Epoch.tick h
      done;
      check_bool "not freed while pinned" false !freed);
  Epoch.quiesce m;
  check_bool "freed after unpin" true !freed;
  Epoch.unregister h;
  Epoch.unregister other

let test_reentrant_pin () =
  let m = Epoch.manager () in
  let h = Epoch.register m in
  let v = Epoch.pin h (fun () -> Epoch.pin h (fun () -> 42)) in
  check_int "nested pin" 42 v;
  Epoch.quiesce m;
  Epoch.unregister h

let test_tasks_run () =
  let m = Epoch.manager () in
  let h = Epoch.register m in
  let ran = ref 0 in
  Epoch.schedule m (fun () -> incr ran);
  Epoch.schedule m (fun () -> incr ran);
  Epoch.tick h;
  check_int "tasks executed" 2 !ran;
  (* A task scheduled from within a task runs in the same drain. *)
  Epoch.schedule m (fun () -> Epoch.schedule m (fun () -> incr ran));
  Epoch.quiesce m;
  check_int "nested task" 3 !ran;
  Epoch.unregister h

(* Maintenance (a layer collapse, a prune pass) retires storage from
   inside a task; quiesce must free that too before it returns, and a
   retirement handed off by an unregistered participant must not stay
   counted as pending. *)
let test_task_retires_during_quiesce () =
  let m = Epoch.manager () in
  let h = Epoch.register m in
  let freed = ref 0 in
  Epoch.schedule m (fun () ->
      Epoch.retire h (fun () -> incr freed);
      Epoch.schedule m (fun () -> Epoch.retire h (fun () -> incr freed)));
  Epoch.quiesce m;
  check_int "task retirements freed" 2 !freed;
  check_int "none pending" 0 (Epoch.pending m);
  let gone = Epoch.register m in
  Epoch.retire gone (fun () -> incr freed);
  Epoch.unregister gone;
  Epoch.quiesce m;
  check_int "handed-off retirement freed" 3 !freed;
  check_int "none pending after hand-off" 0 (Epoch.pending m);
  Epoch.unregister h

let test_epoch_advances () =
  let m = Epoch.manager () in
  let h = Epoch.register m in
  let e0 = Epoch.global_epoch m in
  Epoch.quiesce m;
  check_bool "epoch advanced" true (Epoch.global_epoch m > e0);
  Epoch.unregister h

let test_unregister_hands_off_limbo () =
  let m = Epoch.manager () in
  let h = Epoch.register m in
  let freed = ref false in
  Epoch.retire h (fun () -> freed := true);
  Epoch.unregister h;
  (* The orphaned retirement must still run via the task queue. *)
  let h2 = Epoch.register m in
  Epoch.quiesce m;
  check_bool "orphan freed" true !freed;
  Epoch.unregister h2

let test_multidomain_stress () =
  let m = Epoch.manager () in
  let freed = Atomic.make 0 in
  let retired = Atomic.make 0 in
  ignore
    (Xutil.Domain_pool.run 4 (fun _ ->
         let h = Epoch.register m in
         for i = 1 to 2000 do
           Epoch.pin h (fun () ->
               if i mod 3 = 0 then begin
                 Atomic.incr retired;
                 Epoch.retire h (fun () -> Atomic.incr freed)
               end);
           if i mod 64 = 0 then Epoch.tick h
         done;
         Epoch.unregister h));
  Epoch.quiesce m;
  check_int "all retirements freed" (Atomic.get retired) (Atomic.get freed)

let suite =
  [
    Alcotest.test_case "retire then quiesce" `Quick test_retire_then_quiesce;
    Alcotest.test_case "pin blocks free" `Quick test_pin_blocks_free;
    Alcotest.test_case "reentrant pin" `Quick test_reentrant_pin;
    Alcotest.test_case "tasks run" `Quick test_tasks_run;
    Alcotest.test_case "task retires during quiesce" `Quick test_task_retires_during_quiesce;
    Alcotest.test_case "epoch advances" `Quick test_epoch_advances;
    Alcotest.test_case "unregister hands off limbo" `Quick test_unregister_hands_off_limbo;
    Alcotest.test_case "multidomain stress" `Quick test_multidomain_stress;
  ]
