(* lib/repl: log-shipping replication.

   In-process Source/Replica pairs over real stores and loggers (no
   network) plus scripted-wire replicas where the test needs to control
   exactly which frames arrive: bootstrap racing writes, apply
   order-independence and dedup, CRC rejection of corrupted frames,
   bounded-staleness serving, promotion safety, tail-ring eviction, and
   a bounded run of the two-disk crash-torture sweep (the full sweep is
   [bench crash]). *)

module P = Kvserver.Protocol
module Store = Kvstore.Store
module Logger = Persist.Logger
module Logrec = Persist.Logrec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tmpdir () = Xutil.Tmpdir.scoped "repl-test"

(* A primary with [n_logs] manual-flush loggers and a Source over it. *)
let make_primary ?tail_cap_bytes ?snap_chunk () =
  let dir = tmpdir () in
  let logs =
    Array.init 2 (fun i ->
        Logger.create ~manual:true (Filename.concat dir (Printf.sprintf "log%d" i)))
  in
  let store = Store.create ~logs () in
  let src =
    Repl.Source.create ?tail_cap_bytes ?snap_chunk ~route:(fun _ -> 0) ~logs
      [| store |]
  in
  (store, src, fun req -> Repl.Source.handler src ~worker:0 req)

let make_replica () =
  let rstore = Store.create () in
  (rstore, Repl.Replica.create ~route:(fun _ -> 0) ~logs:[||] [| rstore |])

let drain replica ~call =
  match Repl.Replica.catch_up replica ~call with
  | `Caught_up -> ()
  | `Restart_needed -> Alcotest.fail "unexpected session restart"
  | `Error m -> Alcotest.fail ("replica error: " ^ m)
  | `Promoted -> Alcotest.fail "unexpected promotion"
  | `Gave_up -> Alcotest.fail "replica never caught up"

let dump store =
  let l = ref [] in
  ignore
    (Store.getrange store ~start:"" ~limit:max_int (fun k cols ->
         l := (k, Array.to_list cols) :: !l));
  List.rev !l

(* ---- bootstrap + steady state ---- *)

let test_bootstrap_under_writes () =
  let store, _src, call = make_primary ~snap_chunk:16 () in
  for i = 1 to 200 do
    Store.put ~worker:(i mod 2) store (Printf.sprintf "k%04d" i) [| "v"; "0" |]
  done;
  let rstore, replica = make_replica () in
  (* Interleave bootstrap pulls with fresh writes and removes: the
     session's tail cursor was captured before the snapshot pin, so
     everything lands exactly once (or twice, deduped by version). *)
  let i = ref 0 in
  let rec go () =
    incr i;
    if !i > 500 then Alcotest.fail "bootstrap never converged";
    (* keep writing while the snapshot streams; stop once bootstrap is
       done so the tail can drain to a fixed point *)
    if not (Repl.Replica.bootstrap_done replica) then begin
      Store.put ~worker:0 store (Printf.sprintf "live%03d" !i) [| "x" |];
      if !i mod 3 = 0 then
        ignore (Store.remove ~worker:1 store (Printf.sprintf "k%04d" !i))
    end;
    match Repl.Replica.step replica ~call with
    | `Continue -> go ()
    | `Caught_up -> ()
    | _ -> Alcotest.fail "bootstrap failed"
  in
  go ();
  drain replica ~call;
  check_bool "bootstrap done" true (Repl.Replica.bootstrap_done replica);
  Alcotest.(check (list (pair string (list string))))
    "replica == primary" (dump store) (dump rstore);
  check_bool "clock caught up" true
    (Repl.Replica.applied_max replica >= Store.max_version store)

let test_convergence_after_removes () =
  let store, _src, call = make_primary () in
  let rstore, replica = make_replica () in
  drain replica ~call;
  for i = 1 to 50 do
    Store.put ~worker:0 store (Printf.sprintf "k%02d" i) [| string_of_int i |]
  done;
  drain replica ~call;
  for i = 1 to 50 do
    if i mod 2 = 0 then ignore (Store.remove ~worker:1 store (Printf.sprintf "k%02d" i))
  done;
  Store.put ~worker:0 store "k01" [| "updated" |];
  drain replica ~call;
  Alcotest.(check (list (pair string (list string))))
    "removes + overwrite shipped" (dump store) (dump rstore);
  (match Store.get rstore "k01" with
  | Some [| v |] -> check_string "overwrite value" "updated" v
  | _ -> Alcotest.fail "k01 missing");
  check_bool "k02 removed on replica" true (Store.get rstore "k02" = None)

(* ---- scripted wire: order-independence, dedup, CRC ---- *)

let frame ?(ts = 7L) key version columns =
  Logrec.encode_string (Logrec.Put { key; version; timestamp = ts; columns })

(* A fake primary whose batches are scripted.  Replies Repl_opened, then
   each batch in order, then empty caught-up batches; acks always
   succeed. *)
let scripted batches =
  let pending = ref batches in
  fun req ->
    match req with
    | P.Repl_open -> P.Repl_opened { session = 1L; versions = [| 0L |] }
    | P.Repl_batch _ -> (
        match !pending with
        | [] -> P.Repl_records { phase = P.Repl_tail; frames = []; done_ = true }
        | b :: rest ->
            pending := rest;
            P.Repl_records { phase = P.Repl_tail; frames = b; done_ = false })
    | P.Repl_ack _ -> P.Repl_acked
    | _ -> P.Failed "unexpected"

let test_apply_order_independence () =
  let rstore, replica = make_replica () in
  let call =
    scripted
      [
        (* newest version first, then a stale one, then a duplicate *)
        [ frame "k" 5L [| "new" |]; frame "k" 3L [| "old" |] ];
        [ frame "k" 5L [| "new" |] ];
        [ frame "gone" 8L [| "x" |] ];
        [ Logrec.encode_string (Logrec.Remove { key = "gone"; version = 9L; timestamp = 7L }) ];
      ]
  in
  drain replica ~call;
  (match Store.get rstore "k" with
  | Some [| v |] -> check_string "newest version wins" "new" v
  | _ -> Alcotest.fail "k missing");
  check_bool "remove applied" true (Store.get rstore "gone" = None);
  check_int "all records applied" 5 (Repl.Replica.applied_count replica);
  check_bool "clock at newest" true (Repl.Replica.applied_max replica >= 9L)

let test_crc_rejects_corrupt_frame () =
  let rstore, replica = make_replica () in
  let good = frame "a" 1L [| "ok" |] in
  let bad = Bytes.of_string (frame "b" 2L [| "garbage" |]) in
  (* flip one payload bit — the replica must detect it on re-verify *)
  Bytes.set bad 9 (Char.chr (Char.code (Bytes.get bad 9) lxor 1));
  let call = scripted [ [ good ]; [ Bytes.to_string bad ] ] in
  let r1 = Repl.Replica.step replica ~call in
  check_bool "session opens" true (r1 = `Continue);
  let rec until_restart n =
    if n = 0 then Alcotest.fail "corrupt frame never rejected"
    else
      match Repl.Replica.step replica ~call with
      | `Restart_needed -> ()
      | `Continue | `Caught_up -> until_restart (n - 1)
      | _ -> Alcotest.fail "unexpected step result"
  in
  until_restart 10;
  check_int "one corrupt frame counted" 1 (Repl.Replica.corrupt_frames replica);
  check_bool "good frame applied before poison" true (Store.get rstore "a" <> None);
  check_bool "corrupt frame never applied" true (Store.get rstore "b" = None)

(* ---- bounded-staleness reads ---- *)

let test_bounded_staleness () =
  let store, _src, call = make_primary () in
  let _rstore, replica = make_replica () in
  Store.put ~worker:0 store "k" [| "v" |];
  drain replica ~call;
  let applied = Repl.Replica.applied_max replica in
  (match Repl.Replica.read replica ~key:"k" ~columns:[] ~floor:applied with
  | P.Value (Some [| v |]) -> check_string "fresh read served" "v" v
  | _ -> Alcotest.fail "fresh read refused");
  (match
     Repl.Replica.read replica ~key:"k" ~columns:[]
       ~floor:(Int64.add applied 1000L)
   with
  | P.Repl_stale { applied = a } -> check_bool "reports its clock" true (a = applied)
  | _ -> Alcotest.fail "future floor must be refused");
  (* columns projection goes through the same gate *)
  match Repl.Replica.read replica ~key:"k" ~columns:[ 0 ] ~floor:0L with
  | P.Value (Some [| "v" |]) -> ()
  | _ -> Alcotest.fail "column read failed"

(* ---- promotion ---- *)

let test_promote_adopts_clock () =
  let store, _src, call = make_primary () in
  let rstore, replica = make_replica () in
  for i = 1 to 30 do
    Store.put ~worker:0 store (Printf.sprintf "k%02d" i) [| "v" |]
  done;
  ignore (Store.remove ~worker:0 store "k07");
  drain replica ~call;
  let shipped_clock = Repl.Replica.applied_max replica in
  let versions = Repl.Replica.promote replica in
  check_bool "promoted" true (Repl.Replica.is_promoted replica);
  check_bool "returned clock matches" true (versions.(0) = shipped_clock);
  check_bool "step refuses after promote" true
    (Repl.Replica.step replica ~call = `Promoted);
  (* A write on the promoted store must mint a version strictly above
     every shipped record, so no future replay can shadow it. *)
  Store.put ~worker:0 rstore "k07" [| "resurrection-proof" |];
  check_bool "post-promote version above shipped clock" true
    (Store.max_version rstore > shipped_clock);
  match Store.get rstore "k07" with
  | Some [| v |] -> check_string "promoted write visible" "resurrection-proof" v
  | _ -> Alcotest.fail "promoted write lost"

(* ---- tail-ring eviction ---- *)

let test_slow_replica_evicted () =
  (* Minimal ring: enough for bootstrap, too small for the backlog a
     stalled replica accumulates. *)
  let store, src, call = make_primary ~tail_cap_bytes:4096 () in
  Store.put ~worker:0 store "seed" [| "v" |];
  let _rstore, replica = make_replica () in
  drain replica ~call;
  check_int "one session" 1 (Repl.Source.sessions src);
  (* Replica stalls; the primary keeps writing until the ring evicts. *)
  for i = 1 to 2000 do
    Store.put ~worker:(i mod 2) store
      (Printf.sprintf "k%05d" i)
      [| String.make 32 'x' |]
  done;
  let rec step_until_restart n =
    if n = 0 then Alcotest.fail "stalled session never evicted"
    else
      match Repl.Replica.step replica ~call with
      | `Restart_needed -> ()
      | _ -> step_until_restart (n - 1)
  in
  step_until_restart 5;
  check_int "session dropped on primary" 0 (Repl.Source.sessions src);
  (* The contract after eviction: rebuild from empty and re-bootstrap. *)
  let rstore2, replica2 = make_replica () in
  drain replica2 ~call;
  Alcotest.(check (list (pair string (list string))))
    "rebuilt replica converges" (dump store) (dump rstore2)

(* ---- source status + retention ---- *)

let test_status_and_lag () =
  let store, src, call = make_primary () in
  let st0 = Repl.Source.status src in
  check_string "role" "primary" st0.P.repl_role;
  check_int "no peers" 0 (List.length st0.P.repl_peers);
  let _rstore, replica = make_replica () in
  drain replica ~call;
  for i = 1 to 64 do
    Store.put ~worker:0 store (Printf.sprintf "k%02d" i) [| "v" |]
  done;
  let st1 = Repl.Source.status src in
  (match st1.P.repl_peers with
  | [ peer ] -> check_bool "undrained records counted as lag" true (peer.P.peer_lag > 0)
  | _ -> Alcotest.fail "expected one peer");
  check_bool "tail retains bytes" true (st1.P.repl_retained > 0);
  drain replica ~call;
  let st2 = Repl.Source.status src in
  (match st2.P.repl_peers with
  | [ peer ] ->
      check_int "lag 0 after drain" 0 peer.P.peer_lag;
      check_bool "acked clock reported" true (peer.P.peer_applied.(0) > 0L)
  | _ -> Alcotest.fail "expected one peer");
  check_bool "retention trimmed after ack" true
    (st2.P.repl_retained < st1.P.repl_retained)

(* ---- engine integration: read-only replicas over the wire path ---- *)

let test_engine_readonly_and_handler () =
  let store = Store.create () in
  let backend = Kvserver.Engine.single store in
  Kvserver.Engine.set_readonly backend true;
  (match Kvserver.Engine.execute backend ~worker:0 (P.Put { key = "k"; columns = [| "v" |] }) with
  | P.Failed _ -> ()
  | _ -> Alcotest.fail "readonly engine accepted a write");
  (match Kvserver.Engine.execute backend ~worker:0 P.Repl_status with
  | P.Failed _ -> ()
  | _ -> Alcotest.fail "Repl_status without a handler must fail");
  let _rstore, replica = make_replica () in
  let promoted = ref false in
  Kvserver.Engine.set_repl_handler backend
    (Repl.Replica.handler ~on_promote:(fun () ->
         promoted := true;
         Kvserver.Engine.set_readonly backend false)
       replica);
  (match Kvserver.Engine.execute backend ~worker:0 P.Repl_status with
  | P.Repl_status_reply st -> check_string "replica role" "replica" st.P.repl_role
  | _ -> Alcotest.fail "Repl_status failed");
  (match Kvserver.Engine.execute backend ~worker:0 P.Repl_promote with
  | P.Repl_promoted _ -> ()
  | _ -> Alcotest.fail "promote failed");
  check_bool "on_promote ran" true !promoted;
  match Kvserver.Engine.execute backend ~worker:0 (P.Put { key = "k"; columns = [| "v" |] }) with
  | P.Ok_put -> ()
  | _ -> Alcotest.fail "promoted engine still read-only"

(* ---- router read offload ---- *)

let test_router_offload () =
  let stores = Array.init 2 (fun _ -> Store.create ()) in
  let router = Shard.Router.create ~concurrency:Shard.Router.Dedicated stores in
  let keys = List.init 32 (fun i -> Printf.sprintf "k%02d" i) in
  List.iter (fun k -> Shard.Router.put router k [| "p" ^ k |]) keys;
  (* Mirror the primary contents into a single-store replica. *)
  let replica =
    let rstore = Store.create () in
    List.iter
      (fun k -> Store.migrate_put rstore ~key:k ~version:1L ~columns:[| "p" ^ k |])
      keys;
    Repl.Replica.create ~route:(fun _ -> 0) ~logs:[||] [| rstore |]
  in
  let handle =
    {
      Shard.Router.rh_label = "r1";
      rh_read =
        (fun key columns floor ->
          match Repl.Replica.read replica ~key ~columns ~floor with
          | P.Value v -> `Value v
          | P.Repl_stale _ -> `Stale
          | _ -> `Down);
      rh_applied = (fun () -> Repl.Replica.applied_max replica);
    }
  in
  check_bool "no replicas -> primary" true
    (Shard.Router.get_offload router "k00" <> None);
  Shard.Router.set_replicas router [ handle ];
  check_int "replica installed" 1 (Shard.Router.replica_count router);
  List.iter
    (fun k ->
      match Shard.Router.get_offload router k with
      | Some [| v |] -> check_string "offload value" ("p" ^ k) v
      | _ -> Alcotest.fail ("offload lost " ^ k))
    keys;
  let served, fallback = Shard.Router.offload_stats router in
  check_bool "reads served by replica" true (served >= List.length keys);
  check_int "no fallbacks yet" 0 fallback;
  (* An unreachable floor falls back to the owning shard. *)
  (match Shard.Router.get_offload router ~floor:Int64.max_int "k00" with
  | Some [| v |] -> check_string "fallback value" "pk00" v
  | _ -> Alcotest.fail "fallback lost the key");
  let _, fallback2 = Shard.Router.offload_stats router in
  check_int "fallback counted" 1 fallback2

(* ---- crash torture (bounded; the full sweep is bench crash) ---- *)

let test_torture_cases () =
  List.iter
    (fun (point, at, variant) ->
      let c = Repl.Torture.run_case ~point ~at ~variant () in
      match c.Repl.Torture.outcome with
      | Repl.Torture.Violation errs ->
          Alcotest.fail
            (Printf.sprintf "%s@%d v%d: %s" point at variant (String.concat "; " errs))
      | Repl.Torture.Crashed_ok | Repl.Torture.Clean -> ())
    [
      ("repl.ship.batch", 1, 0);
      ("repl.ship.batch", 3, 1);
      ("repl.ship.ack", 1, 2);
      ("repl.apply.batch", 2, 0);
      ("repl.apply.record", 5, 3);
      ("repl.promote.begin", 1, 0);
      ("repl.promote.sealed", 1, 3);
      ("repl.promote.done", 1, 1);
    ]

let suite =
  [
    Alcotest.test_case "bootstrap races live writes" `Quick test_bootstrap_under_writes;
    Alcotest.test_case "steady-state removes converge" `Quick test_convergence_after_removes;
    Alcotest.test_case "apply is order-independent" `Quick test_apply_order_independence;
    Alcotest.test_case "CRC rejects corrupt frames" `Quick test_crc_rejects_corrupt_frame;
    Alcotest.test_case "bounded-staleness reads" `Quick test_bounded_staleness;
    Alcotest.test_case "promotion adopts the clock" `Quick test_promote_adopts_clock;
    Alcotest.test_case "slow replica evicted, rebuilds" `Quick test_slow_replica_evicted;
    Alcotest.test_case "status, lag and retention" `Quick test_status_and_lag;
    Alcotest.test_case "engine read-only + promote" `Quick test_engine_readonly_and_handler;
    Alcotest.test_case "router replica offload" `Quick test_router_offload;
    Alcotest.test_case "crash torture (bounded)" `Quick test_torture_cases;
  ]

let () = Alcotest.run "repl" [ ("repl", suite) ]
