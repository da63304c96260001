(* Multi-domain stress tests for the "no lost keys" correctness condition
   (§4.4) and the specific writer-reader hazards the paper calls out:
   concurrent splits during descent, the remove/reuse race of §4.6.5, and
   scans racing inserts.  On a 1-core host domains interleave rather than
   run in parallel, which still exercises every retry path (dirty-bit
   windows span descheduling points). *)

open Masstree_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let domains = 4

(* Disjoint writers, concurrent readers: every inserted key must be
   immediately and permanently visible. *)
let test_no_lost_inserts () =
  let t = Tree.create () in
  let per = 4000 in
  let lost = Atomic.make 0 in
  ignore
    (Xutil.Domain_pool.run domains (fun d ->
         for i = 0 to per - 1 do
           let k = Printf.sprintf "d%d-%06d" d i in
           ignore (Tree.put t k (d, i));
           (* Read back something written earlier by this domain. *)
           let j = i / 2 in
           let k' = Printf.sprintf "d%d-%06d" d j in
           match Tree.get t k' with
           | Some (d', j') when d' = d && j' = j -> ()
           | _ -> Atomic.incr lost
         done));
  check_int "no lost keys during run" 0 (Atomic.get lost);
  check_int "all keys present" (domains * per) (Tree.cardinal t);
  (match Tree.check t with Ok () -> () | Error m -> Alcotest.failf "check: %s" m)

(* All domains hammer the same small key set: updates must never surface a
   value nobody wrote, and the final state must be one of the written
   values. *)
let test_contended_updates () =
  let t = Tree.create () in
  let keys = Array.init 16 (fun i -> Printf.sprintf "hot%02d" i) in
  let iters = 20_000 in
  let bad = Atomic.make 0 in
  ignore
    (Xutil.Domain_pool.run domains (fun d ->
         let rng = Xutil.Rng.create (Int64.of_int (d + 1)) in
         for i = 1 to iters do
           let k = keys.(Xutil.Rng.int rng 16) in
           if Xutil.Rng.int rng 10 < 5 then ignore (Tree.put t k ((d * iters) + i))
           else begin
             match Tree.get t k with
             | None -> ()
             | Some v -> if v < 0 || v > domains * iters * 2 then Atomic.incr bad
           end
         done));
  check_int "no phantom values" 0 (Atomic.get bad)

(* The §4.6.5 hazard: get(k1) racing remove(k1) + put(k2) reusing the
   slot must never return k2's value for k1.  Values encode their key so
   the mix-up is detectable. *)
let test_remove_reuse_race () =
  let t = Tree.create () in
  let n_rounds = 3000 in
  let mixups = Atomic.make 0 in
  let stop = Atomic.make false in
  (* Writer: repeatedly remove k1 and insert k2 (same node; k2 reuses
     k1's slot), then reinsert k1 and remove k2. *)
  let results =
    Xutil.Domain_pool.run (domains + 1) (fun who ->
        if who = 0 then begin
          for _ = 1 to n_rounds do
            ignore (Tree.remove t "rrk1");
            ignore (Tree.put t "rrk2" "rrk2");
            ignore (Tree.remove t "rrk2");
            ignore (Tree.put t "rrk1" "rrk1")
          done;
          Atomic.set stop true
        end
        else begin
          while not (Atomic.get stop) do
            (match Tree.get t "rrk1" with
            | Some v when not (String.equal v "rrk1") -> Atomic.incr mixups
            | Some _ | None -> ());
            match Tree.get t "rrk2" with
            | Some v when not (String.equal v "rrk2") -> Atomic.incr mixups
            | Some _ | None -> ()
          done
        end)
  in
  ignore results;
  check_int "no cross-key value mixups" 0 (Atomic.get mixups)

(* Concurrent inserts and removes over overlapping ranges; afterwards the
   tree must exactly match a replay of the per-domain final states. *)
let test_insert_remove_churn () =
  let t = Tree.create () in
  let range = 2000 in
  let iters = 15_000 in
  ignore
    (Xutil.Domain_pool.run domains (fun d ->
         let rng = Xutil.Rng.create (Int64.of_int (100 + d)) in
         for _ = 1 to iters do
           let k = Printf.sprintf "%05d" (Xutil.Rng.int rng range) in
           if Xutil.Rng.bool rng then ignore (Tree.put t k d)
           else ignore (Tree.remove t k)
         done));
  Tree.maintain t;
  (match Tree.check t with Ok () -> () | Error m -> Alcotest.failf "check: %s" m);
  (* Every remaining binding must be retrievable and in scan order. *)
  let seen = ref [] in
  ignore (Tree.scan t ~limit:max_int (fun k _ -> seen := k :: !seen));
  let sorted = List.sort compare !seen in
  check_bool "scan ordered" true (List.rev !seen = sorted);
  List.iter
    (fun k -> if Tree.get t k = None then Alcotest.failf "scan saw %s but get misses" k)
    !seen

(* Scans racing inserts: a scan must never see keys out of order or
   duplicated, and keys present for the whole scan must appear. *)
let test_scan_vs_insert () =
  let t = Tree.create () in
  (* Stable backbone present throughout. *)
  let backbone = List.init 500 (fun i -> Printf.sprintf "stable%04d" i) in
  List.iter (fun k -> ignore (Tree.put t k k)) backbone;
  let stop = Atomic.make false in
  let anomalies = Atomic.make 0 in
  ignore
    (Xutil.Domain_pool.run (domains + 1) (fun who ->
         if who = 0 then begin
           (* Churn volatile keys interleaved between backbone keys. *)
           let rng = Xutil.Rng.create 5L in
           for _ = 1 to 20_000 do
             let k = Printf.sprintf "stable%04d!v%d" (Xutil.Rng.int rng 500) (Xutil.Rng.int rng 5) in
             if Xutil.Rng.bool rng then ignore (Tree.put t k k) else ignore (Tree.remove t k)
           done;
           Atomic.set stop true
         end
         else begin
           while not (Atomic.get stop) do
             let prev = ref "" in
             let seen_backbone = ref 0 in
             ignore
               (Tree.scan t ~limit:max_int (fun k _ ->
                    if String.compare k !prev <= 0 && !prev <> "" then Atomic.incr anomalies;
                    prev := k;
                    if String.length k = 10 then incr seen_backbone));
             if !seen_backbone <> 500 then Atomic.incr anomalies
           done
         end));
  check_int "ordered, complete scans" 0 (Atomic.get anomalies)

(* Layer creation under contention: many keys sharing 8-byte prefixes
   inserted from all domains at once. *)
let test_concurrent_layer_creation () =
  let t = Tree.create () in
  let per = 2000 in
  ignore
    (Xutil.Domain_pool.run domains (fun d ->
         for i = 0 to per - 1 do
           (* Distinct keys, heavily shared prefixes across domains. *)
           let k = Printf.sprintf "PREFIX%02d-SHARED-%d-%d" (i mod 50) d i in
           ignore (Tree.put t k (d, i))
         done));
  check_int "all present" (domains * per) (Tree.cardinal t);
  ignore
    (Xutil.Domain_pool.run domains (fun d ->
         for i = 0 to per - 1 do
           let k = Printf.sprintf "PREFIX%02d-SHARED-%d-%d" (i mod 50) d i in
           match Tree.get t k with
           | Some (d', i') when d' = d && i' = i -> ()
           | _ -> failwith "lost layered key"
         done));
  match Tree.check t with Ok () -> () | Error m -> Alcotest.failf "check: %s" m

(* Root retry rate sanity (§6.2): with concurrent inserting threads the
   fraction of operations retrying from the root stays small. *)
let test_retry_rates () =
  let t = Tree.create () in
  let per = 10_000 in
  ignore
    (Xutil.Domain_pool.run domains (fun d ->
         let rng = Xutil.Rng.create (Int64.of_int (7 * (d + 1))) in
         for _ = 1 to per do
           ignore (Tree.put t (string_of_int (Xutil.Rng.int rng 1_000_000)) d)
         done));
  let s = Tree.stats t in
  let root_retries = Stats.read s Stats.Root_retries in
  let total = Stats.read s Stats.Puts in
  check_bool
    (Printf.sprintf "root retries (%d) rare vs puts (%d)" root_retries total)
    true
    (float_of_int root_retries < 0.05 *. float_of_int total)

(* Counters are per domain and summed on read: every get of every
   domain, plain or batched, is counted once, exited domains included. *)
let test_stats_per_domain () =
  let t = Tree.create () in
  for i = 0 to 99 do
    ignore (Tree.put t (Printf.sprintf "s%04d" i) i)
  done;
  let per = 5000 in
  ignore
    (Xutil.Domain_pool.run domains (fun d ->
         for i = 0 to per - 1 do
           ignore (Tree.get t (Printf.sprintf "s%04d" ((i + d) mod 100)))
         done));
  check_int "gets summed over domains" (domains * per) (Stats.read (Tree.stats t) Stats.Gets);
  ignore (Tree.multi_get t [| "s0001"; "s0002"; "nope" |]);
  check_int "batched gets counted per key" ((domains * per) + 3)
    (Stats.read (Tree.stats t) Stats.Gets);
  check_int "puts" 100 (Stats.read (Tree.stats t) Stats.Puts)

let suite =
  [
    Alcotest.test_case "per-domain stats" `Quick test_stats_per_domain;
    Alcotest.test_case "no lost inserts" `Slow test_no_lost_inserts;
    Alcotest.test_case "contended updates" `Slow test_contended_updates;
    Alcotest.test_case "remove/reuse race (4.6.5)" `Slow test_remove_reuse_race;
    Alcotest.test_case "insert/remove churn" `Slow test_insert_remove_churn;
    Alcotest.test_case "scan vs insert" `Slow test_scan_vs_insert;
    Alcotest.test_case "concurrent layer creation" `Slow test_concurrent_layer_creation;
    Alcotest.test_case "retry rates" `Slow test_retry_rates;
  ]
