(* Sharded tier: router mapping stability, cross-shard merge correctness,
   hot-key cache coherence, and the modeled baseline's load counters. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

open Shard

let new_stores n = Array.init n (fun _ -> Kvstore.Store.create ())

(* A hot config that engages deterministically in unit tests: every get
   sampled, top-K refreshed every 16 observations. *)
let eager_hot =
  { Router.hot_slots = 64; sketch_capacity = 64; refresh_every = 16; sample = 1 }

(* --- routing ------------------------------------------------------- *)

let test_mapping_stability () =
  let r1 = Router.create (new_stores 4) in
  let r2 = Router.create (new_stores 4) in
  for i = 0 to 499 do
    let k = Printf.sprintf "key-%d" i in
    let s = Router.shard_of r1 k in
    check_bool "in range" true (s >= 0 && s < 4);
    (* same partitioning + shard count => same placement on any router *)
    check_int "stable across instances" s (Router.shard_of r2 k)
  done;
  (* all shards get some share of a spread population *)
  let counts = Array.make 4 0 in
  for i = 0 to 1999 do
    let s = Router.shard_of r1 (Printf.sprintf "spread-%d" i) in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri (fun s c -> check_bool (Printf.sprintf "shard %d nonempty" s) true (c > 200)) counts

let test_range_partitioning () =
  let r = Router.create ~partitioning:(Router.Range [| "g"; "p" |]) (new_stores 3) in
  check_int "a -> 0" 0 (Router.shard_of r "a");
  check_int "fz -> 0" 0 (Router.shard_of r "fz");
  check_int "g -> 1" 1 (Router.shard_of r "g");
  check_int "m -> 1" 1 (Router.shard_of r "m");
  check_int "ozzz -> 1" 1 (Router.shard_of r "ozzz");
  check_int "p -> 2" 2 (Router.shard_of r "p");
  check_int "zz -> 2" 2 (Router.shard_of r "zz");
  check_int "empty key -> 0" 0 (Router.shard_of r "");
  (* writes land on the owning shard's store *)
  Router.put r "dog" [| "v0" |];
  Router.put r "hen" [| "v1" |];
  Router.put r "pig" [| "v2" |];
  let stores = Router.stores r in
  check_bool "dog on shard 0" true (Kvstore.Store.get stores.(0) "dog" = Some [| "v0" |]);
  check_bool "hen on shard 1" true (Kvstore.Store.get stores.(1) "hen" = Some [| "v1" |]);
  check_bool "pig on shard 2" true (Kvstore.Store.get stores.(2) "pig" = Some [| "v2" |])

(* --- point ops vs a model ------------------------------------------ *)

let test_ops_vs_model () =
  let r = Router.create ~hot:eager_hot (new_stores 4) in
  let model = Hashtbl.create 256 in
  let rng = Xutil.Rng.create 7L in
  for _ = 1 to 4000 do
    let k = Printf.sprintf "k%d" (Xutil.Rng.int rng 300) in
    match Xutil.Rng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        let v = [| string_of_int (Xutil.Rng.int rng 1000) |] in
        Router.put r k v;
        Hashtbl.replace model k v
    | 4 | 5 ->
        let had = Hashtbl.mem model k in
        Hashtbl.remove model k;
        check_bool "remove reply" had (Router.remove r k)
    | _ ->
        check_bool "get matches model" true (Router.get r k = Hashtbl.find_opt model k)
  done;
  check_int "cardinal" (Hashtbl.length model) (Router.cardinal r);
  Hashtbl.iter
    (fun k v -> check_bool ("final " ^ k) true (Router.get r k = Some v))
    model;
  (match Router.check r with
  | Ok () -> ()
  | Error m -> Alcotest.failf "structural check: %s" m)

let test_put_columns_through_router () =
  let r = Router.create (new_stores 3) in
  Router.put r "row" [| "a"; "b" |];
  Router.put_columns r "row" [ (1, "B"); (3, "D") ];
  check_bool "merged columns" true (Router.get r "row" = Some [| "a"; "B"; ""; "D" |]);
  check_bool "column projection" true (Router.get_columns r "row" [ 3; 0 ] = Some [| "D"; "a" |])

(* --- multi_get fan-out --------------------------------------------- *)

let test_multi_get_merge () =
  List.iter
    (fun hot ->
      let r = Router.create ?hot (new_stores 4) in
      for i = 0 to 59 do
        Router.put r (Printf.sprintf "k%03d" i) [| string_of_int i |]
      done;
      let req =
        [| "k005"; "missing-1"; "k059"; "k000"; "k005"; "nope"; "k031" |]
      in
      (* twice: second pass exercises cache hits when hot is on *)
      for _pass = 1 to 2 do
        let got = Router.multi_get r req in
        check_int "result arity" (Array.length req) (Array.length got);
        Array.iteri
          (fun i k ->
            let expect =
              if String.length k = 4 && k.[0] = 'k' then
                Some [| string_of_int (int_of_string (String.sub k 1 3)) |]
              else None
            in
            check_bool (Printf.sprintf "slot %d (%s)" i k) true (got.(i) = expect))
          req
      done)
    [ None; Some eager_hot ]

(* --- cross-shard merged scans -------------------------------------- *)

let test_scan_merge () =
  let r = Router.create (new_stores 4) in
  let model = ref [] in
  let rng = Xutil.Rng.create 42L in
  for _ = 1 to 300 do
    let k = Printf.sprintf "%08d" (Xutil.Rng.int rng 1_000_000) in
    if not (List.mem_assoc k !model) then begin
      Router.put r k [| k |];
      model := (k, [| k |]) :: !model
    end
  done;
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) !model in
  (* full forward scan: complete and ordered *)
  let seen = ref [] in
  let n = Router.getrange r ~start:"" ~limit:max_int (fun k v -> seen := (k, v) :: !seen) in
  check_int "full scan count" (List.length sorted) n;
  check_bool "full scan = sorted model" true (List.rev !seen = sorted);
  (* windowed scans from arbitrary starts *)
  List.iter
    (fun (start, limit) ->
      let expect =
        sorted |> List.filter (fun (k, _) -> k >= start) |> List.filteri (fun i _ -> i < limit)
      in
      let seen = ref [] in
      let n = Router.getrange r ~start ~limit (fun k v -> seen := (k, v) :: !seen) in
      check_int (Printf.sprintf "count from %s" start) (List.length expect) n;
      check_bool (Printf.sprintf "window from %s" start) true (List.rev !seen = expect))
    [ ("", 17); ("00400000", 25); ("00999999", 10); ("99999999", 5) ];
  (* reverse scan mirrors the forward order *)
  let rev_sorted = List.rev sorted in
  let seen = ref [] in
  let n = Router.getrange_rev r ~limit:40 (fun k v -> seen := (k, v) :: !seen) in
  let expect = List.filteri (fun i _ -> i < 40) rev_sorted in
  check_int "rev count" 40 n;
  check_bool "rev window" true (List.rev !seen = expect)

let test_scan_across_range_boundary () =
  (* explicit boundary: the merge must stitch shard 0's tail to shard 1's
     head without gap or reorder *)
  let r = Router.create ~partitioning:(Router.Range [| "m" |]) (new_stores 2) in
  let keys = List.init 26 (fun i -> String.make 1 (Char.chr (Char.code 'a' + i))) in
  List.iter (fun k -> Router.put r k [| k |]) keys;
  let seen = ref [] in
  let n = Router.getrange r ~start:"j" ~limit:8 (fun k _ -> seen := k :: !seen) in
  check_int "count" 8 n;
  check_bool "j..q in order" true
    (List.rev !seen = [ "j"; "k"; "l"; "m"; "n"; "o"; "p"; "q" ]);
  let seen = ref [] in
  ignore (Router.getrange_rev r ~start:"o" ~limit:6 (fun k _ -> seen := k :: !seen));
  check_bool "o..j reversed" true (List.rev !seen = [ "o"; "n"; "m"; "l"; "k"; "j" ])

let test_scan_merge_chunk_refill () =
  (* enough keys per shard to drain the merge's 256-pair chunks several
     times, so the refill cursor path (resume just past the last yielded
     key, drop the inclusive duplicate) is what's under test *)
  let r = Router.create (new_stores 2) in
  let n = 1500 in
  let key i = Printf.sprintf "%06d" i in
  for i = 0 to n - 1 do
    Router.put r (key i) [| string_of_int i |]
  done;
  let seen = ref [] in
  let c = Router.getrange r ~start:"" ~limit:max_int (fun k _ -> seen := k :: !seen) in
  check_int "full count across refills" n c;
  check_bool "full order across refills" true (List.rev !seen = List.init n key);
  (* windowed forward scan crossing several refills *)
  let seen = ref [] in
  let c = Router.getrange r ~start:(key 100) ~limit:700 (fun k _ -> seen := k :: !seen) in
  check_int "window count" 700 c;
  check_bool "window order" true (List.rev !seen = List.init 700 (fun i -> key (100 + i)));
  (* reverse scan crossing several refills *)
  let seen = ref [] in
  let c = Router.getrange_rev r ~start:(key 1399) ~limit:700 (fun k _ -> seen := k :: !seen) in
  check_int "rev count" 700 c;
  check_bool "rev order" true (List.rev !seen = List.init 700 (fun i -> key (1399 - i)))

(* --- bootstrap: restart resharding --------------------------------- *)

let tmpdir () = Xutil.Tmpdir.scoped "shard-boot"

let boot ?hot ~shards dir =
  match Bootstrap.boot ?hot ~data_dir:dir ~shards ~n_logs:2 () with
  | Ok b -> b
  | Error e -> Alcotest.failf "boot: %s" e

let shutdown b = Array.iter Kvstore.Store.close b.Bootstrap.stores

let tier_get b k =
  match b.Bootstrap.router with
  | Some r -> Router.get r k
  | None -> Kvstore.Store.get b.Bootstrap.stores.(0) k

let tier_put b k v =
  match b.Bootstrap.router with
  | Some r -> Router.put r k v
  | None -> Kvstore.Store.put b.Bootstrap.stores.(0) k v

let tier_remove b k =
  match b.Bootstrap.router with
  | Some r -> Router.remove r k
  | None -> Kvstore.Store.remove b.Bootstrap.stores.(0) k

(* The stale-resurrection regression: grow the tier, update every key,
   restart.  Growing 2 -> 3 re-homes ~a third of the keys; before
   migration carried versions (and before boot reclaimed the live dirs'
   superseded logs), the old copy of a re-homed key survived in its old
   shard's logs, and on the next restart whichever dir migrated LAST put
   its copy last and won — silently rolling the key back. *)
let test_reshard_update_restart () =
  let dir = tmpdir () in
  let n = 200 in
  let key i = Printf.sprintf "key-%04d" i in
  (* incarnation 1: two shards, seed every key *)
  let b = boot ~shards:2 dir in
  for i = 0 to n - 1 do
    tier_put b (key i) [| "v0"; string_of_int i |]
  done;
  shutdown b;
  (* incarnation 2: grow to three shards; keys re-home; update them all *)
  let b = boot ~shards:3 dir in
  for i = 0 to n - 1 do
    check_bool ("recovered " ^ key i) true (tier_get b (key i) = Some [| "v0"; string_of_int i |])
  done;
  (* the re-homed dataset now lives in the fresh logs; the superseded
     sources inside the live shard dirs must be gone *)
  Array.iter
    (fun d -> check_int ("only fresh logs in " ^ d) 2 (List.length (Bootstrap.find_logs d)))
    b.Bootstrap.dirs;
  for i = 0 to n - 1 do
    tier_put b (key i) [| "v1"; string_of_int i |]
  done;
  check_bool "removed key" true (tier_remove b (key 0));
  shutdown b;
  (* incarnation 3: same shard count — every update must survive, the
     removed key must stay gone *)
  let b = boot ~shards:3 dir in
  check_bool "remove survives restart" true (tier_get b (key 0) = None);
  for i = 1 to n - 1 do
    check_bool ("update survives restart: " ^ key i) true
      (tier_get b (key i) = Some [| "v1"; string_of_int i |])
  done;
  shutdown b;
  Bootstrap.rm_rf dir

(* Shrinking re-homes orphan-dir keys and reclaims the orphan dirs;
   returning to --shards 1 folds everything back into the root. *)
let test_reshard_shrink_and_back_to_single () =
  let dir = tmpdir () in
  let n = 120 in
  let key i = Printf.sprintf "s%03d" i in
  let b = boot ~shards:3 dir in
  for i = 0 to n - 1 do
    tier_put b (key i) [| string_of_int i |]
  done;
  shutdown b;
  (* 3 -> 2: shard-2 is an orphan; its keys must re-home, its dir go *)
  let b = boot ~shards:2 dir in
  for i = 0 to n - 1 do
    check_bool ("after shrink: " ^ key i) true (tier_get b (key i) = Some [| string_of_int i |])
  done;
  check_bool "orphan dir reclaimed" false
    (Sys.file_exists (Filename.concat dir "shard-2"));
  tier_put b (key 7) [| "updated" |];
  shutdown b;
  (* 2 -> 1: every shard dir is an orphan; state folds into the root *)
  let b = boot ~shards:1 dir in
  check_bool "single store" true (b.Bootstrap.router = None);
  check_bool "update survived the fold" true (tier_get b (key 7) = Some [| "updated" |]);
  for i = 0 to n - 1 do
    if i <> 7 then
      check_bool ("after fold: " ^ key i) true (tier_get b (key i) = Some [| string_of_int i |])
  done;
  check_bool "shard dirs reclaimed" false (Sys.file_exists (Filename.concat dir "shard-0"));
  check_int "cardinal after fold" n (Kvstore.Store.cardinal b.Bootstrap.stores.(0));
  shutdown b;
  Bootstrap.rm_rf dir

(* --- hot-key cache -------------------------------------------------- *)

let test_hot_cache_serves_and_invalidates () =
  let r = Router.create ~hot:eager_hot (new_stores 4) in
  Router.put r "hot" [| "v1" |];
  (* heat the sketch until "hot" is fill-eligible, then keep reading so a
     fill happens *)
  for _ = 1 to 200 do
    check_bool "hot read v1" true (Router.get r "hot" = Some [| "v1" |])
  done;
  check_bool "key became hot" true (Router.hot_key_count r > 0);
  let stats = Option.get (Router.hot_stats r) in
  check_bool "cache filled" true (stats.Hotcache.s_fills > 0);
  check_bool "cache hit" true (stats.Hotcache.s_hits > 0);
  (* a write must invalidate: the very next read sees the new value *)
  Router.put r "hot" [| "v2" |];
  check_bool "read after put" true (Router.get r "hot" = Some [| "v2" |]);
  for _ = 1 to 50 do
    check_bool "stays v2" true (Router.get r "hot" = Some [| "v2" |])
  done;
  Router.put_columns r "hot" [ (0, "v3") ];
  check_bool "read after put_columns" true (Router.get r "hot" = Some [| "v3" |]);
  check_bool "remove" true (Router.remove r "hot");
  check_bool "gone after remove" true (Router.get r "hot" = None);
  for _ = 1 to 50 do
    check_bool "stays gone" true (Router.get r "hot" = None)
  done;
  let stats = Option.get (Router.hot_stats r) in
  check_bool "invalidations counted" true (stats.Hotcache.s_invalidations >= 3)

let test_hot_cache_multi_get_coherent () =
  let r = Router.create ~hot:eager_hot (new_stores 4) in
  Router.put r "a" [| "1" |];
  Router.put r "b" [| "2" |];
  for _ = 1 to 100 do
    ignore (Router.multi_get r [| "a"; "b" |])
  done;
  Router.put r "a" [| "1'" |];
  let got = Router.multi_get r [| "a"; "b" |] in
  check_bool "multi_get sees new value" true
    (got = [| Some [| "1'" |]; Some [| "2" |] |])

(* --- hotcache stamp protocol (unit) -------------------------------- *)

let test_hotcache_stamp_protocol () =
  let c = Hotcache.create ~slots:16 in
  let h = Hotcache.hash "k" in
  check_bool "empty miss" true (Hotcache.find c h "k" = None);
  let st = Hotcache.stamp c h in
  check_bool "fill with fresh stamp" true
    (Hotcache.fill c h "k" ~stamp:st ~version:3L [| "v" |]);
  check_bool "hit" true (Hotcache.find c h "k" = Some [| "v" |]);
  check_bool "cached version" true (Hotcache.cached_version c "k" = Some 3L);
  (* the stale-fill race: stamp taken, writer invalidates, fill must lose *)
  let st = Hotcache.stamp c h in
  Hotcache.invalidate c h "k";
  check_bool "entry dropped" true (Hotcache.find c h "k" = None);
  check_bool "stale fill rejected" true
    (not (Hotcache.fill c h "k" ~stamp:st ~version:9L [| "stale" |]));
  check_bool "still empty" true (Hotcache.find c h "k" = None);
  let stats = Hotcache.stats c in
  check_int "rejected fills" 1 stats.Hotcache.s_rejected_fills;
  (* fresh stamp after the invalidation works again *)
  let st = Hotcache.stamp c h in
  check_bool "refill" true (Hotcache.fill c h "k" ~stamp:st ~version:10L [| "v2" |]);
  check_bool "hit v2" true (Hotcache.find c h "k" = Some [| "v2" |]);
  Hotcache.clear c;
  check_bool "cleared" true (Hotcache.find c h "k" = None)

let test_hot_sample_rounding () =
  (* note_get's 1-in-[sample] gate is a power-of-two mask; create rounds
     a non-power-of-two rate up (5 -> 8) instead of silently sampling at
     whatever the raw bit pattern happens to mean *)
  let hot = { Router.hot_slots = 16; sketch_capacity = 32; refresh_every = 4; sample = 5 } in
  let r = Router.create ~hot (new_stores 2) in
  Router.put r "h" [| "v" |];
  for _ = 1 to 400 do
    check_bool "reads v" true (Router.get r "h" = Some [| "v" |])
  done;
  check_bool "hot layer engages with odd sample" true (Router.hot_key_count r > 0);
  Router.put r "h" [| "v2" |];
  check_bool "coherent after write" true (Router.get r "h" = Some [| "v2" |])

(* --- heavy-hitter sketch ------------------------------------------- *)

let test_heavy_hitter () =
  let h = Heavy_hitter.create ~capacity:8 in
  (* 3 heavy keys among 100 light ones: guaranteed tracked *)
  for i = 1 to 1000 do
    Heavy_hitter.observe h "alpha";
    if i mod 2 = 0 then Heavy_hitter.observe h "beta";
    if i mod 4 = 0 then Heavy_hitter.observe h "gamma";
    Heavy_hitter.observe h (Printf.sprintf "light-%d" (i mod 100))
  done;
  let top = Heavy_hitter.top h 3 in
  check_int "top size" 3 (List.length top);
  check_bool "alpha is #1" true (fst (List.hd top) = "alpha");
  check_bool "beta tracked" true (List.mem_assoc "beta" top);
  (match Heavy_hitter.count h "alpha" with
  | None -> Alcotest.fail "alpha not tracked"
  | Some (count, err) ->
      check_bool "count upper-bounds frequency" true (count >= 1000);
      check_bool "error below count" true (err < count));
  let before = match Heavy_hitter.count h "alpha" with Some (c, _) -> c | None -> 0 in
  Heavy_hitter.decay h;
  (match Heavy_hitter.count h "alpha" with
  | None -> Alcotest.fail "alpha lost by decay"
  | Some (c, _) -> check_int "decay drops a quarter" (before - ((before + 3) / 4)) c);
  check_bool "observed monotone" true (Heavy_hitter.observed h > 0);
  Heavy_hitter.clear h;
  check_bool "cleared" true (Heavy_hitter.top h 1 = [])

(* --- load accounting ------------------------------------------------ *)

let test_shard_loads_and_imbalance () =
  let r = Router.create (new_stores 4) in
  for i = 0 to 399 do
    Router.put r (Printf.sprintf "k%d" i) [| "v" |]
  done;
  let loads = Router.shard_loads r in
  check_int "loads sum to ops" 400 (Array.fold_left ( + ) 0 loads);
  Router.reset_shard_loads r;
  check_int "reset" 0 (Array.fold_left ( + ) 0 (Router.shard_loads r));
  (* imbalance metric itself *)
  check_bool "balanced = 0" true (Router.imbalance_pct [| 100; 100; 100; 100 |] = 0.0);
  check_bool "one-hot = 300%" true
    (abs_float (Router.imbalance_pct [| 400; 0; 0; 0 |] -. 300.0) < 1e-9)

let test_partitioned_load_counters () =
  let p = Baselines.Partitioned.create ~parts:4 in
  check_int "fresh counters" 0
    (Array.fold_left ( + ) 0 (Baselines.Partitioned.load_counts p));
  for i = 0 to 99 do
    ignore (Baselines.Partitioned.put p (Printf.sprintf "k%d" i) i)
  done;
  for i = 0 to 99 do
    ignore (Baselines.Partitioned.get p (Printf.sprintf "k%d" i))
  done;
  let loads = Baselines.Partitioned.load_counts p in
  check_int "parts" 4 (Array.length loads);
  check_int "counts puts + gets" 200 (Array.fold_left ( + ) 0 loads);
  (* skewed traffic shows up in the same imbalance metric bench uses *)
  Baselines.Partitioned.reset_load_counts p;
  for _ = 1 to 300 do
    ignore (Baselines.Partitioned.get p "k1")
  done;
  let im = Router.imbalance_pct (Baselines.Partitioned.load_counts p) in
  check_bool "hot partition visible" true (im = 300.0);
  Baselines.Partitioned.reset_load_counts p;
  check_int "reset" 0 (Array.fold_left ( + ) 0 (Baselines.Partitioned.load_counts p))

(* --- protocol engine over the sharded backend ----------------------- *)

let test_engine_sharded_backend () =
  let module P = Kvserver.Protocol in
  let r = Router.create ~hot:eager_hot (new_stores 4) in
  let b = Kvserver.Engine.sharded r in
  let exec req = Kvserver.Engine.execute ~worker:0 b req in
  check_bool "put" true (exec (P.Put { key = "k1"; columns = [| "a" |] }) = P.Ok_put);
  check_bool "put2" true (exec (P.Put { key = "k2"; columns = [| "b" |] }) = P.Ok_put);
  check_bool "get" true
    (exec (P.Get { key = "k1"; columns = [] }) = P.Value (Some [| "a" |]));
  check_bool "get miss" true (exec (P.Get { key = "zz"; columns = [] }) = P.Value None);
  (* all-gets batch runs the fan-out multi_get path *)
  let batch =
    Kvserver.Engine.execute_batch ~worker:0 b
      [
        P.Get { key = "k2"; columns = [] };
        P.Get { key = "nope"; columns = [] };
        P.Get { key = "k1"; columns = [] };
      ]
  in
  check_bool "batch multi_get" true
    (batch = [ P.Value (Some [| "b" |]); P.Value None; P.Value (Some [| "a" |]) ]);
  check_bool "getrange merges shards" true
    (exec (P.Getrange { start = ""; count = 10; columns = [] })
    = P.Range [ ("k1", [| "a" |]); ("k2", [| "b" |]) ]);
  check_bool "getrange_rev" true
    (exec (P.Getrange_rev { start = ""; count = 10; columns = [] })
    = P.Range [ ("k2", [| "b" |]); ("k1", [| "a" |]) ]);
  check_bool "remove" true (exec (P.Remove "k1") = P.Removed true);
  check_bool "remove again" true (exec (P.Remove "k1") = P.Removed false);
  (* frame roundtrip through the same dispatch the transports use *)
  let resp =
    Kvserver.Engine.handle_frame ~worker:0 b
      (P.encode_requests [ P.Get { key = "k2"; columns = [] } ])
  in
  check_bool "frame roundtrip" true
    (P.decode_responses resp = [ P.Value (Some [| "b" |]) ])

let suite =
  [
    Alcotest.test_case "mapping stability" `Quick test_mapping_stability;
    Alcotest.test_case "range partitioning" `Quick test_range_partitioning;
    Alcotest.test_case "ops vs model" `Quick test_ops_vs_model;
    Alcotest.test_case "put_columns through router" `Quick test_put_columns_through_router;
    Alcotest.test_case "multi_get merge" `Quick test_multi_get_merge;
    Alcotest.test_case "scan merge" `Quick test_scan_merge;
    Alcotest.test_case "scan across range boundary" `Quick test_scan_across_range_boundary;
    Alcotest.test_case "scan merge chunk refill" `Quick test_scan_merge_chunk_refill;
    Alcotest.test_case "reshard: grow, update, restart" `Quick test_reshard_update_restart;
    Alcotest.test_case "reshard: shrink and back to single" `Quick
      test_reshard_shrink_and_back_to_single;
    Alcotest.test_case "hot sample rounding" `Quick test_hot_sample_rounding;
    Alcotest.test_case "hot cache serves and invalidates" `Quick
      test_hot_cache_serves_and_invalidates;
    Alcotest.test_case "hot cache multi_get coherent" `Quick
      test_hot_cache_multi_get_coherent;
    Alcotest.test_case "hotcache stamp protocol" `Quick test_hotcache_stamp_protocol;
    Alcotest.test_case "heavy hitter sketch" `Quick test_heavy_hitter;
    Alcotest.test_case "shard loads + imbalance" `Quick test_shard_loads_and_imbalance;
    Alcotest.test_case "partitioned load counters" `Quick test_partitioned_load_counters;
    Alcotest.test_case "engine sharded backend" `Quick test_engine_sharded_backend;
  ]

let () = Alcotest.run "shard" [ ("shard", suite) ]
