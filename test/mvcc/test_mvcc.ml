(* The MVCC subsystem end to end: chain algebra, store-level snapshot
   isolation and pruning bounds, tombstone visibility, lease expiry,
   cross-shard cut agreement, the shadow-map acceptance test on all
   three fronts (direct store, reactor wire, sharded wire), and the
   restart contract (snapshots never survive recovery; stale ids get a
   typed error, never a torn cut). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module Store = Kvstore.Store
module Chain = Mvcc.Chain
module Lease = Mvcc.Lease

let cols v = [| v |]

let get_str store key =
  match Store.get store key with
  | Some c -> Some c.(0)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Chain algebra                                                       *)
(* ------------------------------------------------------------------ *)

let test_chain_basics () =
  let c = Chain.empty in
  check_int "empty length" 0 (Chain.length c);
  let c = Chain.push c ~version:1L ~epoch:10 (Some "a") in
  let c = Chain.push c ~version:3L ~epoch:11 (Some "b") in
  let c = Chain.push c ~version:5L ~epoch:12 None in
  check_int "length" 3 (Chain.length c);
  (* find: newest entry with version <= at *)
  let payload at =
    match Chain.find c ~at with
    | None -> "miss"
    | Some e -> ( match e.Chain.payload with Some s -> s | None -> "tomb")
  in
  Alcotest.(check string) "at 0 -> born later" "miss" (payload 0L);
  Alcotest.(check string) "at 1" "a" (payload 1L);
  Alcotest.(check string) "at 2" "a" (payload 2L);
  Alcotest.(check string) "at 4" "b" (payload 4L);
  Alcotest.(check string) "at 9 -> tombstone" "tomb" (payload 9L);
  check_int "oldest birth epoch" 10
    (match Chain.oldest_birth_epoch c with Some e -> e | None -> -1)

(* push runs under border locks, so it must never raise: an out-of-order
   version (impossible on healthy paths — the store guards inversions)
   drops the stale newer entries instead of asserting. *)
let test_chain_push_out_of_order () =
  let c = Chain.empty in
  let c = Chain.push c ~version:2L ~epoch:0 (Some "a") in
  let c = Chain.push c ~version:5L ~epoch:0 (Some "b") in
  let c = Chain.push c ~version:3L ~epoch:0 (Some "c") in
  check_int "stale newer entry dropped" 2 (Chain.length c);
  let versions =
    Chain.fold (fun acc e -> Int64.to_int e.Chain.version :: acc) [] c
  in
  Alcotest.(check (list int)) "descending order kept" [ 2; 3 ] versions

let test_chain_prune () =
  (* Entries live over [version, death): v1 dies at 3, v3 at 5, v5 at
     the head's version 7. *)
  let c = Chain.empty in
  let c = Chain.push c ~version:1L ~epoch:0 (Some "a") in
  let c = Chain.push c ~version:3L ~epoch:0 (Some "b") in
  let c = Chain.push c ~version:5L ~epoch:0 (Some "c") in
  let keepers snaps =
    let pruned = Chain.prune c ~death_of_head:7L ~snapshots:snaps in
    (* fold walks newest-to-oldest; prepending yields oldest-first. *)
    Chain.fold
      (fun acc e -> Int64.to_int e.Chain.version :: acc)
      [] pruned
  in
  Alcotest.(check (list int)) "no snapshots -> empty" [] (keepers [||]);
  Alcotest.(check (list int)) "snap at 3 keeps v3" [ 3 ] (keepers [| 3L |]);
  Alcotest.(check (list int)) "snap at 4 keeps v3" [ 3 ] (keepers [| 4L |]);
  Alcotest.(check (list int))
    "snaps at 1 and 6 keep v1 and v5" [ 1; 5 ]
    (keepers [| 1L; 6L |]);
  Alcotest.(check (list int))
    "snap at 8 covers only the head -> empty" [] (keepers [| 8L |]);
  Alcotest.(check (list int))
    "one snap per entry keeps all" [ 1; 3; 5 ]
    (keepers [| 2L; 3L; 6L |])

(* ------------------------------------------------------------------ *)
(* Store-level chains and pruning                                      *)
(* ------------------------------------------------------------------ *)

let test_store_chain_lifecycle () =
  let store = Store.create () in
  Store.put store "k" (cols "v0");
  (* No snapshots: overwrites must not retain versions. *)
  Store.put store "k" (cols "v1");
  Store.put store "k" (cols "v2");
  check_int "no snapshot -> no chained versions" 0
    (Store.mvcc_versions_live store);
  (* Open: overwrites now chain. *)
  let s = Store.Snapshot.open_ store in
  Store.put store "k" (cols "v3");
  Store.put store "k" (cols "v4");
  check_bool "chained versions retained" true
    (Store.mvcc_versions_live store > 0);
  Alcotest.(check (option string)) "snapshot reads its cut" (Some "v2")
    (Option.map (fun c -> c.(0)) (Store.Snapshot.read s "k"));
  Alcotest.(check (option string)) "live read sees head" (Some "v4")
    (get_str store "k");
  (* A prune with the snapshot open must keep what it can read. *)
  Store.prune store;
  Alcotest.(check (option string)) "cut survives prune" (Some "v2")
    (Option.map (fun c -> c.(0)) (Store.Snapshot.read s "k"));
  (* Close: the horizon clears and pruning reclaims everything. *)
  Store.Snapshot.close s;
  Store.prune store;
  check_int "versions reclaimed after close" 0 (Store.mvcc_versions_live store);
  check_int "horizon empty" 0 (Store.snapshots_open store);
  (* Use after close is a programming error. *)
  check_bool "read after close raises" true
    (match Store.Snapshot.read s "k" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Overwrites under a long-lived snapshot (a checkpoint's cut) are
   bounded on the write path itself: no prune pass runs until the
   snapshot closes, yet no chain grows past the trigger and the cut
   stays readable throughout. *)
let test_chains_bounded_inline () =
  let store = Store.create () in
  let n = 1000 and rounds = 16 in
  let key i = Printf.sprintf "k%04d" i in
  for i = 0 to n - 1 do
    Store.put store (key i) (cols "cut")
  done;
  let s = Store.Snapshot.open_ store in
  for r = 1 to rounds do
    for i = 0 to n - 1 do
      Store.put store (key i) (cols (string_of_int r))
    done;
    (* Every key has the same history, so the chains all have the same
       length: the live count bounds each one. *)
    let live = Store.mvcc_versions_live store in
    if live > n * Store.chain_prune_trigger then
      Alcotest.failf "round %d: %d chained versions over %d keys (trigger %d)" r live n
        Store.chain_prune_trigger;
    for i = 0 to n - 1 do
      match Store.Snapshot.read s (key i) with
      | Some [| "cut" |] -> ()
      | _ -> Alcotest.failf "round %d: snapshot lost its cut for %s" r (key i)
    done
  done;
  Store.Snapshot.close s;
  Store.prune store;
  check_int "versions reclaimed after close and prune" 0 (Store.mvcc_versions_live store);
  Alcotest.(check (option string)) "head is the last round" (Some (string_of_int rounds))
    (get_str store (key 0))

let test_tombstone_visibility () =
  let store = Store.create () in
  Store.put store "a" (cols "va");
  Store.put store "b" (cols "vb");
  let s = Store.Snapshot.open_ store in
  check_bool "remove returns true" true (Store.remove store "a");
  Alcotest.(check (option string)) "live read: gone" None (get_str store "a");
  Alcotest.(check (option string)) "snapshot still sees it" (Some "va")
    (Option.map (fun c -> c.(0)) (Store.Snapshot.read s "a"));
  (* A snapshot opened after the remove sees the tombstone as absence. *)
  let s2 = Store.Snapshot.open_ store in
  Alcotest.(check (option string)) "later snapshot: gone" None
    (Option.map (fun c -> c.(0)) (Store.Snapshot.read s2 "a"));
  (* Scans agree with point reads at each cut. *)
  let keys_of snap =
    let acc = ref [] in
    ignore
      (Store.Snapshot.getrange snap ~start:"" ~limit:max_int (fun k _ ->
           acc := k :: !acc));
    List.rev !acc
  in
  Alcotest.(check (list string)) "old cut scans both" [ "a"; "b" ] (keys_of s);
  Alcotest.(check (list string)) "new cut scans one" [ "b" ] (keys_of s2);
  Store.Snapshot.close s;
  Store.Snapshot.close s2;
  Store.prune store;
  check_int "tombstone and chain reclaimed" 0 (Store.mvcc_versions_live store);
  check_int "only b remains" 1 (Store.cardinal store)

(* ------------------------------------------------------------------ *)
(* Leases                                                              *)
(* ------------------------------------------------------------------ *)

let test_lease_expiry_unpins () =
  let store = Store.create () in
  Store.put store "k" (cols "v0");
  let expired_log = ref [] in
  let leases =
    Lease.create ~ttl_us:100L
      ~on_expire:(fun id snap ->
        expired_log := id :: !expired_log;
        Store.Snapshot.close snap)
      ()
  in
  let snap = Store.Snapshot.open_ store in
  let id = Lease.grant ~now:0L leases snap in
  Store.put store "k" (cols "v1");
  check_bool "chain pinned" true (Store.mvcc_versions_live store > 0);
  (* find renews: at t=90 the lease lives, so it still lives at t=150. *)
  check_bool "find at 90 renews" true
    (match Lease.find ~now:90L leases id with Ok _ -> true | Error _ -> false);
  check_int "sweep at 150 expires nothing" 0 (Lease.sweep ~now:150L leases);
  (* Past the renewed deadline the sweep closes the snapshot. *)
  check_int "sweep at 300 expires it" 1 (Lease.sweep ~now:300L leases);
  Alcotest.(check (list int64)) "on_expire ran" [ id ] !expired_log;
  check_int "horizon unpinned" 0 (Store.snapshots_open store);
  Store.prune store;
  check_int "versions reclaimed" 0 (Store.mvcc_versions_live store);
  (* Typed staleness: the expired id is remembered; unknown ids are not. *)
  check_bool "expired id reports Expired" true
    (Lease.find ~now:301L leases id = Error Lease.Expired);
  check_bool "unknown id reports Unknown" true
    (Lease.find ~now:301L leases 999L = Error Lease.Unknown)

let test_lease_release_closes () =
  let closed = ref [] in
  let leases =
    Lease.create ~ttl_us:1000L ~on_expire:(fun _ v -> closed := v :: !closed) ()
  in
  let id = Lease.grant ~now:0L leases "payload" in
  check_int "one live lease" 1 (Lease.count leases);
  (match Lease.release ~now:10L leases id with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "release failed");
  Alcotest.(check (list string)) "release ran on_expire" [ "payload" ] !closed;
  check_int "released" 0 (Lease.count leases);
  check_bool "released id is Unknown (not Expired)" true
    (Lease.find ~now:20L leases id = Error Lease.Unknown)

(* A pin defers both TTL expiry and explicit close: an in-flight request
   holding the value must never have on_expire close it underneath. *)
let test_lease_pin_defers_expiry () =
  let closed = ref [] in
  let leases =
    Lease.create ~ttl_us:100L ~on_expire:(fun _ v -> closed := v :: !closed) ()
  in
  let id = Lease.grant ~now:0L leases "snap" in
  (match Lease.acquire ~now:10L leases id with
  | Ok v -> Alcotest.(check string) "acquire returns value" "snap" v
  | Error _ -> Alcotest.fail "acquire failed");
  (* Sweep far past the deadline while pinned: the lease is expired from
     the client's view, but the close is deferred. *)
  check_int "sweep counts the doomed lease" 1 (Lease.sweep ~now:500L leases);
  Alcotest.(check (list string)) "close deferred while pinned" [] !closed;
  check_int "doomed lease no longer counts" 0 (Lease.count leases);
  check_bool "doomed id reports Expired to new requests" true
    (Lease.acquire ~now:501L leases id = Error Lease.Expired);
  Lease.unpin leases id;
  Alcotest.(check (list string)) "last unpin runs the close" [ "snap" ] !closed;
  check_bool "after unpin the id stays Expired" true
    (Lease.find ~now:502L leases id = Error Lease.Expired)

let test_lease_pin_defers_release () =
  let closed = ref [] in
  let leases =
    Lease.create ~ttl_us:1000L ~on_expire:(fun _ v -> closed := v :: !closed) ()
  in
  let id = Lease.grant ~now:0L leases "snap" in
  (match Lease.acquire ~now:1L leases id with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "acquire failed");
  (* A concurrent Snap_close succeeds, but the handle outlives it until
     the in-flight request unpins. *)
  (match Lease.release ~now:2L leases id with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "release failed");
  Alcotest.(check (list string)) "close deferred while pinned" [] !closed;
  check_bool "released id is gone for new requests" true
    (Lease.acquire ~now:3L leases id = Error Lease.Unknown);
  Lease.unpin leases id;
  Alcotest.(check (list string)) "last unpin runs the close" [ "snap" ] !closed;
  check_bool "released id is Unknown afterwards" true
    (Lease.find ~now:4L leases id = Error Lease.Unknown)

let test_lease_with_lease_pins () =
  let closed = ref [] in
  let leases =
    Lease.create ~ttl_us:100L ~on_expire:(fun _ v -> closed := v :: !closed) ()
  in
  let id = Lease.grant ~now:0L leases "snap" in
  (match
     Lease.with_lease ~now:10L leases id (fun v ->
         (* Mid-request sweep and close: the value stays usable. *)
         ignore (Lease.sweep ~now:500L leases);
         (match Lease.release ~now:500L leases id with
         | Ok () | Error _ -> ());
         Alcotest.(check (list string)) "still open inside" [] !closed;
         String.uppercase_ascii v)
   with
  | Ok up -> Alcotest.(check string) "body result" "SNAP" up
  | Error _ -> Alcotest.fail "with_lease failed");
  Alcotest.(check (list string)) "closed exactly once on exit" [ "snap" ] !closed

(* ------------------------------------------------------------------ *)
(* Cross-shard cut agreement                                           *)
(* ------------------------------------------------------------------ *)

let test_cross_shard_cut () =
  let stores = Array.init 4 (fun _ -> Store.create ()) in
  let router = Shard.Router.create stores in
  let keys = List.init 64 (fun i -> Printf.sprintf "key-%04d" i) in
  List.iter (fun k -> Shard.Router.put router k (cols ("old-" ^ k))) keys;
  let snap = Shard.Router.Snapshot.open_ router in
  check_int "one cut per shard" 4
    (Array.length (Shard.Router.Snapshot.versions snap));
  (* Mutate every key (and remove some) after the cut. *)
  List.iteri
    (fun i k ->
      if i mod 3 = 0 then ignore (Shard.Router.remove router k)
      else Shard.Router.put router k (cols ("new-" ^ k)))
    keys;
  (* Point reads at the cut: all pre-mutation values. *)
  List.iter
    (fun k ->
      Alcotest.(check (option string))
        (Printf.sprintf "snap read %s" k)
        (Some ("old-" ^ k))
        (Option.map (fun c -> c.(0)) (Shard.Router.Snapshot.read snap k)))
    keys;
  (* The merged scan is the same consistent cut, in key order. *)
  let scanned = ref [] in
  ignore
    (Shard.Router.Snapshot.getrange snap ~start:"" ~limit:max_int
       (fun k c -> scanned := (k, c.(0)) :: !scanned));
  let scanned = List.rev !scanned in
  Alcotest.(check (list string)) "scan emits every key in order" keys
    (List.map fst scanned);
  List.iter
    (fun (k, v) ->
      Alcotest.(check string) (Printf.sprintf "scan value %s" k) ("old-" ^ k) v)
    scanned;
  Shard.Router.Snapshot.close snap;
  Array.iter Store.prune stores;
  Array.iter
    (fun s -> check_int "shard reclaimed" 0 (Store.mvcc_versions_live s))
    stores

(* ------------------------------------------------------------------ *)
(* Shadow-map acceptance: a snapshot opened before a randomized write
   burst returns byte-identical results to a shadow map frozen at open
   time — on the direct, reactor-wire and sharded-wire fronts.         *)
(* ------------------------------------------------------------------ *)

let burst_ops = 10_000
let key_space = 512

let key_of i = Printf.sprintf "acc-%04d" i

(* Seed the store via [put]/[remove], mirroring into [shadow]. *)
let preload put shadow =
  let rng = Xutil.Rng.create 7L in
  for i = 0 to key_space - 1 do
    let k = key_of i in
    let v = Printf.sprintf "seed-%d-%d" i (Xutil.Rng.int rng 1000) in
    put k v;
    Hashtbl.replace shadow k v
  done

let run_burst put remove =
  let rng = Xutil.Rng.create 99L in
  for _ = 1 to burst_ops do
    let k = key_of (Xutil.Rng.int rng key_space) in
    if Xutil.Rng.int rng 10 = 0 then remove k
    else put k (Printf.sprintf "burst-%d" (Xutil.Rng.int rng 1_000_000))
  done

let check_against_shadow ~what shadow ~read ~scan =
  (* Every key: the snapshot read equals the frozen shadow, byte for
     byte. *)
  for i = 0 to key_space - 1 do
    let k = key_of i in
    Alcotest.(check (option string))
      (Printf.sprintf "%s read %s" what k)
      (Hashtbl.find_opt shadow k) (read k)
  done;
  (* The scan is exactly the shadow's sorted dump. *)
  let expect =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) shadow [])
  in
  Alcotest.(check (list (pair string string))) (what ^ " scan = shadow") expect (scan ())

let test_shadow_direct () =
  let store = Store.create () in
  let shadow = Hashtbl.create 1024 in
  preload (fun k v -> Store.put store k (cols v)) shadow;
  let snap = Store.Snapshot.open_ store in
  run_burst
    (fun k v -> Store.put store k (cols v))
    (fun k -> ignore (Store.remove store k));
  check_against_shadow ~what:"direct" shadow
    ~read:(fun k -> Option.map (fun c -> c.(0)) (Store.Snapshot.read snap k))
    ~scan:(fun () ->
      let acc = ref [] in
      ignore
        (Store.Snapshot.getrange snap ~start:"" ~limit:max_int (fun k c ->
             acc := (k, c.(0)) :: !acc));
      List.rev !acc);
  Store.Snapshot.close snap;
  Store.prune store;
  check_int "versions reclaimed" 0 (Store.mvcc_versions_live store)

(* Wire-front variant: [mk_backend] builds the serving backend over
   freshly created stores; the burst and the snapshot both travel the
   protocol. *)
let shadow_over_wire ~what ~serve =
  let open Kvserver in
  let addr, stop = serve () in
  let client = Tcp.connect addr in
  Fun.protect
    ~finally:(fun () ->
      Tcp.disconnect client;
      stop ())
    (fun () ->
      let shadow = Hashtbl.create 1024 in
      let put k v =
        match Tcp.call client [ Protocol.Put { key = k; columns = cols v } ] with
        | [ Protocol.Ok_put ] -> ()
        | _ -> Alcotest.fail "put failed"
      in
      let remove k =
        ignore (Tcp.call client [ Protocol.Remove k ])
      in
      preload put shadow;
      let snap_id =
        match Tcp.call client [ Protocol.Snap_open ] with
        | [ Protocol.Snap_opened id ] -> id
        | _ -> Alcotest.fail "snap open failed"
      in
      run_burst put remove;
      check_against_shadow ~what shadow
        ~read:(fun k ->
          match
            Tcp.call client
              [ Protocol.Snap_read { snap = snap_id; key = k; columns = [] } ]
          with
          | [ Protocol.Value v ] -> Option.map (fun c -> c.(0)) v
          | _ -> Alcotest.fail "snap read failed")
        ~scan:(fun () ->
          match
            Tcp.call client
              [
                Protocol.Snap_range
                  { snap = snap_id; start = ""; count = max_int; columns = [] };
              ]
          with
          | [ Protocol.Range items ] ->
              List.map (fun (k, c) -> (k, c.(0))) items
          | _ -> Alcotest.fail "snap range failed");
      match Tcp.call client [ Protocol.Snap_close snap_id ] with
      | [ Protocol.Snap_closed ] -> ()
      | _ -> Alcotest.fail "snap close failed")

let test_shadow_reactor () =
  shadow_over_wire ~what:"reactor" ~serve:(fun () ->
      let store = Store.create () in
      let server =
        Kvserver.Reactor.serve ~shards:2
          (Kvserver.Tcp.Tcp ("127.0.0.1", 0))
          (Kvserver.Engine.single store)
      in
      ( Kvserver.Reactor.bound_addr server,
        fun () -> Kvserver.Reactor.shutdown server ))

let test_shadow_sharded () =
  shadow_over_wire ~what:"sharded" ~serve:(fun () ->
      let stores = Array.init 4 (fun _ -> Store.create ()) in
      let router = Shard.Router.create stores in
      let server =
        Kvserver.Tcp.serve
          (Kvserver.Tcp.Tcp ("127.0.0.1", 0))
          (Kvserver.Engine.sharded router)
      in
      ( Kvserver.Tcp.bound_addr server,
        fun () -> Kvserver.Tcp.shutdown server ))

(* ------------------------------------------------------------------ *)
(* Restart: snapshots never survive recovery                           *)
(* ------------------------------------------------------------------ *)

let with_tmpdir f =
  let dir = Filename.temp_file "mvccrestart" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    (fun () -> f dir)
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
      in
      rm dir)

let test_recovery_replays_heads_only () =
  let dir = Filename.temp_file "mvccrec" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let log_path = Filename.concat dir "log0" in
  let logs = [| Persist.Logger.create ~synchronous:true log_path |] in
  let store = Store.create ~logs () in
  Store.put ~worker:0 store "a" (cols "a0");
  Store.put ~worker:0 store "b" (cols "b0");
  (* Build chains: a snapshot pins the horizon while heads churn. *)
  let snap = Store.Snapshot.open_ store in
  Store.put ~worker:0 store "a" (cols "a1");
  Store.put ~worker:0 store "a" (cols "a2");
  ignore (Store.remove ~worker:0 store "b");
  check_bool "chains built" true (Store.mvcc_versions_live store > 0);
  (* A snapshot checkpoint taken at this cut persists resolved heads,
     never chain records. *)
  let ckpt = Filename.concat dir "ckpt" in
  (match Store.checkpoint store ~dir:ckpt ~writers:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Store.Snapshot.close snap;
  Store.close store;
  (* Recovery replays only head values; its internal asserts check that
     no chain ever reaches the recovered tree. *)
  (match Store.recover ~log_paths:[ log_path ] ~checkpoint_dirs:[ ckpt ] () with
  | Ok (recovered, _) ->
      check_int "recovered store has no chained versions" 0
        (Store.mvcc_versions_live recovered);
      check_int "no snapshots open after recovery" 0
        (Store.snapshots_open recovered);
      Alcotest.(check (option string)) "a = latest head" (Some "a2")
        (get_str recovered "a");
      Alcotest.(check (option string)) "b removed" None (get_str recovered "b")
  | Error e -> Alcotest.fail e);
  ()

let test_snapshot_dies_across_restart () =
  with_tmpdir (fun dir ->
      let open Kvserver in
      let log_path = Filename.concat dir "log0" in
      let start log =
        let store =
          match Sys.file_exists log with
          | false -> Store.create ~logs:[| Persist.Logger.create ~synchronous:true log |] ()
          | true -> (
              match
                Store.recover
                  ~logs:[| Persist.Logger.create ~synchronous:true (log ^ ".new") |]
                  ~log_paths:[ log ] ~checkpoint_dirs:[] ()
              with
              | Ok (s, _) -> s
              | Error e -> Alcotest.fail e)
        in
        let server = Tcp.serve (Tcp.Tcp ("127.0.0.1", 0)) (Engine.single store) in
        (store, server)
      in
      (* First incarnation: data plus an open snapshot. *)
      let store1, server1 = start log_path in
      let c1 = Tcp.connect (Tcp.bound_addr server1) in
      ignore (Tcp.call c1 [ Protocol.Put { key = "k"; columns = cols "v" } ]);
      let snap_id =
        match Tcp.call c1 [ Protocol.Snap_open ] with
        | [ Protocol.Snap_opened id ] -> id
        | _ -> Alcotest.fail "snap open failed"
      in
      (match
         Tcp.call c1 [ Protocol.Snap_read { snap = snap_id; key = "k"; columns = [] } ]
       with
      | [ Protocol.Value (Some _) ] -> ()
      | _ -> Alcotest.fail "snap read before restart failed");
      Tcp.disconnect c1;
      Tcp.shutdown server1;
      Store.close store1;
      (* Restart.  The old snapshot id must fail with the typed Unknown
         error — never a torn or partial cut. *)
      let store2, server2 = start log_path in
      let c2 = Tcp.connect (Tcp.bound_addr server2) in
      Fun.protect
        ~finally:(fun () ->
          Tcp.disconnect c2;
          Tcp.shutdown server2;
          Store.close store2)
        (fun () ->
          Alcotest.(check (option string)) "data recovered" (Some "v")
            (match Tcp.call c2 [ Protocol.Get { key = "k"; columns = [] } ] with
            | [ Protocol.Value (Some c) ] -> Some c.(0)
            | _ -> None);
          (match
             Tcp.call c2
               [ Protocol.Snap_read { snap = snap_id; key = "k"; columns = [] } ]
           with
          | [ Protocol.Snap_failed Protocol.Snap_unknown ] -> ()
          | [ Protocol.Snap_failed Protocol.Snap_expired ] ->
              Alcotest.fail "stale snapshot reported Expired, want Unknown"
          | _ -> Alcotest.fail "stale snapshot did not fail with a typed error");
          match Tcp.call c2 [ Protocol.Snap_close snap_id ] with
          | [ Protocol.Snap_failed Protocol.Snap_unknown ] -> ()
          | _ -> Alcotest.fail "stale close did not report Unknown"))

let () =
  Alcotest.run "mvcc"
    [
      ( "chain",
        [
          Alcotest.test_case "push/find/length" `Quick test_chain_basics;
          Alcotest.test_case "push out of order" `Quick
            test_chain_push_out_of_order;
          Alcotest.test_case "prune keep-rule" `Quick test_chain_prune;
        ] );
      ( "store",
        [
          Alcotest.test_case "chain lifecycle" `Quick test_store_chain_lifecycle;
          Alcotest.test_case "tombstone visibility" `Quick
            test_tombstone_visibility;
          Alcotest.test_case "chains bounded inline" `Quick test_chains_bounded_inline;
        ] );
      ( "lease",
        [
          Alcotest.test_case "expiry unpins" `Quick test_lease_expiry_unpins;
          Alcotest.test_case "release closes via on_expire" `Quick
            test_lease_release_closes;
          Alcotest.test_case "pin defers expiry" `Quick
            test_lease_pin_defers_expiry;
          Alcotest.test_case "pin defers release" `Quick
            test_lease_pin_defers_release;
          Alcotest.test_case "with_lease pins" `Quick test_lease_with_lease_pins;
        ] );
      ( "shard",
        [ Alcotest.test_case "cross-shard cut" `Quick test_cross_shard_cut ] );
      ( "shadow",
        [
          Alcotest.test_case "direct front" `Quick test_shadow_direct;
          Alcotest.test_case "reactor front" `Quick test_shadow_reactor;
          Alcotest.test_case "sharded front" `Quick test_shadow_sharded;
        ] );
      ( "restart",
        [
          Alcotest.test_case "recovery replays heads only" `Quick
            test_recovery_replays_heads_only;
          Alcotest.test_case "snapshot dies across restart" `Quick
            test_snapshot_dies_across_restart;
        ] );
    ]
