(* The storage system end to end: column semantics, atomic multi-column
   puts, logging + recovery, checkpoint + replay, crash injection. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tmpdir () = Xutil.Tmpdir.scoped "mtkv"

let cols = Alcotest.(check (option (array string)))

let basic_columns_for layout () =
  let s = Kvstore.Store.create ~layout () in
  Kvstore.Store.put s "k" [| "c0"; "c1"; "c2" |];
  cols "full get" (Some [| "c0"; "c1"; "c2" |]) (Kvstore.Store.get s "k");
  cols "subset" (Some [| "c2"; "c0" |]) (Kvstore.Store.get_columns s "k" [ 2; 0 ]);
  cols "missing col reads empty" (Some [| "c0"; "" |]) (Kvstore.Store.get_columns s "k" [ 0; 7 ]);
  Kvstore.Store.put_columns s "k" [ (1, "NEW") ];
  cols "column update" (Some [| "c0"; "NEW"; "c2" |]) (Kvstore.Store.get s "k");
  Kvstore.Store.put_columns s "k" [ (4, "wide") ];
  cols "widening" (Some [| "c0"; "NEW"; "c2"; ""; "wide" |]) (Kvstore.Store.get s "k");
  check_bool "remove" true (Kvstore.Store.remove s "k");
  check_bool "remove again" false (Kvstore.Store.remove s "k");
  cols "gone" None (Kvstore.Store.get s "k")

let test_put_columns_creates () =
  let s = Kvstore.Store.create () in
  Kvstore.Store.put_columns s "fresh" [ (2, "x") ];
  cols "created with padding" (Some [| ""; ""; "x" |]) (Kvstore.Store.get s "fresh")

let test_layouts_agree () =
  (* Same random history through both §4.7 value layouts: identical
     observable state. *)
  let a = Kvstore.Store.create ~layout:Kvstore.Store.Contiguous () in
  let b = Kvstore.Store.create ~layout:Kvstore.Store.Columnar () in
  let rng = Xutil.Rng.create 12L in
  for _ = 1 to 3000 do
    let k = string_of_int (Xutil.Rng.int rng 200) in
    match Xutil.Rng.int rng 4 with
    | 0 ->
        let v = Array.init (1 + Xutil.Rng.int rng 4) (fun i -> Printf.sprintf "%d" i) in
        Kvstore.Store.put a k v;
        Kvstore.Store.put b k v
    | 1 ->
        let u = [ (Xutil.Rng.int rng 5, "upd") ] in
        Kvstore.Store.put_columns a k u;
        Kvstore.Store.put_columns b k u
    | 2 ->
        ignore (Kvstore.Store.remove a k);
        ignore (Kvstore.Store.remove b k)
    | _ ->
        if Kvstore.Store.get a k <> Kvstore.Store.get b k then
          Alcotest.failf "layouts disagree on %S" k
  done;
  check_int "same cardinality" (Kvstore.Store.cardinal a) (Kvstore.Store.cardinal b)

let test_columnar_shares_blocks () =
  (* Columnar updates must share unmodified column strings physically. *)
  let s = Kvstore.Store.create ~layout:Kvstore.Store.Columnar () in
  let big = String.make 4096 'x' in
  Kvstore.Store.put s "k" [| big; "small" |];
  let before = (Option.get (Kvstore.Store.get s "k")).(0) in
  Kvstore.Store.put_columns s "k" [ (1, "changed") ];
  let after = (Option.get (Kvstore.Store.get s "k")).(0) in
  check_bool "unmodified column block shared" true (before == after);
  (* Contiguous repacks: bytes equal, blocks distinct. *)
  let s2 = Kvstore.Store.create ~layout:Kvstore.Store.Contiguous () in
  Kvstore.Store.put s2 "k" [| big; "small" |];
  let b1 = (Option.get (Kvstore.Store.get s2 "k")).(0) in
  Kvstore.Store.put_columns s2 "k" [ (1, "changed") ];
  let b2 = (Option.get (Kvstore.Store.get s2 "k")).(0) in
  check_bool "contiguous copies bytes" true (String.equal b1 b2 && not (b1 == b2))

let test_versions_increase () =
  let s = Kvstore.Store.create () in
  Kvstore.Store.put s "k" [| "1" |];
  let v1 = (Option.get (Kvstore.Store.get_value s "k")).Kvstore.Store.version in
  Kvstore.Store.put s "k" [| "2" |];
  let v2 = (Option.get (Kvstore.Store.get_value s "k")).Kvstore.Store.version in
  check_bool "monotonic" true (Int64.compare v2 v1 > 0)

let test_atomic_multicolumn () =
  (* A concurrent reader must never observe a half-applied 2-column put. *)
  let s = Kvstore.Store.create () in
  Kvstore.Store.put s "k" [| "0"; "0" |];
  let bad = Atomic.make 0 in
  let stop = Atomic.make false in
  ignore
    (Xutil.Domain_pool.run 3 (fun who ->
         if who = 0 then begin
           for i = 1 to 5000 do
             Kvstore.Store.put_columns s "k" [ (0, string_of_int i); (1, string_of_int i) ]
           done;
           Atomic.set stop true
         end
         else
           while not (Atomic.get stop) do
             match Kvstore.Store.get s "k" with
             | Some [| a; b |] -> if not (String.equal a b) then Atomic.incr bad
             | Some _ -> Atomic.incr bad
             | None -> Atomic.incr bad
           done));
  check_int "no torn multi-column reads" 0 (Atomic.get bad)

let test_getrange_columns () =
  let s = Kvstore.Store.create () in
  for i = 0 to 19 do
    Kvstore.Store.put s (Printf.sprintf "%02d" i) [| string_of_int i; "x" |]
  done;
  let seen = ref [] in
  let n =
    Kvstore.Store.getrange s ~start:"05" ~columns:[ 0 ] ~limit:4 (fun k c ->
        seen := (k, c) :: !seen)
  in
  check_int "limit" 4 n;
  check_bool "right keys and columns" true
    (List.rev !seen = [ ("05", [| "5" |]); ("06", [| "6" |]); ("07", [| "7" |]); ("08", [| "8" |]) ])

(* Every column-projecting read must answer exactly what projecting the
   full value would: request order kept, duplicates repeated, indexes
   outside the value (past the end or negative) read as "". *)
let projection_for layout () =
  let module S = Kvstore.Store in
  let s = S.create ~layout () in
  let value i = [| "a" ^ string_of_int i; ""; String.make i 'c' |] in
  for i = 0 to 9 do
    S.put s (Printf.sprintf "k%d" i) (value i)
  done;
  let expect full req =
    Array.of_list
      (List.map (fun i -> if i >= 0 && i < Array.length full then full.(i) else "") req)
  in
  let requests = [ []; [ 0 ]; [ 2 ]; [ 2; 0; 2 ]; [ 1; 3 ]; [ -1; 0 ]; [ 7; -5 ] ] in
  let snap = S.Snapshot.open_ s in
  List.iter
    (fun req ->
      let what = String.concat ";" (List.map string_of_int req) in
      cols ("get_columns " ^ what) (Some (expect (value 4) req)) (S.get_columns s "k4" req);
      cols ("snapshot read_columns " ^ what) (Some (expect (value 6) req))
        (S.Snapshot.read_columns snap "k6" req);
      cols ("project " ^ what) (Some (expect (value 3) req)) (Some (S.project (value 3) req));
      let scanned scan =
        let seen = ref [] in
        ignore (scan (fun k c -> seen := (k, c) :: !seen));
        List.rev !seen
      in
      let model keys = List.map (fun i -> (Printf.sprintf "k%d" i, expect (value i) req)) keys in
      check_bool ("getrange " ^ what) true
        (scanned (S.getrange s ~start:"k2" ~columns:req ~limit:3) = model [ 2; 3; 4 ]);
      check_bool ("getrange_rev " ^ what) true
        (scanned (S.getrange_rev s ~start:"k5" ~columns:req ~limit:3) = model [ 5; 4; 3 ]);
      check_bool ("snapshot getrange " ^ what) true
        (scanned (S.Snapshot.getrange snap ~start:"k7" ~columns:req ~limit:5) = model [ 7; 8; 9 ]))
    requests;
  S.Snapshot.close snap

(* Every read path returns what was put, for value shapes at the edges
   of the [Contiguous] block header: no columns, empty columns, column
   totals either side of the 1- and 2-byte offset widths, and a column
   count past one varint byte. *)
let value_shapes =
  let two a b = [| String.make a 'a'; String.make b 'b' |] in
  [
    ("0 columns", [||]);
    ("1 empty column", [| "" |]);
    ("3 empty columns", [| ""; ""; "" |]);
    ("total 255", two 100 155);
    ("total 256", two 128 128);
    ("total 65535", two 65535 0);
    ("total 65536", two 1 65535);
    ("300 columns", Array.init 300 string_of_int);
    ("300 columns, total 255", Array.init 300 (fun i -> if i < 255 then "x" else ""));
  ]

let value_roundtrip_for layout () =
  let module S = Kvstore.Store in
  let s = S.create ~layout () in
  List.iteri (fun i (_, v) -> S.put s (Printf.sprintf "k%02d" i) v) value_shapes;
  let snap = S.Snapshot.open_ s in
  List.iteri
    (fun i (what, v) ->
      let k = Printf.sprintf "k%02d" i in
      let n = Array.length v in
      cols ("get " ^ what) (Some v) (S.get s k);
      cols ("multi_get " ^ what) (Some v) (S.multi_get s [| k |]).(0);
      cols ("get_value " ^ what) (Some v)
        (Option.map (fun x -> x.S.columns) (S.get_value s k));
      let req = List.init (n + 2) (fun j -> n - j) in
      let want = Array.of_list (List.map (fun j -> if j >= 0 && j < n then v.(j) else "") req) in
      cols ("get_columns " ^ what) (Some want) (S.get_columns s k req);
      cols ("snapshot read " ^ what) (Some v) (S.Snapshot.read snap k);
      let first scan =
        let got = ref None in
        ignore (scan (fun k' c -> got := Some (k', c)));
        !got
      in
      check_bool ("getrange " ^ what) true
        (first (S.getrange s ~start:k ~limit:1) = Some (k, v));
      check_bool ("getrange columns " ^ what) true
        (first (S.getrange s ~start:k ~columns:req ~limit:1) = Some (k, want));
      check_bool ("getrange_rev " ^ what) true
        (first (S.getrange_rev s ~start:k ~limit:1) = Some (k, v));
      check_bool ("snapshot getrange " ^ what) true
        (first (S.Snapshot.getrange snap ~start:k ~limit:1) = Some (k, v));
      (* Widen by two columns, the last one pushing the total up a byte. *)
      S.put_columns s k [ (n + 1, "w") ];
      cols ("put_columns widening " ^ what) (Some (Array.append v [| ""; "w" |])) (S.get s k);
      cols ("snapshot keeps the old value " ^ what) (Some v) (S.Snapshot.read snap k))
    value_shapes;
  S.Snapshot.close snap;
  (* Widening across the offset-width switch. *)
  S.put s "w" [| String.make 255 'a' |];
  S.put_columns s "w" [ (1, "b") ];
  cols "widened past 255" (Some [| String.make 255 'a'; "b" |]) (S.get s "w");
  S.put s "w" [| String.make 65535 'a' |];
  S.put_columns s "w" [ (2, "b") ];
  cols "widened past 65535" (Some [| String.make 65535 'a'; ""; "b" |]) (S.get s "w")

(* The OCaml heap a 10 x 4-byte [Contiguous] record costs (the tree's
   nodes and keys live in its off-heap arena).  A record is the tree's
   value box, the stored record, [Flat] and one 52-byte string: 16 words.
   Storing the version boxed, the tombstone as an option and the offsets
   as a separate int array cost 32. *)
let test_heap_per_record () =
  let n = 10_000 in
  let keys = Array.init n (Printf.sprintf "user%08d") in
  let value = Array.init 10 (Printf.sprintf "c%03d") in
  Gc.compact ();
  let before = (Gc.stat ()).Gc.live_words in
  let s = Kvstore.Store.create ~layout:Kvstore.Store.Contiguous () in
  Array.iter (fun k -> Kvstore.Store.put s k value) keys;
  Gc.compact ();
  let after = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity s);
  let per_record = float_of_int (after - before) /. float_of_int n in
  if per_record > 24.0 then
    Alcotest.failf "%.1f live words per record (bound 24)" per_record

(* Node-arena footprint of the MYCSB preload: border cells live per key.
   A border cell is four cache lines (256 B) and the 100k-key population
   needs about one cell per five keys, half of them fresh layer roots. *)
let test_arena_per_key () =
  let n = 100_000 in
  let w = Workload.Ycsb.create ~records:n Workload.Ycsb.B in
  let s = Kvstore.Store.create () in
  for i = 0 to n - 1 do
    Kvstore.Store.put s (Workload.Ycsb.key_of_rank w i) [| "v" |]
  done;
  let cells = (Kvstore.Store.pool_stats s).Masstree_core.Pool.cells_live in
  let per_key =
    float_of_int (cells * Masstree_core.Pool.cell_words * 8) /. float_of_int n
  in
  if per_key > 64.0 then
    Alcotest.failf "%.1f arena bytes per key (%d cells, bound 64)" per_key cells

(* Checkpoint-and-reclaim under a concurrent writer: every put the writer
   saw acknowledged must survive a restart, including those landing
   while a checkpoint is cut and written and its superseded logs are
   deleted.  Each key is written once, so nothing later can cover a lost
   record. *)
let test_reclaim_keeps_acked_puts () =
  let dir = tmpdir () in
  let logs =
    Array.init 2 (fun i ->
        Persist.Logger.create (Filename.concat dir (Printf.sprintf "log-0-%d" i)))
  in
  let s = Kvstore.Store.create ~logs () in
  let key i = Printf.sprintf "k%07d" i in
  let acked = Atomic.make 0 and stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          Kvstore.Store.put ~worker:(!i land 1) s (key !i) [| string_of_int !i |];
          incr i;
          Atomic.set acked !i
        done)
  in
  while Atomic.get acked < 1000 do
    Domain.cpu_relax ()
  done;
  for _ = 1 to 4 do
    match Kvstore.Store.checkpoint_reclaim s ~dir ~writers:2 with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "checkpoint_reclaim: %s" e
  done;
  Atomic.set stop true;
  Domain.join writer;
  Kvstore.Store.close s;
  let find prefix =
    Sys.readdir dir |> Array.to_list
    |> List.filter (String.starts_with ~prefix)
    |> List.map (Filename.concat dir)
  in
  check_int "one checkpoint left" 1 (List.length (find "ckpt"));
  let recovered =
    Kvstore.Store.recover ~log_paths:(find "log-") ~checkpoint_dirs:(find "ckpt") ()
  in
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  rm dir;
  match recovered with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (r, _) ->
      let n = Atomic.get acked in
      let lost = ref 0 in
      for i = 0 to n - 1 do
        if Kvstore.Store.get r (key i) <> Some [| string_of_int i |] then incr lost
      done;
      if !lost > 0 then Alcotest.failf "%d of %d acknowledged puts lost" !lost n

let with_logged_store n_logs f =
  let dir = tmpdir () in
  let paths = List.init n_logs (fun i -> Filename.concat dir (Printf.sprintf "log%d" i)) in
  let logs = Array.of_list (List.map (fun p -> Persist.Logger.create ~synchronous:true p) paths) in
  let s = Kvstore.Store.create ~logs () in
  f dir paths s

let test_log_recover_simple () =
  with_logged_store 2 (fun _dir paths s ->
      for i = 0 to 99 do
        Kvstore.Store.put ~worker:(i mod 2) s (Printf.sprintf "k%03d" i) [| string_of_int i |]
      done;
      ignore (Kvstore.Store.remove ~worker:0 s "k050");
      Kvstore.Store.put ~worker:1 s "k000" [| "updated" |];
      Kvstore.Store.close s;
      match Kvstore.Store.recover ~log_paths:paths ~checkpoint_dirs:[] () with
      | Error e -> Alcotest.failf "recover: %s" e
      | Ok (s2, stats) ->
          check_int "cardinal" 99 (Kvstore.Store.cardinal s2);
          cols "updated value wins" (Some [| "updated" |]) (Kvstore.Store.get s2 "k000");
          cols "removed stays gone" None (Kvstore.Store.get s2 "k050");
          check_int "logs read" 2 stats.Persist.Recovery.logs_read;
          check_bool "records scanned" true (stats.Persist.Recovery.records_scanned >= 102))

let test_recover_is_idempotent () =
  with_logged_store 2 (fun _dir paths s ->
      for i = 0 to 49 do
        Kvstore.Store.put ~worker:(i mod 2) s (string_of_int i) [| string_of_int i |]
      done;
      Kvstore.Store.close s;
      let r1 =
        match Kvstore.Store.recover ~log_paths:paths ~checkpoint_dirs:[] () with
        | Ok (s, _) -> Kvstore.Store.cardinal s
        | Error e -> Alcotest.failf "r1: %s" e
      in
      let r2 =
        match Kvstore.Store.recover ~log_paths:paths ~checkpoint_dirs:[] () with
        | Ok (s, _) -> Kvstore.Store.cardinal s
        | Error e -> Alcotest.failf "r2: %s" e
      in
      check_int "same result twice" r1 r2)

let test_recover_with_checkpoint () =
  with_logged_store 2 (fun dir paths s ->
      for i = 0 to 199 do
        Kvstore.Store.put ~worker:(i mod 2) s (Printf.sprintf "k%03d" i) [| "v1" |]
      done;
      let ckdir = Filename.concat dir "ckpt-1" in
      (match Kvstore.Store.checkpoint s ~dir:ckdir ~writers:2 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "checkpoint: %s" e);
      (* Updates after the checkpoint: replay must apply them on top. *)
      Kvstore.Store.put ~worker:0 s "k000" [| "v2" |];
      ignore (Kvstore.Store.remove ~worker:1 s "k199");
      Kvstore.Store.close s;
      match
        Kvstore.Store.recover ~log_paths:paths ~checkpoint_dirs:[ ckdir ] ()
      with
      | Error e -> Alcotest.failf "recover: %s" e
      | Ok (s2, stats) ->
          check_bool "checkpoint used" true (stats.Persist.Recovery.checkpoint_entries = 200);
          check_int "cardinal" 199 (Kvstore.Store.cardinal s2);
          cols "post-ckpt update applied" (Some [| "v2" |]) (Kvstore.Store.get s2 "k000");
          cols "post-ckpt remove applied" None (Kvstore.Store.get s2 "k199"))

(* The checkpoint cursor resolves 256 entries per refill and resumes its
   scan at the last key it emitted, skipping that key.  Sizes straddle the
   chunk boundary, and keys sharing 8- and 16-byte prefixes (plus the bare
   prefixes themselves) put chunk ends inside deeper trie layers; a resume
   off by one would drop or duplicate the boundary key. *)
let test_checkpoint_chunk_boundaries () =
  List.iter
    (fun n ->
      let dir = tmpdir () in
      let s = Kvstore.Store.create () in
      let key i =
        match i mod 3 with
        | 0 -> Printf.sprintf "k%05d" i
        | 1 -> if i = 1 then "prefix08" else Printf.sprintf "prefix08%05d" i
        | _ -> if i = 2 then "prefix16prefix16" else Printf.sprintf "prefix16prefix16%05d" i
      in
      for i = 0 to n - 1 do
        Kvstore.Store.put s (key i) [| Printf.sprintf "v%d" i |]
      done;
      let ckdir = Filename.concat dir "ckpt-1" in
      (match Kvstore.Store.checkpoint s ~dir:ckdir ~writers:2 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "checkpoint: %s" e);
      match Kvstore.Store.recover ~log_paths:[] ~checkpoint_dirs:[ ckdir ] () with
      | Error e -> Alcotest.failf "recover: %s" e
      | Ok (s2, stats) ->
          let what = Printf.sprintf "%d keys" n in
          check_int (what ^ ": entries written") n stats.Persist.Recovery.checkpoint_entries;
          check_int (what ^ ": cardinal") n (Kvstore.Store.cardinal s2);
          for i = 0 to n - 1 do
            cols (what ^ ": " ^ key i) (Some [| Printf.sprintf "v%d" i |])
              (Kvstore.Store.get s2 (key i))
          done)
    [ 256; 257; 513 ]

let test_recover_torn_log () =
  with_logged_store 1 (fun _dir paths s ->
      for i = 0 to 49 do
        Kvstore.Store.put ~worker:0 s (Printf.sprintf "%02d" i) [| "v" |]
      done;
      Kvstore.Store.close s;
      (* Tear the log mid-record: the good prefix must recover.  The tail
         is the 17-byte seal marker; cut past it into the last put. *)
      let path = List.hd paths in
      let size = (Unix.stat path).Unix.st_size in
      Unix.truncate path (size - 20);
      match Kvstore.Store.recover ~log_paths:paths ~checkpoint_dirs:[] () with
      | Error e -> Alcotest.failf "recover: %s" e
      | Ok (s2, stats) ->
          check_int "one record lost" 49 (Kvstore.Store.cardinal s2);
          check_int "tear detected" 1 stats.Persist.Recovery.torn_records;
          check_bool "torn bytes accounted" true
            (stats.Persist.Recovery.skipped_bytes > 0))

let test_recover_drops_after_cutoff () =
  (* Two logs; one ends earlier.  Later-timestamped updates in the longer
     log must be dropped (they were not guaranteed durable everywhere). *)
  let dir = tmpdir () in
  let p0 = Filename.concat dir "l0" and p1 = Filename.concat dir "l1" in
  let l0 = Persist.Logger.create ~synchronous:true p0 in
  let l1 = Persist.Logger.create ~synchronous:true p1 in
  let put l key ts ver =
    Persist.Logger.append l
      (Persist.Logrec.Put { key; version = ver; timestamp = ts; columns = [| "v" |] })
  in
  put l0 "a" 10L 1L;
  put l0 "b" 20L 2L;
  put l1 "c" 15L 3L;
  (* beyond l1's end: *)
  put l0 "d" 30L 4L;
  Persist.Logger.close l0;
  Persist.Logger.close l1;
  match Kvstore.Store.recover ~log_paths:[ p0; p1 ] ~checkpoint_dirs:[] () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (s, stats) ->
      check_bool "cutoff is min of maxes" true (stats.Persist.Recovery.cutoff = 15L);
      check_bool "a kept" true (Kvstore.Store.get s "a" <> None);
      check_bool "c kept" true (Kvstore.Store.get s "c" <> None);
      check_bool "b dropped (ts 20 > cutoff)" true (Kvstore.Store.get s "b" = None);
      check_bool "d dropped (ts 30 > cutoff)" true (Kvstore.Store.get s "d" = None)

let test_concurrent_logged_workload () =
  with_logged_store 4 (fun _dir paths s ->
      ignore
        (Xutil.Domain_pool.run 4 (fun d ->
             for i = 0 to 499 do
               Kvstore.Store.put ~worker:d s (Printf.sprintf "%d-%03d" d i) [| "x" |]
             done));
      Kvstore.Store.close s;
      match Kvstore.Store.recover ~log_paths:paths ~checkpoint_dirs:[] () with
      | Error e -> Alcotest.failf "recover: %s" e
      | Ok (s2, _) -> check_int "all recovered" 2000 (Kvstore.Store.cardinal s2))

let test_checkpoint_under_writers () =
  (* A checkpoint concurrent with writers must complete, verify, and
     contain some committed version of every key that existed throughout
     (the paper runs checkpoints in parallel with request processing). *)
  let dir = tmpdir () in
  let s = Kvstore.Store.create () in
  for i = 0 to 999 do
    Kvstore.Store.put s (Printf.sprintf "stable%04d" i) [| "v" |]
  done;
  let stop = Atomic.make false in
  let results =
    Xutil.Domain_pool.run 2 (fun who ->
        if who = 0 then begin
          let rng = Xutil.Rng.create 3L in
          while not (Atomic.get stop) do
            let k = Printf.sprintf "vol%04d" (Xutil.Rng.int rng 500) in
            if Xutil.Rng.bool rng then Kvstore.Store.put s k [| "x" |]
            else ignore (Kvstore.Store.remove s k)
          done;
          Ok "writer done"
        end
        else begin
          let r = Kvstore.Store.checkpoint s ~dir:(Filename.concat dir "ck") ~writers:2 in
          Atomic.set stop true;
          r
        end)
  in
  (match results.(1) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "checkpoint under writers: %s" e);
  match Persist.Checkpoint.load ~dir:(Filename.concat dir "ck") () with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok (_, entries) ->
      let stable =
        List.filter
          (fun (e : Persist.Checkpoint.entry) ->
            String.length e.key >= 6 && String.sub e.key 0 6 = "stable")
          entries
      in
      check_int "all stable keys captured" 1000 (List.length stable)

let test_parallel_replay () =
  (* Recovery with several replay domains: same result as sequential,
     including cross-log remove/reinsert ordering via versions. *)
  with_logged_store 4 (fun _dir paths s ->
      let rng = Xutil.Rng.create 88L in
      for i = 0 to 1999 do
        let k = string_of_int (Xutil.Rng.int rng 400) in
        if Xutil.Rng.int rng 4 = 0 then ignore (Kvstore.Store.remove ~worker:(i mod 4) s k)
        else Kvstore.Store.put ~worker:(i mod 4) s k [| string_of_int i |]
      done;
      let reference = ref [] in
      ignore
        (Kvstore.Store.getrange s ~start:"" ~limit:max_int (fun k v ->
             reference := (k, v) :: !reference));
      Kvstore.Store.close s;
      let seq =
        match
          Kvstore.Store.recover ~replay_domains:1 ~log_paths:paths ~checkpoint_dirs:[] ()
        with
        | Ok (st, _) -> st
        | Error e -> Alcotest.failf "seq: %s" e
      in
      let par =
        match
          Kvstore.Store.recover ~replay_domains:4 ~log_paths:paths ~checkpoint_dirs:[] ()
        with
        | Ok (st, _) -> st
        | Error e -> Alcotest.failf "par: %s" e
      in
      check_int "same cardinality" (Kvstore.Store.cardinal seq) (Kvstore.Store.cardinal par);
      List.iter
        (fun (k, v) ->
          if Kvstore.Store.get par k <> Some v then Alcotest.failf "parallel lost %s" k;
          if Kvstore.Store.get seq k <> Some v then Alcotest.failf "sequential lost %s" k)
        !reference)

let suite =
  [
    Alcotest.test_case "parallel replay" `Slow test_parallel_replay;
    Alcotest.test_case "checkpoint under writers" `Slow test_checkpoint_under_writers;
    Alcotest.test_case "basic columns (contiguous)" `Quick
      (basic_columns_for Kvstore.Store.Contiguous);
    Alcotest.test_case "basic columns (columnar)" `Quick
      (basic_columns_for Kvstore.Store.Columnar);
    Alcotest.test_case "layouts agree" `Quick test_layouts_agree;
    Alcotest.test_case "columnar shares blocks" `Quick test_columnar_shares_blocks;
    Alcotest.test_case "put_columns creates" `Quick test_put_columns_creates;
    Alcotest.test_case "versions increase" `Quick test_versions_increase;
    Alcotest.test_case "atomic multicolumn" `Slow test_atomic_multicolumn;
    Alcotest.test_case "getrange columns" `Quick test_getrange_columns;
    Alcotest.test_case "column projection (contiguous)" `Quick
      (projection_for Kvstore.Store.Contiguous);
    Alcotest.test_case "column projection (columnar)" `Quick
      (projection_for Kvstore.Store.Columnar);
    Alcotest.test_case "value round trip (contiguous)" `Quick
      (value_roundtrip_for Kvstore.Store.Contiguous);
    Alcotest.test_case "value round trip (columnar)" `Quick
      (value_roundtrip_for Kvstore.Store.Columnar);
    Alcotest.test_case "heap words per record" `Quick test_heap_per_record;
    Alcotest.test_case "arena bytes per key" `Quick test_arena_per_key;
    Alcotest.test_case "reclaim keeps acked puts" `Slow test_reclaim_keeps_acked_puts;
    Alcotest.test_case "log + recover" `Quick test_log_recover_simple;
    Alcotest.test_case "recover idempotent" `Quick test_recover_is_idempotent;
    Alcotest.test_case "recover with checkpoint" `Quick test_recover_with_checkpoint;
    Alcotest.test_case "checkpoint chunk boundaries" `Quick test_checkpoint_chunk_boundaries;
    Alcotest.test_case "recover torn log" `Quick test_recover_torn_log;
    Alcotest.test_case "recovery cutoff drop" `Quick test_recover_drops_after_cutoff;
    Alcotest.test_case "concurrent logged workload" `Slow test_concurrent_logged_workload;
  ]
