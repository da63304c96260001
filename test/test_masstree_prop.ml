(* Model-based property tests: arbitrary operation sequences over
   adversarial key distributions must agree with a Map reference. *)

open Masstree_core
module SMap = Map.Make (String)

type op = Put of string * int | Remove of string | Get of string | Scan of string * int

let apply_model m = function
  | Put (k, v) -> SMap.add k v m
  | Remove k -> SMap.remove k m
  | Get _ | Scan _ -> m

let run_ops ops =
  let t = Tree.create () in
  let model = ref SMap.empty in
  let ok = ref true in
  List.iter
    (fun op ->
      (match op with
      | Put (k, v) ->
          let expected = SMap.find_opt k !model in
          if Tree.put t k v <> expected then ok := false
      | Remove k ->
          let expected = SMap.find_opt k !model in
          if Tree.remove t k <> expected then ok := false
      | Get k -> if Tree.get t k <> SMap.find_opt k !model then ok := false
      | Scan (start, limit) ->
          let got = ref [] in
          ignore (Tree.scan t ~start ~limit (fun k v -> got := (k, v) :: !got));
          let expected =
            SMap.to_seq !model
            |> Seq.filter (fun (k, _) -> String.compare k start >= 0)
            |> Seq.take limit |> List.of_seq
          in
          if List.rev !got <> expected then ok := false);
      model := apply_model !model op)
    ops;
  (* Final full agreement: contents and order. *)
  let items = ref [] in
  ignore (Tree.scan t ~limit:max_int (fun k v -> items := (k, v) :: !items));
  if List.rev !items <> SMap.bindings !model then ok := false;
  (match Tree.check t with Ok () -> () | Error _ -> ok := false);
  !ok

(* Key generators of increasing nastiness. *)
let gen_key_decimal = QCheck.Gen.(map string_of_int (0 -- 99999))

let gen_key_binary =
  QCheck.Gen.(string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 20))

let gen_key_shared_prefix =
  QCheck.Gen.(
    map2
      (fun d tail -> String.make (8 * d) 'P' ^ tail)
      (0 -- 3)
      (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (0 -- 10)))

let gen_op key_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Put (k, v)) key_gen (0 -- 1000));
        (2, map (fun k -> Remove k) key_gen);
        (3, map (fun k -> Get k) key_gen);
        (1, map2 (fun k n -> Scan (k, n)) key_gen (0 -- 20));
      ])

let arb_ops key_gen count =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Put (k, v) -> Printf.sprintf "Put(%S,%d)" k v
             | Remove k -> Printf.sprintf "Remove %S" k
             | Get k -> Printf.sprintf "Get %S" k
             | Scan (k, n) -> Printf.sprintf "Scan(%S,%d)" k n)
           ops))
    QCheck.Gen.(list_size (0 -- count) (gen_op key_gen))

let prop_decimal =
  QCheck.Test.make ~name:"ops vs model (decimal keys)" ~count:120
    (arb_ops gen_key_decimal 400) run_ops

let prop_binary =
  QCheck.Test.make ~name:"ops vs model (binary keys)" ~count:120
    (arb_ops gen_key_binary 300) run_ops

let prop_shared_prefix =
  QCheck.Test.make ~name:"ops vs model (shared-prefix keys)" ~count:120
    (arb_ops gen_key_shared_prefix 300) run_ops

(* Bulk load then delete-all must leave a structurally sound empty tree. *)
let prop_load_unload =
  QCheck.Test.make ~name:"load then unload leaves sound empty tree" ~count:40
    QCheck.(list_of_size Gen.(50 -- 400) (string_gen_of_size Gen.(0 -- 16) Gen.printable))
    (fun keys ->
      let t = Tree.create () in
      List.iter (fun k -> ignore (Tree.put t k k)) keys;
      List.iter (fun k -> ignore (Tree.remove t k)) keys;
      Tree.maintain t;
      Tree.cardinal t = 0 && match Tree.check t with Ok () -> true | Error _ -> false)

(* Remove-heavy churn drives the coalescing path hard: bulk load, delete
   a random majority, then verify the full scan against the model — no
   key lost by a merge's migration, none duplicated by the border-list
   repair — and the pool accounts for every cell and blob. *)
let prop_remove_heavy_coalesce =
  QCheck.Test.make ~name:"remove-heavy churn: scan intact, pool clean" ~count:60
    QCheck.(
      pair (int_bound 999)
        (list_of_size Gen.(100 -- 500)
           (string_gen_of_size Gen.(0 -- 16) Gen.printable)))
    (fun (seed, keys) ->
      let t = Tree.create () in
      let model = ref SMap.empty in
      List.iteri
        (fun i k ->
          ignore (Tree.put t k i);
          model := SMap.add k i !model)
        keys;
      (* Remove ~80% in an order decorrelated from insertion order. *)
      let rng = Xutil.Rng.create (Int64.of_int (seed + 1)) in
      let arr = Array.of_list keys in
      Xutil.Rng.shuffle rng arr;
      Array.iteri
        (fun i k ->
          if i mod 5 <> 0 then begin
            ignore (Tree.remove t k);
            model := SMap.remove k !model
          end)
        arr;
      let items = ref [] in
      ignore (Tree.scan t ~limit:max_int (fun k v -> items := (k, v) :: !items));
      List.rev !items = SMap.bindings !model
      && (match Tree.check t with Ok () -> true | Error _ -> false)
      && begin
           Tree.maintain t;
           match Tree.pool_consistency t with Ok () -> true | Error _ -> false
         end)

(* The software-pipelined group get must agree with a sequential loop of
   point gets on any batch — hits, misses, duplicate keys, empty and
   singleton batches — across all key shapes (docs/BATCHING.md §4). *)
let gen_key_mixed =
  QCheck.Gen.oneof [ gen_key_decimal; gen_key_binary; gen_key_shared_prefix ]

let prop_pipelined_group_get =
  QCheck.Test.make ~name:"pipelined group get = sequential gets" ~count:150
    (QCheck.make
       ~print:(fun (keys, picks) ->
         Printf.sprintf "keys=[%s] picks=[%s]"
           (String.concat ";" (List.map (Printf.sprintf "%S") keys))
           (String.concat ";" (List.map string_of_int picks)))
       QCheck.Gen.(
         pair (list_size (0 -- 200) gen_key_mixed) (list_size (0 -- 40) (int_bound 1000))))
    (fun (keys, picks) ->
      let t = Tree.create () in
      (* Insert every other key so batches mix hits with misses. *)
      List.iteri (fun i k -> if i land 1 = 0 then ignore (Tree.put t k i)) keys;
      let pool = Array.of_list ("" :: keys) in
      let batch =
        Array.of_list (List.map (fun p -> pool.(p mod Array.length pool)) picks)
      in
      Tree.multi_get_pipelined t batch = Array.map (Tree.get t) batch)

(* Reverse scan must be the mirror of the forward scan at every bound. *)
let prop_scan_mirror =
  QCheck.Test.make ~name:"scan_rev mirrors scan" ~count:60
    QCheck.(list_of_size Gen.(0 -- 200) (string_gen_of_size Gen.(0 -- 12) Gen.printable))
    (fun keys ->
      let t = Tree.create () in
      List.iter (fun k -> ignore (Tree.put t k k)) keys;
      let fwd = ref [] in
      ignore (Tree.scan t ~limit:max_int (fun k _ -> fwd := k :: !fwd));
      let rev = ref [] in
      ignore (Tree.scan_rev t ~limit:max_int (fun k _ -> rev := k :: !rev));
      (* Forward emission reversed = reverse emission. *)
      List.rev !fwd = !rev)

(* Border-cursor edge cases: keys of 0-8 bytes that tie on the
   zero-padded slice ("ab" vs "ab\000"), and 9-24-byte keys sharing
   8-byte prefixes (suffix entries and trie layers, some two deep).
   Bounds come from the same generator, so they tie with entries on the
   slice, and removals leave stale slots behind.  Both scan directions
   must equal the sorted model, values included. *)
let gen_cursor_key =
  QCheck.Gen.(
    let byte = oneofl [ '\000'; 'a'; 'b'; '\255' ] in
    let short = string_size ~gen:byte (0 -- 8) in
    let prefix = oneofl [ "PPPPPPPP"; "ab\000\000\000\000\000\000"; "abababab" ] in
    let tail =
      oneof [ string_size ~gen:byte (1 -- 8); map (( ^ ) "QQQQQQQQ") (string_size ~gen:byte (0 -- 8)) ]
    in
    oneof [ short; map2 ( ^ ) prefix tail ])

let prop_cursor_edges =
  QCheck.Test.make ~name:"scan cursor edges vs sorted model" ~count:200
    (QCheck.make
       ~print:(fun (keys, dead, start, stop, limit) ->
         Printf.sprintf "keys=[%s] removed=[%s] start=%s stop=%s limit=%d"
           (String.concat "; " (List.map (Printf.sprintf "%S") keys))
           (String.concat "; " (List.map (Printf.sprintf "%S") dead))
           (match start with Some s -> Printf.sprintf "%S" s | None -> "-")
           (match stop with Some s -> Printf.sprintf "%S" s | None -> "-")
           limit)
       QCheck.Gen.(
         tup5
           (list_size (0 -- 120) gen_cursor_key)
           (list_size (0 -- 30) gen_cursor_key)
           (opt gen_cursor_key) (opt gen_cursor_key)
           (oneof [ 1 -- 40; return max_int ])))
    (fun (keys, dead, start, stop, limit) ->
      let t = Tree.create () in
      List.iter (fun k -> ignore (Tree.put t k k)) keys;
      List.iter (fun k -> ignore (Tree.remove t k)) dead;
      let live =
        List.filter (fun k -> not (List.mem k dead)) (List.sort_uniq String.compare keys)
      in
      let take l = List.of_seq (Seq.take limit (List.to_seq l)) in
      let collect scan =
        let got = ref [] in
        ignore (scan (fun k v -> got := (k, v) :: !got));
        List.rev !got
      in
      let pairs = List.map (fun k -> (k, k)) in
      let fwd =
        List.filter
          (fun k ->
            (match start with Some s -> String.compare k s >= 0 | None -> true)
            && match stop with Some s -> String.compare k s < 0 | None -> true)
          live
      in
      let rev =
        List.filter
          (fun k ->
            (match start with Some s -> String.compare k s <= 0 | None -> true)
            && match stop with Some s -> String.compare k s >= 0 | None -> true)
          (List.rev live)
      in
      collect (Tree.scan t ?start ?stop ~limit) = pairs (take fwd)
      && collect (Tree.scan_rev t ?start ?stop ~limit) = pairs (take rev))

let suite =
  [
    QCheck_alcotest.to_alcotest ~long:false prop_decimal;
    QCheck_alcotest.to_alcotest ~long:false prop_binary;
    QCheck_alcotest.to_alcotest ~long:false prop_shared_prefix;
    QCheck_alcotest.to_alcotest ~long:false prop_load_unload;
    QCheck_alcotest.to_alcotest ~long:false prop_remove_heavy_coalesce;
    QCheck_alcotest.to_alcotest ~long:false prop_pipelined_group_get;
    QCheck_alcotest.to_alcotest ~long:false prop_scan_mirror;
    QCheck_alcotest.to_alcotest ~long:false prop_cursor_edges;
  ]
