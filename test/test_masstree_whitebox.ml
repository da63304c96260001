(* White-box coverage of structurally interesting paths: split boundary
   positions, same-slice groups at split points, parent-chain deletion,
   shape census, and counter-verified optimizations. *)

open Masstree_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let assert_ok t =
  match Tree.check t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invariant violation: %s" m

let key8 i = Printf.sprintf "%08d" i

(* Force a split where the new key lands on the LEFT of the split point:
   fill a node with high keys, then insert low ones. *)
let test_split_insert_left () =
  let t = Tree.create () in
  (* width = 14: fill one node. *)
  for i = 0 to 13 do
    ignore (Tree.put t (key8 (100 + i)) i)
  done;
  check_int "no split yet" 0 (Stats.read (Tree.stats t) Stats.Splits_border);
  (* Low key: insertion position 0 < split point. *)
  ignore (Tree.put t (key8 1) 99);
  check_int "split happened" 1 (Stats.read (Tree.stats t) Stats.Splits_border);
  for i = 0 to 13 do
    if Tree.get t (key8 (100 + i)) <> Some i then Alcotest.failf "lost %d" i
  done;
  check_bool "low key present" true (Tree.get t (key8 1) = Some 99);
  assert_ok t

(* Force the split point to move off-center around a same-slice group:
   9 keys sharing one slice (lengths 0..8) among distinct-slice keys. *)
let test_split_around_slice_group () =
  let t = Tree.create () in
  (* Same-slice group: prefixes of "GGGGGGGG" (lengths 1..8 keep one slice
     for lengths... actually each length is a distinct slice except they
     share representation only at equal padding; use true same-slice set:
     prefixes of one 8-byte string). *)
  let group = List.init 8 (fun i -> String.sub "GGGGGGGG" 0 (i + 1)) in
  List.iteri (fun i k -> ignore (Tree.put t k i)) group;
  (* Distinct-slice fillers around the group to overflow the node. *)
  for i = 0 to 9 do
    ignore (Tree.put t (Printf.sprintf "A%06d" i) (100 + i))
  done;
  ignore (Tree.put t "ZZZZ" 999);
  (* Everything must still be present and structurally sound. *)
  List.iteri
    (fun i k ->
      if Tree.get t k <> Some i then Alcotest.failf "group key %S lost" k)
    group;
  for i = 0 to 9 do
    if Tree.get t (Printf.sprintf "A%06d" i) <> Some (100 + i) then
      Alcotest.failf "filler %d lost" i
  done;
  assert_ok t

(* Sequential fill then verify the shape census: ~100% border fill and
   the expected node counts. *)
let test_shape_census () =
  let t = Tree.create () in
  let n = 14 * 50 in
  for i = 0 to n - 1 do
    ignore (Tree.put t (key8 i) i)
  done;
  let sh = Tree.shape t in
  check_int "entries" n sh.Tree.entries;
  check_int "layers" 1 sh.Tree.layers;
  check_bool "sequential fill ~100%" true (sh.Tree.avg_border_fill > 0.95);
  check_int "borders" 50 sh.Tree.borders;
  check_bool "has interiors" true (sh.Tree.interiors >= 4);
  (* Random-order tree is ~70% full: strictly more borders. *)
  let t2 = Tree.create () in
  let rng = Xutil.Rng.create 4L in
  let keys = Array.init n key8 in
  Xutil.Rng.shuffle rng keys;
  Array.iteri (fun i k -> ignore (Tree.put t2 k i)) keys;
  let sh2 = Tree.shape t2 in
  check_bool "random fill lower" true (sh2.Tree.avg_border_fill < sh.Tree.avg_border_fill);
  check_bool "random uses more borders" true (sh2.Tree.borders > sh.Tree.borders)

(* Deleting from the right edge collapses interior chains upward
   (remove_from_parent recursion including the k=0 single-child case). *)
let test_parent_chain_deletion () =
  let t = Tree.create () in
  let n = 14 * 30 in
  for i = 0 to n - 1 do
    ignore (Tree.put t (key8 i) i)
  done;
  let before = Tree.shape t in
  (* Remove everything except the first node's worth, right to left. *)
  for i = n - 1 downto 14 do
    ignore (Tree.remove t (key8 i))
  done;
  Tree.maintain t;
  let after = Tree.shape t in
  check_bool "borders deleted" true (after.Tree.borders < before.Tree.borders / 4);
  check_bool "interior deletions happened" true
    (Stats.read (Tree.stats t) Stats.Node_deletes > before.Tree.borders / 2);
  for i = 0 to 13 do
    if Tree.get t (key8 i) <> Some i then Alcotest.failf "survivor %d lost" i
  done;
  check_int "cardinal" 14 (Tree.cardinal t);
  assert_ok t

let assert_pool_ok t =
  Tree.maintain t;
  match Tree.pool_consistency t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "pool leak: %s" m

(* Delete-side coalescing: 20 sequential keys split into left=14/right=6
   under one parent.  Draining the left border merges the right sibling
   into it exactly when the fill drops to merge_threshold (4) — not one
   removal earlier. *)
let test_merge_at_threshold () =
  let t = Tree.create () in
  for i = 0 to 19 do
    ignore (Tree.put t (key8 i) i)
  done;
  check_int "two borders" 2 (Tree.shape t).Tree.borders;
  (* Left border holds k0..k13.  Removing 9 leaves it at 5 > threshold. *)
  for i = 0 to 8 do
    ignore (Tree.remove t (key8 i))
  done;
  check_int "no merge above threshold" 0
    (Stats.read (Tree.stats t) Stats.Leaf_merges);
  check_int "still two borders" 2 (Tree.shape t).Tree.borders;
  (* The 10th removal hits the threshold: 4 + 6 <= merge_max. *)
  ignore (Tree.remove t (key8 9));
  check_int "merge fired" 1 (Stats.read (Tree.stats t) Stats.Leaf_merges);
  Tree.maintain t;
  check_int "one border after merge" 1 (Tree.shape t).Tree.borders;
  for i = 10 to 19 do
    if Tree.get t (key8 i) <> Some i then Alcotest.failf "lost %d in merge" i
  done;
  check_int "cardinal" 10 (Tree.cardinal t);
  assert_ok t;
  assert_pool_ok t

(* Coalescing refuses when the combined size exceeds merge_max (12): a
   drained left border next to a fat sibling stays separate, then merges
   once the sibling shrinks and another removal retriggers the check. *)
let test_merge_refused_when_fat () =
  let t = Tree.create () in
  (* left = k0..k13 (14), right grows to k14..k26 (13). *)
  for i = 0 to 26 do
    ignore (Tree.put t (key8 i) i)
  done;
  check_int "two borders" 2 (Tree.shape t).Tree.borders;
  for i = 0 to 9 do
    ignore (Tree.remove t (key8 i))
  done;
  (* left=4, right=13: 17 > merge_max, refused. *)
  check_int "refused while fat" 0 (Stats.read (Tree.stats t) Stats.Leaf_merges);
  check_int "still two borders" 2 (Tree.shape t).Tree.borders;
  (* Shrink the right sibling (no merge: it has no right neighbor), then
     one more left removal retriggers: 3 + 6 = 9 <= merge_max. *)
  for i = 20 to 26 do
    ignore (Tree.remove t (key8 i))
  done;
  check_int "right edge never merges" 0
    (Stats.read (Tree.stats t) Stats.Leaf_merges);
  ignore (Tree.remove t (key8 10));
  check_int "merge after shrink" 1 (Stats.read (Tree.stats t) Stats.Leaf_merges);
  for i = 11 to 19 do
    if Tree.get t (key8 i) <> Some i then Alcotest.failf "lost %d in merge" i
  done;
  check_int "cardinal" 9 (Tree.cardinal t);
  assert_ok t;
  assert_pool_ok t

(* A root border never coalesces (nothing to absorb into); draining a
   multi-node tree back to one border leaves a clean pool. *)
let test_merge_chain_drain () =
  let t = Tree.create () in
  let n = 14 * 8 in
  for i = 0 to n - 1 do
    ignore (Tree.put t (key8 i) i)
  done;
  (* Drain right-to-left: merges absorb rightward only, so the right
     sibling must shrink before the left border hits the threshold. *)
  for i = n - 1 downto 0 do
    if i mod 4 <> 3 then ignore (Tree.remove t (key8 i))
  done;
  let merges = Stats.read (Tree.stats t) Stats.Leaf_merges in
  check_bool "merges happened" true (merges >= 2);
  Tree.maintain t;
  let sh = Tree.shape t in
  check_bool "borders shrank" true (sh.Tree.borders < 8);
  for i = 0 to n - 1 do
    let expect = if i mod 4 = 3 then Some i else None in
    if Tree.get t (key8 i) <> expect then Alcotest.failf "wrong survivor %d" i
  done;
  check_int "cardinal" (n / 4) (Tree.cardinal t);
  assert_ok t;
  assert_pool_ok t

(* Layer chains: keys sharing 24 bytes then diverging build 3 intermediate
   single-entry layers; removing one key keeps the other reachable. *)
let test_deep_layer_chain () =
  let t = Tree.create () in
  let p = "AAAAAAAABBBBBBBBCCCCCCCC" in
  ignore (Tree.put t (p ^ "tail-one") 1);
  ignore (Tree.put t (p ^ "tail-two") 2);
  let sh = Tree.shape t in
  check_int "three extra layers" 4 sh.Tree.layers;
  check_bool "both reachable" true
    (Tree.get t (p ^ "tail-one") = Some 1 && Tree.get t (p ^ "tail-two") = Some 2);
  ignore (Tree.remove t (p ^ "tail-one"));
  check_bool "sibling survives removal" true (Tree.get t (p ^ "tail-two") = Some 2);
  check_bool "removed gone" true (Tree.get t (p ^ "tail-one") = None);
  (* The prefix itself as a key lands in an upper layer. *)
  ignore (Tree.put t p 3);
  ignore (Tree.put t (String.sub p 0 8) 4);
  check_bool "prefix keys coexist" true (Tree.get t p = Some 3 && Tree.get t (String.sub p 0 8) = Some 4);
  assert_ok t

(* Updates must not bump versions (the §4.6.1 no-retry property):
   local retries stay zero under single-threaded updates. *)
let test_update_in_place_no_dirty () =
  let t = Tree.create () in
  ignore (Tree.put t "k" 0);
  Stats.reset (Tree.stats t);
  for i = 1 to 1000 do
    ignore (Tree.put t "k" i)
  done;
  check_int "no splits" 0 (Stats.read (Tree.stats t) Stats.Splits_border);
  check_int "no slot reuses" 0 (Stats.read (Tree.stats t) Stats.Slot_reuses);
  check_bool "final value" true (Tree.get t "k" = Some 1000)

(* put_with must observe the previous value even through layer descent. *)
let test_put_with_in_layers () =
  let t = Tree.create () in
  ignore (Tree.put t "01234567AB" 10);
  ignore (Tree.put t "01234567XY" 20);
  let old = ref None in
  ignore
    (Tree.put_with t "01234567AB" (fun o ->
         old := o;
         99));
  check_bool "old seen through layer" true (!old = Some 10);
  check_bool "new value" true (Tree.get t "01234567AB" = Some 99)

(* A large mixed-shape batch must agree with point gets key by key, at
   every batch size from a single flight to the whole 512-key batch. *)
let test_pipelined_equivalence () =
  let t = Tree.create () in
  let rng = Xutil.Rng.create 21L in
  let keys =
    Array.init 3000 (fun _ ->
        match Xutil.Rng.int rng 3 with
        | 0 -> string_of_int (Xutil.Rng.int rng 100000)
        | 1 -> "PREFIX__" ^ string_of_int (Xutil.Rng.int rng 1000)
        | _ -> String.make (Xutil.Rng.int rng 20) 'q')
  in
  Array.iteri (fun i k -> if i mod 2 = 0 then ignore (Tree.put t k i)) keys;
  List.iter
    (fun n ->
      let batch = Array.sub keys 0 n in
      let got = Tree.multi_get t batch in
      Array.iteri
        (fun i k ->
          if got.(i) <> Tree.get t k then
            Alcotest.failf "multi_get of %d disagrees on %S" n k)
        batch)
    [ 1; 2; 15; 512 ]

(* Edge batches through the pipelined state machine: empty, singleton hit
   and miss, duplicate keys (independent flights over the same slot must
   not interfere), and the empty key. *)
let test_pipelined_edge_batches () =
  let t = Tree.create () in
  for i = 0 to 99 do
    ignore (Tree.put t (Printf.sprintf "edge%04d" i) i)
  done;
  check_int "empty batch" 0 (Array.length (Tree.multi_get t [||]));
  check_bool "singleton hit" true (Tree.multi_get t [| "edge0042" |] = [| Some 42 |]);
  check_bool "singleton miss" true (Tree.multi_get t [| "missing" |] = [| None |]);
  check_bool "duplicates and misses" true
    (Tree.multi_get t [| "edge0007"; "edge0007"; "nope"; "edge0007"; "" |]
    = [| Some 7; Some 7; None; Some 7; None |])

(* Under a concurrent writer, stable keys must never be lost however the
   volatile ones churn. *)
let test_pipelined_concurrent () =
  let t = Tree.create () in
  for i = 0 to 4999 do
    ignore (Tree.put t (Printf.sprintf "stable%05d" i) i)
  done;
  let stop = Atomic.make false in
  let bad = Atomic.make 0 in
  ignore
    (Xutil.Domain_pool.run 2 (fun who ->
         if who = 0 then begin
           let rng = Xutil.Rng.create 31L in
           for _ = 1 to 20000 do
             let k = Printf.sprintf "vol%05d" (Xutil.Rng.int rng 2000) in
             if Xutil.Rng.bool rng then ignore (Tree.put t k 0)
             else ignore (Tree.remove t k)
           done;
           Atomic.set stop true
         end
         else begin
           let rng = Xutil.Rng.create 32L in
           while not (Atomic.get stop) do
             let batch =
               Array.init 64 (fun _ ->
                   Printf.sprintf "stable%05d" (Xutil.Rng.int rng 5000))
             in
             let got = Tree.multi_get t batch in
             Array.iteri
               (fun i k ->
                 let expected = int_of_string (String.sub k 6 5) in
                 match got.(i) with
                 | Some v when v = expected -> ()
                 | _ -> Atomic.incr bad)
               batch
           done
         end));
  check_int "no lost keys through multi_get" 0 (Atomic.get bad)

let suite =
  [
    Alcotest.test_case "pipelined equivalence" `Quick test_pipelined_equivalence;
    Alcotest.test_case "pipelined edge batches" `Quick test_pipelined_edge_batches;
    Alcotest.test_case "pipelined concurrent" `Slow test_pipelined_concurrent;
    Alcotest.test_case "split: insert lands left" `Quick test_split_insert_left;
    Alcotest.test_case "split around slice group" `Quick test_split_around_slice_group;
    Alcotest.test_case "shape census" `Quick test_shape_census;
    Alcotest.test_case "parent chain deletion" `Quick test_parent_chain_deletion;
    Alcotest.test_case "merge at threshold" `Quick test_merge_at_threshold;
    Alcotest.test_case "merge refused when fat" `Quick test_merge_refused_when_fat;
    Alcotest.test_case "merge chain drain" `Quick test_merge_chain_drain;
    Alcotest.test_case "deep layer chain" `Quick test_deep_layer_chain;
    Alcotest.test_case "update in place" `Quick test_update_in_place_no_dirty;
    Alcotest.test_case "put_with in layers" `Quick test_put_with_in_layers;
  ]
