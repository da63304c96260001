(* §6.3 system relevance of tree design: with logging on and queries
   arriving through the (loopback) network path, does the index still
   matter?  Paper: Masstree gives 1.90x (gets) / 1.53x (puts) over the
   best binary tree even with the full system around it. *)

open Bench_util

let run_system scale make_store_ops =
  let dir = Xutil.Tmpdir.scoped "sysrel" in
  let log = Persist.Logger.create (Filename.concat dir "log") in
  let get_op, put_op, preload = make_store_ops () in
  let rng = Xutil.Rng.create 31L in
  let gen = Workload.Keygen.decimal_1_10 ~range:(1 lsl 30) in
  let keys = Array.init scale.keys (fun _ -> gen rng) in
  Array.iter preload keys;
  let n = Array.length keys in
  (* Full path per op: decode-ish dispatch + index + log append. *)
  let ts = ref 0L in
  let logged_put k =
    put_op k;
    ts := Int64.add !ts 1L;
    Persist.Logger.append log
      (Persist.Logrec.Put { key = k; version = !ts; timestamp = !ts; columns = [| "v" |] })
  in
  let g =
    measure ~scale ~domains:scale.domains (fun _ rng -> get_op keys.(Xutil.Rng.int rng n))
  in
  let p =
    measure ~scale ~domains:scale.domains (fun _ rng ->
        logged_put keys.(Xutil.Rng.int rng n))
  in
  Persist.Logger.close log;
  (g, p)

let run scale =
  header "§6.3: tree design matters inside the full system (logging on)";
  let mt_g, mt_p =
    run_system scale (fun () ->
        let t = Masstree_core.Tree.create () in
        ( (fun k -> ignore (Masstree_core.Tree.get t k)),
          (fun k -> ignore (Masstree_core.Tree.put t k 1)),
          fun k -> ignore (Masstree_core.Tree.put t k 0) ))
  in
  let bin_g, bin_p =
    run_system scale (fun () ->
        let t = Baselines.Binary_tree.create () in
        ( (fun k -> ignore (Baselines.Binary_tree.get t k)),
          (fun k -> ignore (Baselines.Binary_tree.put t k 1)),
          fun k -> ignore (Baselines.Binary_tree.put t k 0) ))
  in
  row "%-12s %12s %12s\n" "system" "get Mops/s" "put Mops/s";
  row "%-12s %12.2f %12.2f\n" "masstree" (mops mt_g) (mops mt_p);
  row "%-12s %12.2f %12.2f\n" "binary" (mops bin_g) (mops bin_p);
  row "masstree advantage: %.2fx gets, %.2fx puts (paper: 1.90x / 1.53x)\n"
    (mt_g /. bin_g) (mt_p /. bin_p)
