(* Property-based persistence testing: for arbitrary operation histories,
   recovery from logs (+ optional checkpoint, + optional torn tail) must
   agree with an in-memory replay of the same history. *)

module SMap = Map.Make (String)

type op = P of string * string | R of string | Ckpt

let gen_ops =
  QCheck.Gen.(
    list_size (0 -- 120)
      (frequency
         [
           ( 6,
             map2
               (fun k v -> P (string_of_int k, v))
               (0 -- 40)
               (string_size ~gen:(char_range 'a' 'z') (0 -- 6)) );
           (2, map (fun k -> R (string_of_int k)) (0 -- 40));
           (1, return Ckpt);
         ]))

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | P (k, v) -> Printf.sprintf "P(%s,%s)" k v
         | R k -> Printf.sprintf "R(%s)" k
         | Ckpt -> "CKPT")
       ops)

let tmpdir () = Xutil.Tmpdir.scoped "recprop"

let counter = ref 0

let run_history ops =
  incr counter;
  let dir = tmpdir () in
  let n_logs = 2 in
  let log_paths = List.init n_logs (fun i -> Filename.concat dir (Printf.sprintf "l%d" i)) in
  let logs =
    Array.of_list (List.map (fun p -> Persist.Logger.create ~synchronous:true p) log_paths)
  in
  let store = Kvstore.Store.create ~logs () in
  let model = ref SMap.empty in
  let ckpts = ref [] in
  let n_ck = ref 0 in
  List.iteri
    (fun i op ->
      match op with
      | P (k, v) ->
          Kvstore.Store.put ~worker:(i mod n_logs) store k [| v |];
          model := SMap.add k v !model
      | R k ->
          ignore (Kvstore.Store.remove ~worker:(i mod n_logs) store k);
          model := SMap.remove k !model
      | Ckpt ->
          incr n_ck;
          let cd = Filename.concat dir (Printf.sprintf "ck%d" !n_ck) in
          (match Kvstore.Store.checkpoint store ~dir:cd ~writers:2 with
          | Ok _ -> ckpts := cd :: !ckpts
          | Error e -> failwith e))
    ops;
  Kvstore.Store.close store;
  match Kvstore.Store.recover ~log_paths ~checkpoint_dirs:!ckpts () with
  | Error e -> failwith e
  | Ok (s2, _) ->
      let ok = ref (Kvstore.Store.cardinal s2 = SMap.cardinal !model) in
      SMap.iter
        (fun k v -> if Kvstore.Store.get s2 k <> Some [| v |] then ok := false)
        !model;
      !ok

let prop_recovery_matches_model =
  QCheck.Test.make ~name:"recovery = model for arbitrary histories" ~count:40
    (QCheck.make ~print:print_ops gen_ops)
    run_history

(* With a torn tail, recovery must still be a prefix-consistent state:
   every recovered binding was written at some point, and recovery never
   crashes. *)
let run_history_torn ops =
  let dir = tmpdir () in
  let path = Filename.concat dir "l0" in
  let logs = [| Persist.Logger.create ~synchronous:true path |] in
  let store = Kvstore.Store.create ~logs () in
  let written = Hashtbl.create 16 in
  List.iter
    (fun op ->
      match op with
      | P (k, v) ->
          Kvstore.Store.put ~worker:0 store k [| v |];
          Hashtbl.replace written (k, v) ()
      | R k -> ignore (Kvstore.Store.remove ~worker:0 store k)
      | Ckpt -> ())
    ops;
  Kvstore.Store.close store;
  (* Tear a random-ish number of bytes off the tail. *)
  let size = (Unix.stat path).Unix.st_size in
  let cut = min size (1 + (List.length ops * 3 mod 40)) in
  Unix.truncate path (size - cut);
  match Kvstore.Store.recover ~log_paths:[ path ] ~checkpoint_dirs:[] () with
  | Error _ -> false
  | Ok (s2, _) ->
      let ok = ref true in
      ignore
        (Kvstore.Store.getrange s2 ~start:"" ~limit:max_int (fun k cols ->
             if Array.length cols <> 1 || not (Hashtbl.mem written (k, cols.(0))) then
               ok := false));
      !ok

let prop_torn_tail_prefix =
  QCheck.Test.make ~name:"torn log recovers to a written-prefix state" ~count:40
    (QCheck.make ~print:print_ops gen_ops)
    run_history_torn

let suite =
  [
    QCheck_alcotest.to_alcotest prop_recovery_matches_model;
    QCheck_alcotest.to_alcotest prop_torn_tail_prefix;
  ]
