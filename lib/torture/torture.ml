module Failpoint = Faultsim.Failpoint
module Sim = Faultsim.Sim
module Store = Kvstore.Store
module SMap = Map.Make (String)
module SSet = Set.Make (String)

type outcome = Crashed_ok | Clean | Violation of string list
type case = { point : string; at : int; variant : int; outcome : outcome }

type summary = {
  cases : case list;
  crash_points : (string * int) list;
  violations : case list;
}

(* A crash window the persist stack itself cannot see: the server's
   startup sequence (fresh empty logs created, nothing written yet — the
   historical empty-log cutoff hazard).  The post-checkpoint reclaim's
   windows ([ckpt.reclaim.*]) live in [Store.checkpoint_reclaim]. *)
let fp_startup = Failpoint.define "torture.startup.logs_created"

let dir = "disk"

(* The oracle.  [model] is what the live store holds; [guaranteed] is
   the model as of the last completed durable barrier ([Logger.mark] on
   every log) — the state a crash must never lose.  Between barriers we
   remember exactly which values were written and which keys removed, so
   post-crash state can be checked value-by-value: a recovered binding
   must be the guaranteed one or one actually written since. *)
type st = {
  disk : Sim.t;
  vfs : Faultsim.Vfs.t;
  crashed : string option ref;
  mutable store : Store.t;
  mutable logs : Persist.Logger.t array;
  mutable seq : int;
  mutable model : string SMap.t;
  mutable guaranteed : string SMap.t;
  mutable since_writes : string list SMap.t;
  mutable since_removed : SSet.t;
  mutable ever_removed : SSet.t;
  written : (string * string, unit) Hashtbl.t;
  mutable ckpt_n : int;
}

(* A crash inside a checkpoint part-writer thread surfaces as an [Error]
   result, not an exception — re-raise so the script stops like a dead
   process would. *)
let bail st =
  match !(st.crashed) with Some p -> raise (Failpoint.Crash p) | None -> ()

let key i = Printf.sprintf "key%03d" i

let make_logs st tag =
  Array.init 2 (fun i ->
      Persist.Logger.create ~vfs:st.vfs ~manual:true
        (Filename.concat dir (Printf.sprintf "log-%s-%d" tag i)))

let put ?(pad = 0) st i =
  st.seq <- st.seq + 1;
  let v = Printf.sprintf "v%05d" st.seq ^ String.make pad 'x' in
  let k = key i in
  Store.put ~worker:(st.seq mod 2) st.store k [| v |];
  st.model <- SMap.add k v st.model;
  Hashtbl.replace st.written (k, v) ();
  st.since_writes <-
    SMap.update k
      (function None -> Some [ v ] | Some l -> Some (v :: l))
      st.since_writes;
  bail st

let remove st i =
  let k = key i in
  if Store.remove ~worker:0 st.store k then begin
    st.model <- SMap.remove k st.model;
    st.since_removed <- SSet.add k st.since_removed;
    st.ever_removed <- SSet.add k st.ever_removed
  end;
  bail st

(* Group-commit barrier: a durable marker in every log.  Only once every
   mark has returned is the current model guaranteed to survive. *)
let barrier st =
  Array.iter Persist.Logger.mark st.logs;
  st.guaranteed <- st.model;
  st.since_writes <- SMap.empty;
  st.since_removed <- SSet.empty;
  bail st

let close_store st =
  Store.close st.store;
  (* A seal syncs everything buffered, so a clean close is a barrier. *)
  st.guaranteed <- st.model;
  st.since_writes <- SMap.empty;
  st.since_removed <- SSet.empty;
  bail st

let checkpoint st ~writers =
  st.ckpt_n <- st.ckpt_n + 1;
  let d = Filename.concat dir (Printf.sprintf "ckpt-%03d" st.ckpt_n) in
  (match Store.checkpoint ~vfs:st.vfs st.store ~dir:d ~writers with
  | Ok _ -> ()
  | Error e ->
      bail st;
      failwith ("checkpoint write failed: " ^ e));
  bail st;
  d

let find_prefix st p =
  st.vfs.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f >= String.length p && String.sub f 0 (String.length p) = p)
  |> List.sort compare
  |> List.map (Filename.concat dir)

let recover_now st =
  Store.recover ~vfs:st.vfs ~replay_domains:1 ~log_paths:(find_prefix st "log-")
    ~checkpoint_dirs:(find_prefix st "ckpt-") ()

(* The server daemon's restart sequence: recover, open fresh epoch logs,
   migrate the recovered bindings into the logged store (inheriting the
   old version clock — see Store.ensure_version_above). *)
let restart st tag =
  let old =
    match recover_now st with
    | Ok (s, _) -> s
    | Error e -> failwith ("startup recovery failed: " ^ e)
  in
  bail st;
  let logs = make_logs st tag in
  Failpoint.hit fp_startup;
  let s = Store.create ~logs () in
  Store.ensure_version_above s (Store.max_version old);
  ignore
    (Store.getrange old ~start:"" ~limit:max_int (fun k cols ->
         Store.put ~worker:0 s k cols));
  st.store <- s;
  st.logs <- logs;
  bail st

(* Post-checkpoint log reclaim through the daemon's own routine
   ([Store.checkpoint_reclaim]: rotate, cut, durable marks, unlink).  The
   marks complete before the first unlink, so a reclaim that returned —
   or crashed in one of its [ckpt.reclaim.*] deletion windows — is a
   barrier. *)
let reclaim st ~writers =
  let marked () =
    st.guaranteed <- st.model;
    st.since_writes <- SMap.empty;
    st.since_removed <- SSet.empty
  in
  (match Store.checkpoint_reclaim ~vfs:st.vfs st.store ~dir ~writers with
  | Ok _ -> marked ()
  | Error e ->
      bail st;
      failwith ("checkpoint reclaim failed: " ^ e)
  | exception (Failpoint.Crash p as e) when String.starts_with ~prefix:"ckpt.reclaim." p ->
      marked ();
      raise e);
  bail st

let script st =
  st.vfs.mkdir dir;
  (* --- incarnation 0 --- *)
  st.logs <- make_logs st "0";
  Failpoint.hit fp_startup;
  st.store <- Store.create ~logs:st.logs ();
  for i = 1 to 10 do put st i done;
  barrier st;
  for i = 11 to 15 do put st i done;
  (* Big values: enough bytes that a checkpoint part writer crosses its
     streaming-flush threshold, reaching ckpt.part.write_chunk. *)
  for i = 40 to 51 do put ~pad:(200 * 1024) st i done;
  remove st 1;
  remove st 2;
  barrier st;
  ignore (checkpoint st ~writers:1);
  for i = 16 to 18 do put st i done;
  remove st 3;
  barrier st;
  close_store st;
  (* --- incarnation 1: restart, migrate, reclaim --- *)
  restart st "1";
  barrier st;
  for i = 19 to 22 do put st i done;
  remove st 4;
  put st 11;
  barrier st;
  reclaim st ~writers:2;
  for i = 23 to 26 do put st i done;
  remove st 5;
  barrier st;
  (* Acked but never synced: a crash from here may or may not keep these. *)
  for i = 27 to 30 do put st i done

let trunc v = if String.length v <= 12 then v else String.sub v 0 12 ^ "..."

let verify_crash st =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  match recover_now st with
  | Error e ->
      [ "recovery failed after crash: " ^ e ]
  | Ok (s2, stats) ->
      (* Every key ever touched: guaranteed state must survive; anything
         else recovered must be a value genuinely written since. *)
      let keys =
        Hashtbl.fold (fun (k, _) () acc -> SSet.add k acc) st.written SSet.empty
      in
      SSet.iter
        (fun k ->
          let g = SMap.find_opt k st.guaranteed in
          let since =
            match SMap.find_opt k st.since_writes with Some l -> l | None -> []
          in
          match Store.get s2 k with
          | Some [| v |] ->
              let ok = (match g with Some gv -> gv = v | None -> false) || List.mem v since in
              if not ok then
                err "key %s: recovered %S is neither guaranteed (%s) nor written since barrier"
                  k (trunc v)
                  (match g with Some gv -> trunc gv | None -> "absent")
          | Some cols -> err "key %s: recovered with %d columns" k (Array.length cols)
          | None -> (
              match g with
              | None -> ()
              | Some gv ->
                  if not (SSet.mem k st.since_removed) then
                    err "key %s: guaranteed value %S lost" k (trunc gv)))
        keys;
      (* No phantoms: every recovered binding was actually written. *)
      ignore
        (Store.getrange s2 ~start:"" ~limit:max_int (fun k cols ->
             if Array.length cols <> 1 || not (Hashtbl.mem st.written (k, cols.(0)))
             then err "phantom binding for key %s" k));
      (* No regression below the checkpoint recovery chose: each of its
         entries is present unless the key was explicitly removed. *)
      (match stats.Persist.Recovery.checkpoint_dir with
      | None -> ()
      | Some d -> (
          match Persist.Checkpoint.load ~vfs:st.vfs ~dir:d () with
          | Error e -> err "checkpoint %s chosen by recovery is unreadable: %s" d e
          | Ok (_, entries) ->
              List.iter
                (fun (e : Persist.Checkpoint.entry) ->
                  if Store.get s2 e.key = None && not (SSet.mem e.key st.ever_removed)
                  then err "checkpointed key %s regressed" e.key)
                entries));
      List.rev !errs

let verify_clean st =
  close_store st;
  match recover_now st with
  | Error e -> [ "recovery failed after clean shutdown: " ^ e ]
  | Ok (s2, _) ->
      let errs = ref [] in
      let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
      SMap.iter
        (fun k v ->
          match Store.get s2 k with
          | Some [| v' |] when v' = v -> ()
          | Some _ -> err "key %s: wrong value after clean recovery" k
          | None -> err "key %s: missing after clean recovery" k)
        st.model;
      let n = Store.cardinal s2 in
      if n <> SMap.cardinal st.model then
        err "clean recovery has %d keys, model has %d" n (SMap.cardinal st.model);
      List.rev !errs

let run_case ?(seed = 42L) ~point ~at ~variant () =
  Failpoint.reset ();
  let sim_seed =
    Int64.add seed
      (Int64.of_int ((((Hashtbl.hash point * 31) + at) * 131) + variant))
  in
  let disk = Sim.create ~seed:sim_seed in
  let crashed = ref None in
  Failpoint.set_crash_hook (fun p ->
      if !crashed = None then crashed := Some p;
      Sim.freeze disk);
  Failpoint.arm point ~at Failpoint.Crash_process;
  let st =
    {
      disk;
      vfs = Sim.vfs disk;
      crashed;
      store = Store.create ();
      logs = [||];
      seq = 0;
      model = SMap.empty;
      guaranteed = SMap.empty;
      since_writes = SMap.empty;
      since_removed = SSet.empty;
      ever_removed = SSet.empty;
      written = Hashtbl.create 64;
      ckpt_n = 0;
    }
  in
  let completed =
    try
      script st;
      true
    with Failpoint.Crash _ -> false
  in
  Failpoint.disarm_all ();
  Failpoint.clear_crash_hook ();
  let outcome =
    if completed && !crashed = None then
      match verify_clean st with [] -> Clean | errs -> Violation errs
    else begin
      Sim.crash disk;
      match verify_crash st with [] -> Crashed_ok | errs -> Violation errs
    end
  in
  { point; at; variant; outcome }

let run_sweep ?(seed = 42L) ?(hits = [ 1; 2 ]) ?(variants = [ 0; 1; 2 ])
    ?(filter = fun _ -> true) () =
  let cases =
    List.concat_map
      (fun point ->
        List.concat_map
          (fun at ->
            List.map (fun variant -> run_case ~seed ~point ~at ~variant ()) variants)
          hits)
      (List.filter filter (Failpoint.names ()))
  in
  let crash_points =
    List.fold_left
      (fun acc c ->
        match c.outcome with
        | Crashed_ok ->
            SMap.update c.point
              (function None -> Some 1 | Some n -> Some (n + 1))
              acc
        | Clean | Violation _ -> acc)
      SMap.empty cases
    |> SMap.bindings
  in
  let violations =
    List.filter (fun c -> match c.outcome with Violation _ -> true | _ -> false) cases
  in
  { cases; crash_points; violations }
