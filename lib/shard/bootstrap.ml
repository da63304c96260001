(* Boot-time recovery + resharding.  See bootstrap.mli for the contract;
   the crash-safety story in brief:

   - Sources (live shard dirs, orphan shard dirs, legacy root state) are
     recovered with tombstones kept, so a newer remove in one dir can
     shadow an older put in another.
   - Every recovered binding re-homes through the router via
     migrate_put/migrate_remove, which carry the recovered version into
     both the in-memory store (replay guard: newest copy wins regardless
     of migration order) and the fresh log (so the next replay agrees).
   - Only after a marker in every fresh log makes the re-homed dataset
     durable do we delete the superseded sources — including the old
     logs/checkpoints inside live shard dirs, which would otherwise keep
     stale copies of keys that migrated elsewhere until a checkpoint
     (checkpointing is off by default) and resurrect them on a later
     restart.
   - A crash before the barrier leaves all sources intact; a crash
     mid-deletion leaves redundant copies whose versions the next boot
     reconciles.  Either way no acked write is lost. *)

let mkdir_p dir =
  try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let rm_rf = Xutil.Tmpdir.rm_rf

let find_prefixed prefix dir =
  let plen = String.length prefix in
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> String.length f > plen && String.sub f 0 plen = prefix)
    |> List.sort compare
    |> List.map (Filename.concat dir)

let find_logs = find_prefixed "log-"

let find_checkpoints = find_prefixed "ckpt-"

let shard_dirs ~data_dir ~shards =
  if shards <= 1 then [| data_dir |]
  else Array.init shards (fun i -> Filename.concat data_dir (Printf.sprintf "shard-%d" i))

type t = {
  stores : Kvstore.Store.t array;
  shard_logs : Persist.Logger.t array array;
  dirs : string array;
  router : Router.t option;
}

(* Fresh logs for this incarnation in [dir].  idle_markers: an idle
   worker's log keeps advancing its durable timestamp so it never pins
   the recovery cutoff in the past. *)
let fresh_logs ~n_logs dir =
  let epoch_tag = Int64.to_string (Xutil.Clock.wall_us ()) in
  Array.init n_logs (fun i ->
      Persist.Logger.create ~idle_markers:true
        (Filename.concat dir (Printf.sprintf "log-%s-%d" epoch_tag i)))

exception Fail of string

(* Recover whatever a directory holds from a previous incarnation,
   tombstones kept so cross-dir remove-vs-put conflicts resolve by
   version during migration. *)
let recover_dir ~log dir =
  let old_logs = find_logs dir in
  let old_ckpts = find_checkpoints dir in
  if old_logs = [] && old_ckpts = [] then None
  else
    match
      Kvstore.Store.recover ~keep_tombstones:true ~log_paths:old_logs
        ~checkpoint_dirs:old_ckpts ()
    with
    | Ok (s, stats) ->
        log
          (Printf.sprintf "recovered %d keys from %s (%d log records, %d checkpoint entries)"
             (Kvstore.Store.cardinal s) dir stats.Persist.Recovery.records_applied
             stats.Persist.Recovery.checkpoint_entries);
        Some s
    | Error e -> raise (Fail (Printf.sprintf "recovery failed in %s: %s" dir e))

let boot ?(log = ignore) ?hot ~data_dir ~shards ~n_logs () =
  let shards = max 1 shards in
  try
    mkdir_p data_dir;
    let dirs = shard_dirs ~data_dir ~shards in
    Array.iter mkdir_p dirs;
    (* Sources: legacy root-dir state (a single-store deployment switched
       to --shards), orphan shard dirs (left by an incarnation with a
       different shard count), and the live shard dirs themselves. *)
    let legacy = if shards = 1 then None else recover_dir ~log data_dir in
    let orphan_dirs =
      Sys.readdir data_dir |> Array.to_list
      |> List.filter (fun f -> String.length f > 6 && String.sub f 0 6 = "shard-")
      |> List.map (Filename.concat data_dir)
      |> List.filter (fun d ->
             Sys.is_directory d && not (Array.exists (String.equal d) dirs))
      |> List.sort compare
    in
    let orphans = List.map (recover_dir ~log) orphan_dirs in
    let recovered = Array.map (recover_dir ~log) dirs in
    let shard_logs = Array.map (fresh_logs ~n_logs) dirs in
    let stores = Array.map (fun logs -> Kvstore.Store.create ~logs ()) shard_logs in
    (* Continue the old incarnation's version clock: migrated records keep
       their versions, and every NEW write must out-version all of them. *)
    let max_recovered =
      let step acc = function Some s -> max acc (Kvstore.Store.max_version s) | None -> acc in
      List.fold_left step (Array.fold_left step (step 0L legacy) recovered) orphans
    in
    Array.iter (fun s -> Kvstore.Store.ensure_version_above s max_recovered) stores;
    let router = if shards = 1 then None else Some (Router.create ?hot stores) in
    let target = match router with None -> fun _ -> 0 | Some r -> Router.shard_of r in
    (* Re-home every recovered binding under its recovered version.
       Order across sources is irrelevant: the version guard picks the
       newest copy of each key, and tombstones shadow older puts from
       other dirs until the sweep below. *)
    let migrate src =
      Kvstore.Store.iter_entries src (fun ~key ~version ~columns ->
          let s = stores.(target key) in
          match columns with
          | Some columns -> Kvstore.Store.migrate_put s ~key ~version ~columns
          | None -> Kvstore.Store.migrate_remove s ~key ~version)
    in
    let migrate_opt = function Some src -> migrate src | None -> () in
    migrate_opt legacy;
    List.iter migrate_opt orphans;
    Array.iter migrate_opt recovered;
    Array.iter Kvstore.Store.sweep_tombstones stores;
    let migrated =
      legacy <> None || List.exists Option.is_some orphans
      || Array.exists Option.is_some recovered
    in
    (* Reclaim the migration sources once the re-homed records are
       durable: a marker in every fresh log is the group-commit barrier
       (the same trick the checkpoint-rotate path uses).  The old logs
       and checkpoints inside the live shard dirs are superseded too —
       left behind, a stale copy of a key that re-homed to another shard
       would outlive its successor and resurrect on a later restart. *)
    if migrated then begin
      Array.iter (Array.iter Persist.Logger.mark) shard_logs;
      List.iter
        (fun d -> try rm_rf d with Sys_error _ | Unix.Unix_error _ -> ())
        orphan_dirs;
      if legacy <> None then Kvstore.Store.reclaim_dir ~keep:[] data_dir;
      Array.iteri
        (fun i d ->
          Kvstore.Store.reclaim_dir
            ~keep:(Array.to_list (Array.map Persist.Logger.path shard_logs.(i)))
            d)
        dirs
    end;
    Ok { stores; shard_logs; dirs; router }
  with Fail e -> Error e
