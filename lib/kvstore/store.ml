open Masstree_core

type value = { version : int64; columns : string array }

type layout = Contiguous | Columnar

(* The two §4.7 value representations.  [Flat] packs all columns into one
   string with an offset table — one allocation per value, whole-value
   copy on every update.  [Cols] keeps one block per column — updates
   share unmodified blocks structurally.  Both are immutable and swapped
   in with a single store, so multi-column puts stay atomic. *)
type content =
  | Flat of string * int array (* data, column end-offsets *)
  | Cols of string array

let pack columns =
  let n = Array.length columns in
  let offsets = Array.make n 0 in
  let total = ref 0 in
  Array.iteri
    (fun i c ->
      total := !total + String.length c;
      offsets.(i) <- !total)
    columns;
  let buf = Bytes.create !total in
  let pos = ref 0 in
  Array.iter
    (fun c ->
      Bytes.blit_string c 0 buf !pos (String.length c);
      pos := !pos + String.length c)
    columns;
  Flat (Bytes.unsafe_to_string buf, offsets)

let unpack = function
  | Cols a -> a
  | Flat (data, offsets) ->
      Array.mapi
        (fun i e ->
          let s = if i = 0 then 0 else offsets.(i - 1) in
          String.sub data s (e - s))
        offsets

(* The [requested] columns of a stored value, in request order, read
   straight from its representation: a projection of a [Flat] value
   copies out only the requested bytes, never the whole value.  An index
   outside the value reads as [""]. *)
let rec project_into out j content n = function
  | [] -> out
  | i :: rest ->
      if i >= 0 && i < n then
        out.(j) <-
          (match content with
          | Cols a -> a.(i)
          | Flat (data, offsets) ->
              let s = if i = 0 then 0 else offsets.(i - 1) in
              String.sub data s (offsets.(i) - s));
      project_into out (j + 1) content n rest

let project_content content requested =
  let n = match content with Cols a -> Array.length a | Flat (_, o) -> Array.length o in
  project_into (Array.make (List.length requested) "") 0 content n requested

let project columns requested = project_content (Cols columns) requested

let columns_of content = function
  | None -> unpack content
  | Some requested -> project_content content requested

let content_of layout columns =
  match layout with Contiguous -> pack columns | Columnar -> Cols columns

(* Stored values carry an optional tombstone state: during recovery a
   Remove record must shadow older Put records that may arrive later from
   other logs, so removes materialize as versioned tombstones and are
   swept once replay finishes.  Live operation stores tombstones only
   while snapshots are open (a remove must stay resolvable at older
   snapshot versions); the prune pass deletes them once no snapshot can
   see past them.

   [schain] is the MVCC version chain (docs/MVCC.md): payloads this head
   retired that some open snapshot may still read, newest first.  The
   chain travels with the head — one atomic tree store publishes both —
   and is empty whenever no snapshot was open at overwrite time. *)
type stored = {
  sversion : int64;
  scontent : content option;
  schain : content option Mvcc.Chain.t;
}

type t = {
  tree : stored Tree.t;
  logs : Persist.Logger.t array;
  vlayout : layout;
  (* Global version clock: distinct, increasing versions across all keys.
     The paper needs per-value increasing versions; a global counter also
     orders remove/reinsert pairs across different per-core logs.  (On the
     paper's 16 cores this would be a contended line; they use per-value
     counters plus timestamps.  See DESIGN.md §5.)  This clock is also the
     snapshot timestamp domain: a snapshot pins [max_version] at open and
     reads the newest version [<=] it everywhere. *)
  clock : int Atomic.t;
  (* MVCC state: the snapshot horizon (who is open, at what version), the
     set of keys whose chains/tombstones need pruning, and the live
     chained-version count behind the [mvcc.versions_live] gauge. *)
  snaps : Mvcc.Horizon.t;
  pending : (string, unit) Hashtbl.t;
  pending_lock : Xutil.Spinlock.t;
  prune_scheduled : bool Atomic.t;
  versions_live : int Atomic.t;
}

(* Hot-path metric handles, resolved once. *)
let obs_chain_len = Obs.Registry.histogram Obs.Registry.global "mvcc.chain_len"
let obs_snap_open = Obs.Registry.counter Obs.Registry.global "mvcc.snap_open_total"

let create ?(logs = [||]) ?(layout = Contiguous) () =
  {
    tree = Tree.create ();
    logs = Array.map Fun.id logs;
    vlayout = layout;
    clock = Atomic.make 1;
    snaps = Mvcc.Horizon.create ();
    pending = Hashtbl.create 64;
    pending_lock = Xutil.Spinlock.create ();
    prune_scheduled = Atomic.make false;
    versions_live = Atomic.make 0;
  }

let layout t = t.vlayout

let close t =
  Array.iter Persist.Logger.seal t.logs;
  Array.iter Persist.Logger.close t.logs

let next_version t = Int64.of_int (Atomic.fetch_and_add t.clock 1)

let max_version t = Int64.of_int (Atomic.get t.clock - 1)

let logger_for t worker =
  if Array.length t.logs = 0 then None
  else Some t.logs.(worker mod Array.length t.logs)

let log_put t ~worker ~key ~version ~columns =
  match logger_for t worker with
  | None -> ()
  | Some l ->
      Persist.Logger.append l
        (Persist.Logrec.Put
           { key; version; timestamp = Xutil.Clock.wall_us (); columns })

let log_remove t ~worker ~key ~version =
  match logger_for t worker with
  | None -> ()
  | Some l ->
      Persist.Logger.append l
        (Persist.Logrec.Remove { key; version; timestamp = Xutil.Clock.wall_us () })

let default_worker () = (Domain.self () :> int)

(* ---- MVCC plumbing ---- *)

(* Schedule points pinning the chain protocol's ordering-sensitive steps;
   lib/schedsim's mvcc scenarios interleave them (docs/MVCC.md). *)
let sp_open_pinned = Schedpoint.define "mvcc.open.pinned"
let sp_snap_read = Schedpoint.define "mvcc.snap.read"
let sp_chain_installed = Schedpoint.define "mvcc.chain.installed"
let sp_prune_pass = Schedpoint.define "mvcc.prune.pass"
let sp_snap_closed = Schedpoint.define "mvcc.snap.closed"

let snapshots_open t = Mvcc.Horizon.active t.snaps

let mvcc_versions_live t = Atomic.get t.versions_live

let note_pending t key =
  Xutil.Spinlock.with_lock t.pending_lock (fun () -> Hashtbl.replace t.pending key ())

(* Under the border lock: the chain for a new head that retires [old].
   [chained] is the writer's post-mint read of the horizon — when no
   snapshot was open, the retired payload is dead to everyone (any later
   open pins a version >= this write's), so the chain collapses to empty
   and the old entries die with it.  The caller applies [delta] to the
   live-version count after the tree store completes. *)
let retired_chain t ~chained ~delta ~len old =
  match old with
  | None -> Mvcc.Chain.empty
  | Some o ->
      if chained then begin
        let epoch = Epoch.global_epoch (Tree.epoch_manager t.tree) in
        let c = Mvcc.Chain.push o.schain ~version:o.sversion ~epoch o.scontent in
        delta := 1;
        len := Mvcc.Chain.length c;
        c
      end
      else begin
        delta := -Mvcc.Chain.length o.schain;
        Mvcc.Chain.empty
      end

let apply_version_delta t delta =
  if delta <> 0 then ignore (Atomic.fetch_and_add t.versions_live delta)

let prune_pass t =
  Schedpoint.hit sp_prune_pass;
  Atomic.set t.prune_scheduled false;
  let keys =
    Xutil.Spinlock.with_lock t.pending_lock (fun () ->
        let ks = Hashtbl.fold (fun k () acc -> k :: acc) t.pending [] in
        Hashtbl.reset t.pending;
        ks)
  in
  let survivors = ref [] in
  List.iter
    (fun key ->
      (* Truncate the chain to what some open snapshot can still read.
         The closure runs under the border lock, so the decision is
         atomic w.r.t. concurrent writers — pruning from a pre-read copy
         could resurrect versions a racing writer just retired.  The
         horizon is read {e inside} the closure for the same reason: a
         snapshot that opens after a single up-front read, followed by a
         chained overwrite of this key, needs the entry that overwrite
         retired — pruning it against the stale versions array would
         tear the snapshot's cut.  Any entry present when this closure
         runs was pushed under this same border lock by a writer whose
         version mint the needing snapshot's registration preceded
         (register-then-mint vs. mint-then-check ordering), so a horizon
         read here sees every snapshot that can still reach it. *)
      let delta = ref 0 in
      let survived = ref false in
      ignore
        (Tree.update t.tree key (fun st ->
             delta := 0;
             survived := false;
             match st.schain with
             | None -> st
             | Some _ ->
                 let snapshots = Mvcc.Horizon.versions t.snaps in
                 let chain =
                   Mvcc.Chain.prune st.schain ~death_of_head:st.sversion ~snapshots
                 in
                 delta := Mvcc.Chain.length chain - Mvcc.Chain.length st.schain;
                 if chain != Mvcc.Chain.empty then survived := true;
                 if !delta = 0 then st else { st with schain = chain }));
      apply_version_delta t !delta;
      (* A tombstone whose chain is gone is invisible to every snapshot
         (new opens pin versions past it; see docs/MVCC.md) — delete it.
         [remove_if] re-checks under the lock, so a concurrent reinsert
         is never clobbered. *)
      (match
         Tree.remove_if t.tree key (fun st ->
             st.scontent = None && st.schain = None)
       with
      | Some _ -> ()
      | None -> if !survived then survivors := key :: !survivors))
    keys;
  match !survivors with
  | [] -> ()
  | ks ->
      Xutil.Spinlock.with_lock t.pending_lock (fun () ->
          List.iter (fun k -> Hashtbl.replace t.pending k ()) ks)

let schedule_prune t =
  if not (Atomic.exchange t.prune_scheduled true) then
    Epoch.schedule (Tree.epoch_manager t.tree) (fun () -> prune_pass t)

(* A chain this long means rapid overwrites are outrunning reclamation
   (with one old snapshot open, all but one entry per key are already
   dead): self-schedule a pass so epoch ticks on the write path keep
   chains bounded even when nothing closes a snapshot and no external
   caller runs {!prune}.  Long-lived embedders should still call
   [prune]/[maintain] periodically — ticks only fire while ops flow. *)
let chain_prune_trigger = 4

(* After a chained install: account the new entry and sample the chain
   length (outside the border lock). *)
let note_chained t key ~delta ~len =
  apply_version_delta t delta;
  if len > 0 then Obs.Registry.observe obs_chain_len len;
  if delta > 0 then begin
    note_pending t key;
    Schedpoint.hit sp_chain_installed;
    if len >= chain_prune_trigger then schedule_prune t
  end

(* ---- reads ---- *)

let get_value t key =
  match Tree.get t.tree key with
  | Some { sversion; scontent = Some c; _ } -> Some { version = sversion; columns = unpack c }
  | Some { scontent = None; _ } | None -> None

let get t key = Option.map (fun v -> v.columns) (get_value t key)

let multi_get t keys =
  Array.map
    (function
      | Some { scontent = Some c; _ } -> Some (unpack c)
      | Some { scontent = None; _ } | None -> None)
    (Tree.multi_get_pipelined t.tree keys)

let get_columns t key cols =
  match Tree.get t.tree key with
  | Some { scontent = Some c; _ } -> Some (project_content c cols)
  | Some { scontent = None; _ } | None -> None

(* ---- writes ---- *)

(* Writers mint their version {e before} reading the horizon: if the
   horizon read sees no open snapshot, any snapshot registered later
   pins a version >= this write's, so the new head itself is what that
   snapshot reads and the retired payload is safe to drop.  (The opener
   does the mirror ordering — register, then read the clock — inside
   [Mvcc.Horizon.open_].)

   Because the version is minted before the border lock is taken, two
   concurrent writers to the same key can arrive at the lock in the
   opposite of version order.  The closures below keep the existing head
   whenever its version is already >= the incoming one: the late writer
   serializes {e before} the head it found, its effect immediately
   overwritten — last-writer-wins by version, the same rule the replay
   guard applies.  Installing the smaller version instead would publish
   a head older than its own chain entries (breaking [Mvcc.Chain]'s
   descending order and snapshot resolution), and the loser skips its
   log record — the winner's newer record subsumes it, so replay matches
   the live tree.  Closures reset their out-refs on entry: a tree-level
   [Restart] can re-run them. *)

let put ?worker t key columns =
  let worker = match worker with Some w -> w | None -> default_worker () in
  let version = next_version t in
  let chained = Mvcc.Horizon.active t.snaps > 0 in
  let delta = ref 0 and len = ref 0 in
  let applied = ref false in
  ignore
    (Tree.put_with t.tree key (fun old ->
         delta := 0;
         len := 0;
         applied := false;
         match old with
         | Some existing when Int64.compare existing.sversion version >= 0 ->
             existing
         | _ ->
             applied := true;
             {
               sversion = version;
               scontent = Some (content_of t.vlayout (Array.copy columns));
               schain = retired_chain t ~chained ~delta ~len old;
             }));
  if !applied then begin
    note_chained t key ~delta:!delta ~len:!len;
    log_put t ~worker ~key ~version ~columns
  end

let put_columns ?worker t key updates =
  let worker = match worker with Some w -> w | None -> default_worker () in
  let version = next_version t in
  let chained = Mvcc.Horizon.active t.snaps > 0 in
  let result = ref [||] in
  let delta = ref 0 and len = ref 0 in
  let applied = ref false in
  ignore
    (Tree.put_with t.tree key (fun old ->
         delta := 0;
         len := 0;
         applied := false;
         match old with
         | Some existing when Int64.compare existing.sversion version >= 0 ->
             existing
         | _ ->
         applied := true;
         let base =
           match old with
           | Some { scontent = Some c; _ } -> unpack c
           | Some { scontent = None; _ } | None -> [||]
         in
         let width =
           List.fold_left (fun w (i, _) -> max w (i + 1)) (Array.length base) updates
         in
         (* Copy-on-write merge: the value object is fresh and the single
            pointer store in the tree publishes all modified columns at
            once (§4.7).  Under Columnar layout unmodified column blocks
            are shared; under Contiguous the whole value is re-packed. *)
         let merged = Array.make width "" in
         Array.blit base 0 merged 0 (Array.length base);
         List.iter (fun (i, c) -> if i >= 0 then merged.(i) <- c) updates;
         result := merged;
         {
           sversion = version;
           scontent = Some (content_of t.vlayout merged);
           schain = retired_chain t ~chained ~delta ~len old;
         }));
  if !applied then begin
    note_chained t key ~delta:!delta ~len:!len;
    log_put t ~worker ~key ~version ~columns:!result
  end

let remove ?worker t key =
  let worker = match worker with Some w -> w | None -> default_worker () in
  let version = next_version t in
  let chained = Mvcc.Horizon.active t.snaps > 0 in
  if not chained then begin
    (* No snapshot open when the version was minted: a plain delete.
       Any snapshot opening concurrently pins a version >= [version],
       which resolves this key to absent — exactly what deleting shows
       it.  Chain entries hanging off the old head die with it (their
       lifetimes all end before [version]). *)
    match Tree.remove t.tree key with
    | Some { scontent = Some _; schain; _ } ->
        apply_version_delta t (-Mvcc.Chain.length schain);
        log_remove t ~worker ~key ~version;
        true
    | Some { scontent = None; schain; _ } ->
        apply_version_delta t (-Mvcc.Chain.length schain);
        false
    | None -> false
  end
  else begin
    (* Snapshots are open: the remove must stay resolvable at their
       versions, so install a versioned tombstone that chains the
       retired value.  [Tree.update] never inserts — removing an absent
       key must not materialize a tombstone for it. *)
    let removed = ref false in
    let delta = ref 0 and len = ref 0 in
    ignore
      (Tree.update t.tree key (fun old ->
           removed := false;
           delta := 0;
           len := 0;
           if Int64.compare old.sversion version >= 0 then
             (* A concurrent writer already published a newer head: this
                remove serializes before it and its effect is gone (see
                the version-inversion note above [put]).  Tombstoning
                with the smaller version would invert the chain. *)
             old
           else
             match old.scontent with
             | None -> old (* already a tombstone; nothing to remove *)
             | Some _ ->
                 removed := true;
                 {
                   sversion = version;
                   scontent = None;
                   schain = retired_chain t ~chained:true ~delta ~len (Some old);
                 }));
    if !removed then begin
      note_chained t key ~delta:!delta ~len:!len;
      (* The tombstone itself needs pruning once snapshots drain. *)
      note_pending t key;
      log_remove t ~worker ~key ~version;
      true
    end
    else false
  end

(* ---- scans ---- *)

let getrange t ~start ?columns ~limit f =
  if limit <= 0 then 0
  else begin
    let emitted = ref 0 in
    let exception Done in
    (try
       ignore
         (Tree.scan t.tree ~start ~limit:max_int (fun k v ->
              match v.scontent with
              | None -> ()
              | Some content ->
                  f k (columns_of content columns);
                  incr emitted;
                  if !emitted >= limit then raise Done))
     with Done -> ());
    !emitted
  end

let getrange_rev t ?start ?columns ~limit f =
  if limit <= 0 then 0
  else begin
    let emitted = ref 0 in
    let exception Done in
    (try
       ignore
         (Tree.scan_rev t.tree ?start ~limit:max_int (fun k v ->
              match v.scontent with
              | None -> ()
              | Some content ->
                  f k (columns_of content columns);
                  incr emitted;
                  if !emitted >= limit then raise Done))
     with Done -> ());
    !emitted
  end

let cardinal t =
  let n = ref 0 in
  ignore
    (Tree.scan t.tree ~limit:max_int (fun _ v ->
         match v.scontent with Some _ -> incr n | None -> ()));
  !n

(* ---- snapshots ---- *)

(* The state of [key] as of version [at]: [None] = no version that old
   (born later, or pruned — the opener's ordering makes the latter
   unreachable for open snapshots); [Some None] = tombstone (absent);
   [Some (Some c)] = the payload. *)
let resolve_at st ~at =
  if Int64.compare st.sversion at <= 0 then Some st.scontent
  else
    match Mvcc.Chain.find st.schain ~at with
    | Some e -> Some e.Mvcc.Chain.payload
    | None -> None

module Snapshot = struct
  type store = t

  type snap = { sstore : store; ticket : Mvcc.Horizon.ticket; sclosed : bool Atomic.t }

  let open_ (t : store) =
    Obs.Registry.incr obs_snap_open;
    let ticket =
      Mvcc.Horizon.open_ t.snaps
        ~mint:(fun () -> max_version t)
        ~epoch:(fun () -> Epoch.global_epoch (Tree.epoch_manager t.tree))
    in
    Schedpoint.hit sp_open_pinned;
    { sstore = t; ticket; sclosed = Atomic.make false }

  let version s = Mvcc.Horizon.version s.ticket
  let epoch s = Mvcc.Horizon.epoch s.ticket

  let check_open s =
    if Atomic.get s.sclosed then invalid_arg "Store.Snapshot: use after close"

  let read_content s key =
    check_open s;
    let at = version s in
    Schedpoint.hit sp_snap_read;
    match Tree.get s.sstore.tree key with
    | None -> None
    | Some st -> (
        match resolve_at st ~at with
        | None | Some None -> None
        | Some (Some c) -> Some c)

  let read s key = Option.map unpack (read_content s key)

  let read_columns s key cols = Option.map (fun c -> project_content c cols) (read_content s key)

  let getrange s ~start ?columns ~limit f =
    check_open s;
    if limit <= 0 then 0
    else begin
      let at = version s in
      let emitted = ref 0 in
      let exception Done in
      (try
         ignore
           (Tree.scan s.sstore.tree ~start ~limit:max_int (fun k st ->
                Schedpoint.hit sp_snap_read;
                match resolve_at st ~at with
                | None | Some None -> ()
                | Some (Some content) ->
                    f k (columns_of content columns);
                    incr emitted;
                    if !emitted >= limit then raise Done))
       with Done -> ());
      !emitted
    end

  (* Replication bootstrap feed: [getrange] that also yields each
     resolved entry's version, so the receiver can apply through the
     version-carrying migrate path and a concurrent log tail can race
     the feed safely (newest version wins either way).  Tombstones at
     the cut are skipped — the feed seeds an empty store. *)
  let getrange_versioned s ~start ~limit f =
    check_open s;
    if limit <= 0 then 0
    else begin
      let at = version s in
      let emitted = ref 0 in
      let exception Done in
      (try
         ignore
           (Tree.scan s.sstore.tree ~start ~limit:max_int (fun k st ->
                Schedpoint.hit sp_snap_read;
                let resolved =
                  if Int64.compare st.sversion at <= 0 then
                    Some (st.sversion, st.scontent)
                  else
                    match Mvcc.Chain.find st.schain ~at with
                    | Some e -> Some (e.Mvcc.Chain.version, e.Mvcc.Chain.payload)
                    | None -> None
                in
                match resolved with
                | None | Some (_, None) -> ()
                | Some (v, Some content) ->
                    f k v (unpack content);
                    incr emitted;
                    if !emitted >= limit then raise Done))
       with Done -> ());
      !emitted
    end

  let close s =
    if not (Atomic.exchange s.sclosed true) then begin
      Mvcc.Horizon.close s.sstore.snaps s.ticket;
      Schedpoint.hit sp_snap_closed;
      (* The horizon moved: chains this snapshot was pinning may now be
         prunable.  Run the pass at the next tick/quiesce. *)
      schedule_prune s.sstore
    end
end

let prune t = prune_pass t

let maintain t =
  prune_pass t;
  Tree.maintain t.tree

let tree_stats t = Tree.stats t.tree

let pool_stats t = Pool.stats (Tree.pool t.tree)
let pool_footprint t = Pool.footprint_bytes (Tree.pool t.tree)
let pool_consistency t = Tree.pool_consistency t.tree

(* Publish this store's live tree counters (and its loggers' buffer
   occupancy) as gauges on the global registry.  Gauge registration
   replaces by name, so the most recently registered store owns the
   [masstree.*] names — exactly what a server process wants after
   recovery swaps stores. *)
let register_obs t =
  let g = Obs.Registry.global in
  let st = Tree.stats t.tree in
  List.iter
    (fun c ->
      Obs.Registry.gauge g
        ("masstree." ^ Stats.name c)
        (fun () -> Stats.read st c))
    Stats.all;
  if Array.length t.logs > 0 then
    Obs.Registry.gauge g "log.buffered_bytes" (fun () ->
        Array.fold_left (fun a l -> a + Persist.Logger.buffered_bytes l) 0 t.logs);
  (* Node-arena occupancy: slab counts, live cells/blobs, off-heap
     footprint, and the epoch-deferred free backlog (a growing backlog
     means retires are outpacing quiescence). *)
  let pool = Tree.pool t.tree in
  Obs.Registry.gauge g "pool.cell_slabs" (fun () -> (Pool.stats pool).Pool.cell_slabs);
  Obs.Registry.gauge g "pool.blob_slabs" (fun () -> (Pool.stats pool).Pool.blob_slabs);
  Obs.Registry.gauge g "pool.cells_live" (fun () -> (Pool.stats pool).Pool.cells_live);
  Obs.Registry.gauge g "pool.blobs_live" (fun () -> (Pool.stats pool).Pool.blobs_live);
  Obs.Registry.gauge g "pool.blob_bytes_live" (fun () ->
      (Pool.stats pool).Pool.blob_bytes_live);
  Obs.Registry.gauge g "pool.deferred_frees" (fun () ->
      (Pool.stats pool).Pool.deferred_frees);
  Obs.Registry.gauge g "pool.refills" (fun () -> (Pool.stats pool).Pool.refills);
  Obs.Registry.gauge g "pool.footprint_bytes" (fun () -> Pool.footprint_bytes pool);
  Obs.Registry.register_gc g;
  (* MVCC health: chained versions alive, snapshots pinning them, and
     how far (in EBR epochs) the oldest open snapshot lags the present.
     mvcc.chain_len / mvcc.snap_open_total are recorded at the write
     sites (module-level handles above). *)
  Obs.Registry.gauge g "mvcc.versions_live" (fun () -> mvcc_versions_live t);
  Obs.Registry.gauge g "mvcc.snapshots_open" (fun () -> snapshots_open t);
  Obs.Registry.gauge g "mvcc.prune_lag_epochs" (fun () ->
      match Mvcc.Horizon.oldest_epoch t.snaps with
      | None -> 0
      | Some e -> max 0 (Epoch.global_epoch (Tree.epoch_manager t.tree) - e))

let check t = Tree.check t.tree

(* ---- replay entry points (version-guarded, tombstone-aware) ---- *)

let bump_clock t version =
  let v = Int64.to_int version + 1 in
  let rec go () =
    let cur = Atomic.get t.clock in
    if v > cur && not (Atomic.compare_and_set t.clock cur v) then go ()
  in
  go ()

(* A store populated by copying another store's live bindings (the server
   daemon's startup migration) must continue the source's version clock:
   its fresh logs coexist on disk with the previous incarnation's until
   the first checkpoint reclaim, and if the new store restarted versions
   near 1, replaying both log sets would let stale high-version records
   shadow newer acked updates. *)
let ensure_version_above t version = bump_clock t version

(* Replay and migration install heads only, never chains: checkpoints
   and logs hold single versions per record, and both paths run on
   stores no snapshot is open against (asserted in [recover]).  Should a
   migration ever race an open snapshot, the retired payload is chained
   like any other write. *)

let apply_put t ~key ~version ~columns =
  bump_clock t version;
  let chained = Mvcc.Horizon.active t.snaps > 0 in
  let delta = ref 0 and len = ref 0 in
  ignore
    (Tree.put_with t.tree key (fun old ->
         delta := 0;
         len := 0;
         match old with
         | Some existing when Int64.compare existing.sversion version >= 0 -> existing
         | _ ->
             {
               sversion = version;
               scontent = Some (content_of t.vlayout columns);
               schain = retired_chain t ~chained ~delta ~len old;
             }));
  note_chained t key ~delta:!delta ~len:!len

let apply_remove t ~key ~version =
  bump_clock t version;
  let chained = Mvcc.Horizon.active t.snaps > 0 in
  let delta = ref 0 and len = ref 0 in
  ignore
    (Tree.put_with t.tree key (fun old ->
         delta := 0;
         len := 0;
         match old with
         | Some existing when Int64.compare existing.sversion version >= 0 -> existing
         | _ ->
             {
               sversion = version;
               scontent = None;
               schain = retired_chain t ~chained ~delta ~len old;
             }));
  note_chained t key ~delta:!delta ~len:!len

(* ---- reshard migration (version-carrying logged writes) ----

   The daemon's startup migration copies recovered bindings into fresh
   stores through the router.  A plain [put] would mint a fresh version,
   making "which copy wins" depend on migration order — and a stale copy
   of a re-homed key sitting in another dir's old logs could then shadow
   the real value on a later restart.  These entry points keep the
   recovered version: the replay guard picks the newest copy regardless
   of order, and the record lands in the fresh log under that same
   version so every subsequent replay agrees. *)

let migrate_put ?worker t ~key ~version ~columns =
  let worker = match worker with Some w -> w | None -> default_worker () in
  apply_put t ~key ~version ~columns;
  log_put t ~worker ~key ~version ~columns

let migrate_remove ?worker t ~key ~version =
  let worker = match worker with Some w -> w | None -> default_worker () in
  apply_remove t ~key ~version;
  log_remove t ~worker ~key ~version

let iter_entries t f =
  ignore
    (Tree.scan t.tree ~limit:max_int (fun k v ->
         f ~key:k ~version:v.sversion ~columns:(Option.map unpack v.scontent)))

(* ---- checkpoint / recovery ---- *)

let checkpoint ?vfs ?(snapshot = true) t ~dir ~writers =
  let began_us = Xutil.Clock.wall_us () in
  let entries = ref [] in
  if snapshot then begin
    (* Walk a pinned snapshot: one consistent cut, no races with
       foreground puts (they chain retired values instead of fighting
       the scan), and only heads visible at the cut are emitted —
       chains are never persisted ({!Persist.Checkpoint.entry} has no
       chain field; recovery replays single versions). *)
    let s = Snapshot.open_ t in
    let at = Snapshot.version s in
    Fun.protect
      ~finally:(fun () -> Snapshot.close s)
      (fun () ->
        ignore
          (Tree.scan t.tree ~limit:max_int (fun k st ->
               (* Resolve at the cut, keeping the resolved entry's own
                  version — the recovery replay guard compares per-key
                  versions against log records. *)
               let resolved =
                 if Int64.compare st.sversion at <= 0 then Some (st.sversion, st.scontent)
                 else
                   match Mvcc.Chain.find st.schain ~at with
                   | Some e -> Some (e.Mvcc.Chain.version, e.Mvcc.Chain.payload)
                   | None -> None
               in
               match resolved with
               | Some (version, Some c) ->
                   entries :=
                     { Persist.Checkpoint.key = k; version; columns = unpack c }
                     :: !entries
               | Some (_, None) | None -> ())))
  end
  else
    (* Legacy pull-based stream: the scan runs concurrently with normal
       operation; each entry is some committed version of its key (the
       pre-MVCC behavior, kept as the interference baseline for
       [bench ckpt]). *)
    ignore
      (Tree.scan t.tree ~limit:max_int (fun k v ->
           match v.scontent with
           | Some c ->
               entries :=
                 { Persist.Checkpoint.key = k; version = v.sversion; columns = unpack c }
                 :: !entries
           | None -> ()));
  let remaining = ref !entries in
  let lock = Xutil.Spinlock.create () in
  let next () =
    Xutil.Spinlock.with_lock lock (fun () ->
        match !remaining with
        | [] -> None
        | e :: rest ->
            remaining := rest;
            Some e)
  in
  Persist.Checkpoint.write ?vfs ~dir ~writers ~began_us next

let sweep_tombstones t =
  let tombs = ref [] in
  ignore
    (Tree.scan t.tree ~limit:max_int (fun k v ->
         match v.scontent with None -> tombs := k :: !tombs | Some _ -> ()));
  (* [remove_if] re-checks the tombstone state under the border lock, so
     a key concurrently reinstated between the scan and the sweep is
     left alone (this used to be a quiescent-only pass). *)
  List.iter
    (fun k ->
      ignore
        (Tree.remove_if t.tree k (fun st ->
             st.scontent = None && st.schain = None)))
    !tombs

let recover ?vfs ?logs ?layout ?replay_domains ?(keep_tombstones = false) ~log_paths
    ~checkpoint_dirs () =
  let t = create ?logs ?layout () in
  (* Snapshots never survive a restart: checkpoints and logs persist
     single versions only (no chain ever reaches disk — the entry type
     has no chain field), so replay rebuilds bare heads.  A fresh store
     must therefore have an empty horizon; a wire-level snapshot id from
     a previous incarnation reports a typed error at the server layer. *)
  assert (Mvcc.Horizon.active t.snaps = 0);
  match
    Persist.Recovery.recover ?vfs ?replay_domains ~log_paths ~checkpoint_dirs
      ~put:(fun ~key ~version ~columns -> apply_put t ~key ~version ~columns)
      ~remove:(fun ~key ~version -> apply_remove t ~key ~version)
      ()
  with
  | Error e -> Error e
  | Ok stats ->
      if not keep_tombstones then sweep_tombstones t;
      (* Replay installed heads only (no snapshot was open). *)
      assert (mvcc_versions_live t = 0);
      Ok (t, stats)
