open Masstree_core

type value = { version : int64; columns : string array }

type layout = Contiguous | Columnar

(* The two §4.7 value representations, plus the tombstone.  [Flat] is
   one string holding every column — one allocation per value, a
   whole-value copy on every update (block layout below).  [Cols] keeps
   one block per column, so updates share unmodified blocks
   structurally.  Both are immutable and swapped in with a single store,
   so multi-column puts stay atomic.

   [Tomb] is a removed value: during recovery a Remove record must shadow
   older Put records that may arrive later from other logs, so removes
   materialize as versioned tombstones and are swept once replay
   finishes.  Live operation stores tombstones only while snapshots are
   open (a remove must stay resolvable at older snapshot versions); the
   prune pass deletes them once no snapshot can see past them. *)
type content =
  | Flat of string
  | Cols of string array
  | Tomb

(* A [Flat] block: the column count [n] as a varint, one byte giving the
   offset width [w] (1, 2 or 4 bytes, the narrowest that holds the total
   column size), [n] column end offsets of [w] bytes each (little-endian,
   relative to the first column byte), then the column bytes back to
   back.  A 10 x 4-byte value is a 52-byte string: 12 bytes of header. *)

let offset_width total = if total < 0x100 then 1 else if total < 0x10000 then 2 else 4

let rec varint_size n = if n < 0x80 then 1 else 1 + varint_size (n lsr 7)

let flat_count s =
  let rec go p shift acc =
    let b = Char.code (String.unsafe_get s p) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then acc else go (p + 1) (shift + 7) acc
  in
  go 0 0 0

(* End offset [i] from the table at [tbl]. *)
let flat_end s tbl w i =
  match w with
  | 1 -> String.get_uint8 s (tbl + i)
  | 2 -> String.get_uint16_le s (tbl + (2 * i))
  | _ -> Int32.to_int (String.get_int32_le s (tbl + (4 * i))) land 0xFFFF_FFFF

(* Column [i < n] of a block whose offset table sits at [tbl] with
   width [w]; the column bytes start at [tbl + n * w]. *)
let flat_column s ~n ~tbl ~w i =
  let st = if i = 0 then 0 else flat_end s tbl w (i - 1) in
  String.sub s (tbl + (n * w) + st) (flat_end s tbl w i - st)

let pack columns =
  let n = Array.length columns in
  let total = ref 0 in
  for i = 0 to n - 1 do
    total := !total + String.length (Array.unsafe_get columns i)
  done;
  let w = offset_width !total in
  let tbl = varint_size n + 1 in
  let b = Bytes.create (tbl + (n * w) + !total) in
  let rec count p n =
    if n < 0x80 then Bytes.unsafe_set b p (Char.unsafe_chr n)
    else begin
      Bytes.unsafe_set b p (Char.unsafe_chr (n land 0x7f lor 0x80));
      count (p + 1) (n lsr 7)
    end
  in
  count 0 n;
  Bytes.set_uint8 b (tbl - 1) w;
  let pos = ref (tbl + (n * w)) and fin = ref 0 in
  for i = 0 to n - 1 do
    let c = Array.unsafe_get columns i in
    let len = String.length c in
    Bytes.blit_string c 0 b !pos len;
    pos := !pos + len;
    fin := !fin + len;
    match w with
    | 1 -> Bytes.set_uint8 b (tbl + i) !fin
    | 2 -> Bytes.set_uint16_le b (tbl + (2 * i)) !fin
    | _ -> Bytes.set_int32_le b (tbl + (4 * i)) (Int32.of_int !fin)
  done;
  Flat (Bytes.unsafe_to_string b)

let unpack = function
  | Cols a -> a
  | Tomb -> [||]
  | Flat s ->
      let n = flat_count s in
      let tbl = varint_size n + 1 in
      let w = String.get_uint8 s (tbl - 1) in
      let out = Array.make n "" in
      for i = 0 to n - 1 do
        Array.unsafe_set out i (flat_column s ~n ~tbl ~w i)
      done;
      out

(* The [requested] columns of a stored value, in request order, read
   straight from its representation: a projection of a [Flat] value
   copies out only the requested bytes, never the whole value.  An index
   outside the value reads as [""]. *)
let rec project_cols out j a = function
  | [] -> ()
  | i :: rest ->
      if i >= 0 && i < Array.length a then out.(j) <- a.(i);
      project_cols out (j + 1) a rest

let rec project_flat out j s ~n ~tbl ~w = function
  | [] -> ()
  | i :: rest ->
      if i >= 0 && i < n then out.(j) <- flat_column s ~n ~tbl ~w i;
      project_flat out (j + 1) s ~n ~tbl ~w rest

let project_content content requested =
  let out = Array.make (List.length requested) "" in
  (match content with
  | Tomb -> ()
  | Cols a -> project_cols out 0 a requested
  | Flat s ->
      let n = flat_count s in
      let tbl = varint_size n + 1 in
      project_flat out 0 s ~n ~tbl ~w:(String.get_uint8 s (tbl - 1)) requested);
  out

let project columns requested = project_content (Cols columns) requested

let columns_of content = function
  | None -> unpack content
  | Some requested -> project_content content requested

let content_of layout columns =
  match layout with Contiguous -> pack columns | Columnar -> Cols (Array.copy columns)

(* [sversion] is the write's store version, an immediate int (the clock
   is an [int Atomic.t]; the int64 API converts at the edge).

   [schain] is the MVCC version chain (docs/MVCC.md): payloads this head
   retired that some open snapshot may still read, newest first.  The
   chain travels with the head — one atomic tree store publishes both —
   and is empty whenever no snapshot was open at overwrite time. *)
type stored = {
  sversion : int;
  scontent : content;
  schain : content Mvcc.Chain.t;
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

let next_version t = Atomic.fetch_and_add t.clock 1

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
           { key; version = Int64.of_int version; timestamp = Xutil.Clock.wall_us (); columns })

let log_remove t ~worker ~key ~version =
  match logger_for t worker with
  | None -> ()
  | Some l ->
      Persist.Logger.append l
        (Persist.Logrec.Remove
           { key; version = Int64.of_int version; timestamp = Xutil.Clock.wall_us () })

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

(* A chain this long is pruned on the spot, under the border lock of the
   write that grew it: with one old snapshot open, all but one entry per
   key are already dead, so rapid overwrites under a long-lived snapshot
   (a checkpoint's cut) never build chains longer than this. *)
let chain_prune_trigger = 4

(* Under the border lock: the chain for a new head, at [version], that
   retires [old].  [chained] is the writer's post-mint read of the
   horizon — when no snapshot was open, the retired payload is dead to
   everyone (any later open pins a version >= this write's), so the
   chain collapses to empty and the old entries die with it.  A pushed
   chain that reaches [chain_prune_trigger] is truncated to what the
   open snapshots can read, with the horizon read here under the lock —
   the same read [prune_pass] relies on (see there).  The caller applies
   [delta] to the live-version count after the tree store completes and
   keeps the key pending while [len], the installed chain's length, is
   non-zero. *)
let retired_chain t ~version ~chained ~delta ~len old =
  match old with
  | None -> Mvcc.Chain.empty
  | Some o ->
      if chained then begin
        let epoch = Epoch.global_epoch (Tree.epoch_manager t.tree) in
        let c =
          Mvcc.Chain.push o.schain ~version:(Int64.of_int o.sversion) ~epoch o.scontent
        in
        let c =
          if Mvcc.Chain.length c < chain_prune_trigger then c
          else
            Mvcc.Chain.prune c ~death_of_head:(Int64.of_int version)
              ~snapshots:(Mvcc.Horizon.versions t.snaps)
        in
        len := Mvcc.Chain.length c;
        delta := !len - Mvcc.Chain.length o.schain;
        c
      end
      else begin
        delta := -Mvcc.Chain.length o.schain;
        Mvcc.Chain.empty
      end

let apply_version_delta t delta =
  if delta <> 0 then ignore (Atomic.fetch_and_add t.versions_live delta)

let is_dead_tombstone st =
  match st with { scontent = Tomb; schain = None; _ } -> true | _ -> false

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
                   Mvcc.Chain.prune st.schain
                     ~death_of_head:(Int64.of_int st.sversion) ~snapshots
                 in
                 delta := Mvcc.Chain.length chain - Mvcc.Chain.length st.schain;
                 if chain != Mvcc.Chain.empty then survived := true;
                 if !delta = 0 then st else { st with schain = chain }));
      apply_version_delta t !delta;
      (* A tombstone whose chain is gone is invisible to every snapshot
         (new opens pin versions past it; see docs/MVCC.md) — delete it.
         [remove_if] re-checks under the lock, so a concurrent reinsert
         is never clobbered. *)
      match Tree.remove_if t.tree key is_dead_tombstone with
      | Some _ -> ()
      | None -> if !survived then survivors := key :: !survivors)
    keys;
  match !survivors with
  | [] -> ()
  | ks ->
      Xutil.Spinlock.with_lock t.pending_lock (fun () ->
          List.iter (fun k -> Hashtbl.replace t.pending k ()) ks)

let schedule_prune t =
  if not (Atomic.exchange t.prune_scheduled true) then
    Epoch.schedule (Tree.epoch_manager t.tree) (fun () -> prune_pass t)

(* After a chained install: account the new entry, sample the chain
   length, and keep the key pending while its chain is non-empty so a
   snapshot close (or the periodic {!prune}) reclaims what is left — all
   outside the border lock. *)
let note_chained t key ~delta ~len =
  apply_version_delta t delta;
  if len > 0 then begin
    Obs.Registry.observe obs_chain_len len;
    note_pending t key;
    Schedpoint.hit sp_chain_installed
  end

(* ---- reads ---- *)

let get_value t key =
  match Tree.get t.tree key with
  | Some { scontent = Tomb; _ } | None -> None
  | Some { sversion; scontent; _ } ->
      Some { version = Int64.of_int sversion; columns = unpack scontent }

let get t key =
  match Tree.get t.tree key with
  | Some { scontent = Tomb; _ } | None -> None
  | Some { scontent; _ } -> Some (unpack scontent)

let multi_get t keys =
  Array.map
    (function
      | Some { scontent = Tomb; _ } | None -> None
      | Some { scontent; _ } -> Some (unpack scontent))
    (Tree.multi_get t.tree keys)

let get_columns t key cols =
  match Tree.get t.tree key with
  | Some { scontent = Tomb; _ } | None -> None
  | Some { scontent; _ } -> Some (project_content scontent cols)

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
         | Some existing when existing.sversion >= version -> existing
         | _ ->
             applied := true;
             {
               sversion = version;
               scontent = content_of t.vlayout columns;
               schain = retired_chain t ~version ~chained ~delta ~len old;
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
         | Some existing when existing.sversion >= version -> existing
         | _ ->
         applied := true;
         let base = match old with Some { scontent; _ } -> unpack scontent | None -> [||] in
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
           scontent = content_of t.vlayout merged;
           schain = retired_chain t ~version ~chained ~delta ~len old;
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
    | Some { scontent = Tomb; schain; _ } ->
        apply_version_delta t (-Mvcc.Chain.length schain);
        false
    | Some { schain; _ } ->
        apply_version_delta t (-Mvcc.Chain.length schain);
        log_remove t ~worker ~key ~version;
        true
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
           if old.sversion >= version then
             (* A concurrent writer already published a newer head: this
                remove serializes before it and its effect is gone (see
                the version-inversion note above [put]).  Tombstoning
                with the smaller version would invert the chain. *)
             old
           else
             match old.scontent with
             | Tomb -> old (* already a tombstone; nothing to remove *)
             | Flat _ | Cols _ ->
                 removed := true;
                 {
                   sversion = version;
                   scontent = Tomb;
                   schain = retired_chain t ~version ~chained:true ~delta ~len (Some old);
                 }));
    if !removed then begin
      note_chained t key ~delta:!delta ~len:!len;
      (* The tombstone itself needs pruning once snapshots drain, even
         if its chain was pruned empty. *)
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
              | Tomb -> ()
              | content ->
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
              | Tomb -> ()
              | content ->
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
         match v.scontent with Tomb -> () | Flat _ | Cols _ -> incr n));
  !n

(* ---- snapshots ---- *)

(* The content of [st] visible at version [at]: the head's if it is old
   enough, else the newest chain entry at or below [at]; [Tomb] (absent)
   when there is no version that old (born later, or pruned — the
   opener's ordering makes the latter unreachable for open snapshots). *)
let resolve_at st ~at =
  if st.sversion <= at then st.scontent
  else
    match Mvcc.Chain.find st.schain ~at:(Int64.of_int at) with
    | Some e -> e.Mvcc.Chain.payload
    | None -> Tomb

(* The write version of the entry [resolve_at] picks. *)
let resolved_version st ~at =
  if st.sversion <= at then st.sversion
  else
    match Mvcc.Chain.find st.schain ~at:(Int64.of_int at) with
    | Some e -> Int64.to_int e.Mvcc.Chain.version
    | None -> st.sversion

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
    let at = Int64.to_int (version s) in
    Schedpoint.hit sp_snap_read;
    match Tree.get s.sstore.tree key with
    | None -> None
    | Some st -> ( match resolve_at st ~at with Tomb -> None | c -> Some c)

  let read s key = Option.map unpack (read_content s key)

  let read_columns s key cols = Option.map (fun c -> project_content c cols) (read_content s key)

  let getrange s ~start ?columns ~limit f =
    check_open s;
    if limit <= 0 then 0
    else begin
      let at = Int64.to_int (version s) in
      let emitted = ref 0 in
      let exception Done in
      (try
         ignore
           (Tree.scan s.sstore.tree ~start ~limit:max_int (fun k st ->
                Schedpoint.hit sp_snap_read;
                match resolve_at st ~at with
                | Tomb -> ()
                | content ->
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
      let at = Int64.to_int (version s) in
      let emitted = ref 0 in
      let exception Done in
      (try
         ignore
           (Tree.scan s.sstore.tree ~start ~limit:max_int (fun k st ->
                Schedpoint.hit sp_snap_read;
                match resolve_at st ~at with
                | Tomb -> ()
                | content ->
                    f k (Int64.of_int (resolved_version st ~at)) (unpack content);
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
  let version = Int64.to_int version in
  let chained = Mvcc.Horizon.active t.snaps > 0 in
  let delta = ref 0 and len = ref 0 in
  ignore
    (Tree.put_with t.tree key (fun old ->
         delta := 0;
         len := 0;
         match old with
         | Some existing when existing.sversion >= version -> existing
         | _ ->
             {
               sversion = version;
               scontent = content_of t.vlayout columns;
               schain = retired_chain t ~version ~chained ~delta ~len old;
             }));
  note_chained t key ~delta:!delta ~len:!len

let apply_remove t ~key ~version =
  bump_clock t version;
  let version = Int64.to_int version in
  let chained = Mvcc.Horizon.active t.snaps > 0 in
  let delta = ref 0 and len = ref 0 in
  ignore
    (Tree.put_with t.tree key (fun old ->
         delta := 0;
         len := 0;
         match old with
         | Some existing when existing.sversion >= version -> existing
         | _ ->
             {
               sversion = version;
               scontent = Tomb;
               schain = retired_chain t ~version ~chained ~delta ~len old;
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
  log_put t ~worker ~key ~version:(Int64.to_int version) ~columns

let migrate_remove ?worker t ~key ~version =
  let worker = match worker with Some w -> w | None -> default_worker () in
  apply_remove t ~key ~version;
  log_remove t ~worker ~key ~version:(Int64.to_int version)

let iter_entries t f =
  ignore
    (Tree.scan t.tree ~limit:max_int (fun k v ->
         f ~key:k ~version:(Int64.of_int v.sversion)
           ~columns:(match v.scontent with Tomb -> None | c -> Some (unpack c))))

(* ---- checkpoint / recovery ---- *)

(* Resolved entries the checkpoint cursor holds at a time. *)
let ckpt_chunk = 256

let checkpoint ?vfs t ~dir ~writers =
  let began_us = Xutil.Clock.wall_us () in
  (* Walk a pinned snapshot: one consistent cut, no races with
     foreground puts (they chain retired values instead of fighting
     the scan), and only heads visible at the cut are emitted —
     chains are never persisted ({!Persist.Checkpoint.entry} has no
     chain field; recovery replays single versions).  The part writers
     pull from a cursor that resolves [ckpt_chunk] entries per refill,
     resuming its scan after the last key it emitted, so the dump holds
     one chunk of unpacked values rather than the whole tree.  The
     writers are systhreads: a [Mutex], not a spinlock, guards the
     refill, since a refill holds the lock across a scan. *)
  let s = Snapshot.open_ t in
  let at = Int64.to_int (Snapshot.version s) in
  let chunk = ref [] and last = ref None and exhausted = ref false in
  let refill () =
    let acc = ref [] and n = ref 0 in
    let exception Full in
    (try
       ignore
         (Tree.scan t.tree ?start:!last ~limit:max_int (fun k st ->
              if not (match !last with Some l -> String.equal k l | None -> false) then
                (* Resolve at the cut, keeping the resolved entry's own
                   version — the recovery replay guard compares per-key
                   versions against log records. *)
                match resolve_at st ~at with
                | Tomb -> ()
                | c ->
                    let version = Int64.of_int (resolved_version st ~at) in
                    acc := { Persist.Checkpoint.key = k; version; columns = unpack c } :: !acc;
                    incr n;
                    if !n >= ckpt_chunk then raise Full));
       (* Every entry of the cut is resolved: release the snapshot now
          rather than after the parts are written and synced, so
          foreground puts stop chaining versions as soon as the scan
          ends. *)
       exhausted := true;
       Snapshot.close s
     with Full -> ());
    (match !acc with e :: _ -> last := Some e.Persist.Checkpoint.key | [] -> ());
    chunk := List.rev !acc
  in
  let rec pull () =
    match !chunk with
    | e :: rest ->
        chunk := rest;
        Some e
    | [] when !exhausted -> None
    | [] ->
        refill ();
        pull ()
  in
  let lock = Mutex.create () in
  Fun.protect
    ~finally:(fun () -> Snapshot.close s)
    (fun () ->
      Persist.Checkpoint.write ?vfs ~dir ~writers ~began_us (fun () ->
          Mutex.protect lock pull))

(* Crash windows of the reclaim below: each superseded file about to be
   unlinked. *)
let fp_reclaim_unlink = Faultsim.Failpoint.define "ckpt.reclaim.unlink"
let fp_reclaim_rm_ckpt = Faultsim.Failpoint.define "ckpt.reclaim.rm_ckpt"

let reclaim_dir ?(vfs = Faultsim.Vfs.real) ~keep dir =
  let remove p = try vfs.Faultsim.Vfs.remove p with Sys_error _ | Unix.Unix_error _ -> () in
  let files = vfs.Faultsim.Vfs.readdir dir in
  Array.sort String.compare files;
  Array.iter
    (fun f ->
      let p = Filename.concat dir f in
      if List.exists (String.equal p) keep then ()
      else if String.starts_with ~prefix:"log-" f then begin
        Faultsim.Failpoint.hit fp_reclaim_unlink;
        remove p
      end
      else if String.starts_with ~prefix:"ckpt-" f then begin
        Faultsim.Failpoint.hit fp_reclaim_rm_ckpt;
        let parts = try vfs.Faultsim.Vfs.readdir p with Sys_error _ | Unix.Unix_error _ -> [||] in
        Array.iter (fun x -> remove (Filename.concat p x)) parts;
        remove p
      end)
    files

(* §5's order.  A put installs its value before it appends its log
   record, so once every logger has rotated, each record in a superseded
   log belongs to a write already installed — and minted — before the
   cut that follows: the checkpoint covers it.  Records in the fresh
   logs stamped before the checkpoint's [began] were likewise installed
   before the cut; those stamped after it are replayed on top.  (Cutting
   first and rotating after loses every put acknowledged in between: its
   record sits in a log the reclaim deletes.)  The marks after the
   manifest push every fresh log's durable timestamp past the
   checkpoint's completion, so a crash midway through the deletions
   still makes recovery pick this checkpoint. *)
let checkpoint_reclaim ?(vfs = Faultsim.Vfs.real) t ~dir ~writers =
  let tag = Int64.to_string (Xutil.Clock.wall_us ()) in
  Array.iteri
    (fun j l ->
      Persist.Logger.rotate l (Filename.concat dir (Printf.sprintf "log-%s-%d" tag j)))
    t.logs;
  let ckpt = Filename.concat dir ("ckpt-" ^ tag) in
  match checkpoint ~vfs t ~dir:ckpt ~writers with
  | Error e -> Error e
  | Ok manifest ->
      Array.iter Persist.Logger.mark t.logs;
      reclaim_dir ~vfs ~keep:(ckpt :: Array.to_list (Array.map Persist.Logger.path t.logs)) dir;
      Ok manifest

let sweep_tombstones t =
  let tombs = ref [] in
  ignore
    (Tree.scan t.tree ~limit:max_int (fun k v ->
         match v.scontent with Tomb -> tombs := k :: !tombs | Flat _ | Cols _ -> ()));
  (* [remove_if] re-checks the tombstone state under the border lock, so
     a key concurrently reinstated between the scan and the sweep is
     left alone (this used to be a quiescent-only pass). *)
  List.iter
    (fun k ->
      ignore (Tree.remove_if t.tree k is_dead_tombstone))
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
