open Node

exception Restart
(* Raised when an operation encounters a deleted node or a collapsed layer
   and must restart from the layer-0 root (§4.6.5: "any operation that
   encounters a deleted node retries from the root"). *)

(* Schedule points for lib/schedsim (no-ops in production); each pins one
   step of the §4.6 protocols.  docs/CONCURRENCY.md maps them to the
   paper's argument. *)
let sp_descend_validate = Schedpoint.define "tree.descend.validate"

(* Spin kind: a retry from the layer-0 root only succeeds once the
   conflicting writer (split, delete, collapse) has moved on, so the
   deterministic scheduler must deschedule the retrying thread rather
   than treat the loop as ordinary progress. *)
let sp_restart_spin = Schedpoint.define "tree.restart.spin"
let sp_get_read = Schedpoint.define "tree.get.read"
let sp_get_advance = Schedpoint.define "tree.get.advance"
let sp_snapshot_read = Schedpoint.define "tree.snapshot.read"

(* Pipelined group-get (docs/BATCHING.md): one point per pipeline round,
   one at each in-pipeline trie-layer descent, and one at each
   in-pipeline from-the-root restart — the three control transfers the
   software pipeline adds over the plain read protocol (whose
   tree.get.read / tree.get.advance / tree.descend.validate windows the
   pipeline also hits, per flight). *)
let sp_pipeline_round = Schedpoint.define "tree.pipeline.round"
let sp_pipeline_layer = Schedpoint.define "tree.pipeline.layer"
let sp_pipeline_restart = Schedpoint.define "tree.pipeline.restart"
let sp_put_slot_written = Schedpoint.define "tree.put.slot_written"
let sp_put_published = Schedpoint.define "tree.put.published"
let sp_put_replaced = Schedpoint.define "tree.put.replaced"
let sp_layer_published = Schedpoint.define "tree.layer.published"
let sp_split_begin = Schedpoint.define "tree.split.begin"
let sp_split_migrated = Schedpoint.define "tree.split.migrated"
let sp_split_linked = Schedpoint.define "tree.split.linked"
let sp_split_ascend = Schedpoint.define "tree.split.ascend"
let sp_split_root = Schedpoint.define "tree.split.root_grown"
let sp_remove_cut = Schedpoint.define "tree.remove.cut"
let sp_remove_empty = Schedpoint.define "tree.remove.node_empty"
let sp_remove_unlinked = Schedpoint.define "tree.remove.unlinked"
let sp_remove_unlink_spin = Schedpoint.define "tree.remove.unlink_spin"
let sp_collapse_begin = Schedpoint.define "tree.collapse.begin"
let sp_collapse_done = Schedpoint.define "tree.collapse.done"
let sp_merge_begin = Schedpoint.define "tree.merge.begin"
let sp_merge_migrated = Schedpoint.define "tree.merge.migrated"
let sp_merge_done = Schedpoint.define "tree.merge.done"

(* Delete-side leaf coalescing: when a remove leaves a border at or below
   this many entries, try to absorb the right sibling (same parent only)
   under the split lock/version protocol.  The combined cap leaves slack
   so a merge is not immediately re-split. *)
let merge_threshold = 4
let merge_max = width - 2

type 'v t = {
  root : 'v node ref; (* layer-0 root hint; refreshed lazily after splits *)
  pool : Pool.t; (* off-heap arena for border payloads *)
  tstats : Stats.t;
  emgr : Epoch.manager;
  handle_key : 'v handle_state Domain.DLS.key;
}

and 'v handle_state = { eh : Epoch.handle; mutable ops_since_tick : int }

let create () =
  let emgr = Epoch.manager () in
  let pool = Pool.create () in
  {
    root = ref (Border (new_border ~pool ~isroot:true ~locked:false ~lowhi:0 ~lowlo:0));
    pool;
    tstats = Stats.create ();
    emgr;
    handle_key =
      Domain.DLS.new_key (fun () -> { eh = Epoch.register emgr; ops_since_tick = 0 });
  }

let stats t = t.tstats
let epoch_manager t = t.emgr
let root_ref t = t.root
let pool t = t.pool

let handle t = Domain.DLS.get t.handle_key

(* Tick the reclamation machinery once in a while, after an operation has
   left its critical section. *)
let finish_op h =
  h.ops_since_tick <- h.ops_since_tick + 1;
  if h.ops_since_tick >= 64 then begin
    h.ops_since_tick <- 0;
    Epoch.tick h.eh
  end

(* Wrap an operation in an epoch critical section.  Batched and scan
   entry points use this closure-taking form (the closure is amortized
   over the batch); the point operations below inline [Epoch.enter] /
   [Epoch.leave] instead so their per-op cost stays allocation-free. *)
let pinned t f =
  let h = handle t in
  let r = Epoch.pin h.eh f in
  finish_op h;
  r

let maintain t = Epoch.quiesce t.emgr

(* ------------------------------------------------------------------ *)
(* Descent (Figure 6)                                                  *)
(* ------------------------------------------------------------------ *)

(* Climb from a possibly stale root hint to the actual root of a layer's
   B+-tree and return it with a stable version.  Parent pointers survive on
   deleted nodes, so the climb terminates at a node with the isroot bit. *)
(* The descent helpers below are top-level and fully applied at every call
   site: the compiler emits direct calls, so a lookup allocates no closure
   environments — the point of the pooled layout is lost if every probe
   rebuilds a capture of (t, key, hi, lo) on the minor heap. *)

let rec stable_climb root_ref n fuel =
  let v = Version.stable (version_of n) in
  if Version.is_root v then n
  else
    match parent_of n with
    | Some p -> stable_climb root_ref (Interior p) fuel
    | None ->
        (* Transient: the node lost isroot but its new parent is not yet
           visible, or the hint points at a detached node.  Re-read the
           hint; give up to the caller's retry logic if this persists. *)
        if fuel = 0 then raise Restart else stable_climb root_ref !root_ref (fuel - 1)

(* The descent's baseline version must be the same read that confirmed the
   isroot bit: re-reading after the climb opens a window where the node
   splits, the baseline silently becomes the post-split version, and
   hand-over-hand validation can no longer see that responsibility moved
   right (schedsim: split-vs-get catches exactly this).  So every caller
   re-checks isroot on the version it will descend with, and re-climbs if
   the bit was lost in between. *)
let rec stable_root root_ref =
  let n = stable_climb root_ref !root_ref 16 in
  let v = Version.stable (version_of n) in
  if Version.is_root v then (n, v) else stable_root root_ref

(* Interior routing: child index = #keys <= (hi, lo), by linear search as
   in the paper.  Slices compare as immediate int pairs. *)
let rec child_scan i nk j ~hi ~lo =
  if j < nk && Key.compare_parts (ikey_hi i j) (ikey_lo i j) hi lo <= 0 then
    child_scan i nk (j + 1) ~hi ~lo
  else j

let child_index i ~hi ~lo = child_scan i (Int.min i.inkeys width) 0 ~hi ~lo

(* Hand-over-hand validation at [n] failed (its version moved from [v]).
   If [n] split or was deleted, responsibility for the key may have moved
   to a sibling only the layer root still reaches: count a root retry and
   return -1.  Otherwise count a local retry and return the fresh stable
   version to re-descend from [n] under.  Versions occupy bits 0..53, so
   -1 is never one; the immediate result keeps every caller allocation-
   free. *)
let revalidate t n v =
  let v' = Version.stable (version_of n) in
  if Version.vsplit v' <> Version.vsplit v || Version.deleted v' then begin
    Stats.incr t.tstats Stats.Root_retries;
    -1
  end
  else begin
    Stats.incr t.tstats Stats.Local_retries;
    v'
  end

(* A reader's border [b] may have split while it looked: responsibility
   for (hi, lo) only ever moves right, so return the right sibling whose
   lowkey covers it, or [b] itself when none does.  One hop per call. *)
let chase_right b ~hi ~lo =
  match b.bnext with
  | Some nx when Key.compare_parts hi lo nx.blowhi nx.blowlo >= 0 ->
      Schedpoint.hit sp_get_advance;
      nx
  | _ -> b

(* The one descent (Figure 6): every point operation, scans and layer
   collapse reach their border through it.

   Climb only — never write the climb result back into the hint.  The
   hint is refreshed by the thread that grows the root (ascend) or
   swaps a layer root (collapse), under the relevant locks; a reader
   writing here races with them and can clobber a fresh root with
   the stale pre-split node it happened to start its climb from
   (schedsim: split-vs-get).  A stale hint only costs the next
   descent one extra parent hop. *)
let rec fb_from_root t root_ref ~hi ~lo =
  let n0 = stable_climb root_ref !root_ref 16 in
  let v0 = Version.stable (version_of n0) in
  if Version.is_root v0 then fb_descend t root_ref ~hi ~lo n0 v0
  else fb_from_root t root_ref ~hi ~lo

and fb_descend t root_ref ~hi ~lo n v =
  match n with
  | Border b -> (b, v)
  | Interior i -> (
      match i.ichild.(child_index i ~hi ~lo) with
      | None ->
          (* Torn read during a concurrent shape change; revalidate. *)
          fb_revalidate t root_ref ~hi ~lo n v
      | Some n' ->
          let v' = Version.stable (version_of n') in
          (* Hand-over-hand: the child's version is read, the parent's
             about to be revalidated. *)
          Schedpoint.hit sp_descend_validate;
          if not (Version.changed v (Atomic.get (version_of n))) then
            fb_descend t root_ref ~hi ~lo n' v'
          else fb_revalidate t root_ref ~hi ~lo n v)

and fb_revalidate t root_ref ~hi ~lo n v =
  let v' = revalidate t n v in
  if v' < 0 then fb_from_root t root_ref ~hi ~lo else fb_descend t root_ref ~hi ~lo n v'

let find_border t root_ref ~hi ~lo = fb_from_root t root_ref ~hi ~lo

(* ------------------------------------------------------------------ *)
(* Border-node search                                                  *)
(* ------------------------------------------------------------------ *)

(* Position of the entry matching (hi, lo, klen) among the live keys,
   where [klen] is already clamped to the suffix marker.  Runs locklessly
   for readers (validated afterwards) and under the lock for writers.
   The comparisons read straight from the pool cell: contiguous tagged
   words, no boxed int64 per probe. *)
(* The result packs (position, slot) into one immediate int —
   [(pos lsl 4) lor slot], both < width = 14 — and returns -1 for "not
   present", so the lockless read path extracts a hit without boxing an
   option or a pair. *)
let rec search_scan b perm n i ~hi ~lo ~klen =
  if i >= n then -1
  else begin
    let slot = Permutation.get perm i in
    let c = entry_cmp_at b slot ~kshi:hi ~kslo:lo ~klen in
    if c < 0 then search_scan b perm n (i + 1) ~hi ~lo ~klen
    else if c > 0 then -1
    else (i lsl 4) lor slot
  end

let search_hit b perm ~hi ~lo ~klen =
  search_scan b perm (Permutation.size perm) 0 ~hi ~lo ~klen

(* First position whose entry sorts at or after (hi, lo, klen): the
   insertion point when the key is absent. *)
let rec insertion_scan b perm n i ~hi ~lo ~klen =
  if i >= n then i
  else begin
    let slot = Permutation.get perm i in
    if entry_cmp_at b slot ~kshi:hi ~kslo:lo ~klen < 0 then
      insertion_scan b perm n (i + 1) ~hi ~lo ~klen
    else i
  end

let insertion_pos b perm ~hi ~lo ~klen =
  insertion_scan b perm (Permutation.size perm) 0 ~hi ~lo ~klen

(* ------------------------------------------------------------------ *)
(* get (Figure 7)                                                      *)
(* ------------------------------------------------------------------ *)

(* The whole lookup is a chain of fully-applied top-level calls: no
   closures, no option intermediates, only the descent's (border,
   version) pair and the final [Some v]. *)
let rec get_layer t root_ref key off =
  let hi = Key.slice_hi key ~off and lo = Key.slice_lo key ~off in
  let rem = String.length key - off in
  let klen = Int.min rem suffix_len_marker in
  let b, v = find_border t root_ref ~hi ~lo in
  get_forward t key off hi lo rem klen b v

and get_forward t key off hi lo rem klen b v =
  if Version.deleted v then raise Restart;
  let hit = search_hit b (border_perm b) ~hi ~lo ~klen in
  (* Extract the slot's contents while the version snapshot is live.  The
     suffix comparison reads pool bytes in place, so it too must happen
     before validation: a reused slot's bytes are rejected by the version
     check, never trusted. *)
  let lv = if hit < 0 then Empty else b.blv.(hit land 0xF) in
  let suffix_ok =
    match lv with
    | Value _ -> rem <= 8 || suffix_matches b (hit land 0xF) key ~pos:(off + 8)
    | Layer _ | Empty -> false
  in
  (* The §4.5 reader window: contents extracted, version not yet
     revalidated. *)
  Schedpoint.hit sp_get_read;
  (* Validate the snapshot before trusting the extraction. *)
  if Version.changed v (Atomic.get b.bversion) then begin
    Stats.incr t.tstats Stats.Local_retries;
    get_walk t key off hi lo rem klen b (Version.stable b.bversion)
  end
  else
    match lv with
    | Empty -> None
    | Value value -> if suffix_ok then Some value else None
    | Layer r -> if rem > 8 then get_layer t r key (off + 8) else None

and get_walk t key off hi lo rem klen b v =
  if Version.deleted v then raise Restart;
  let nx = chase_right b ~hi ~lo in
  if nx != b then get_walk t key off hi lo rem klen nx (Version.stable nx.bversion)
  else get_forward t key off hi lo rem klen b v

let rec get_attempt t key =
  try get_layer t t.root key 0
  with Restart ->
    Stats.incr t.tstats Stats.Root_retries;
    Schedpoint.spin sp_restart_spin;
    get_attempt t key

let get t key =
  Stats.incr t.tstats Stats.Gets;
  let h = handle t in
  Epoch.enter h.eh;
  match get_attempt t key with
  | r ->
      Epoch.leave h.eh;
      finish_op h;
      r
  | exception e ->
      Epoch.leave h.eh;
      raise e

let mem t key = Option.is_some (get t key)

(* ------------------------------------------------------------------ *)
(* Software-pipelined group get (§4.8, docs/BATCHING.md)               *)
(* ------------------------------------------------------------------ *)

(* The batched form of the descent and border read above.  This state
   machine keeps every lookup inside the pipeline across layer hops,
   split chases and from-the-root restarts, using the same [revalidate]
   and [chase_right] steps as the sequential path.  Each live
   lookup advances exactly one node per round: its next node is computed
   and *staged* one full round before it is read for real, so the cache
   misses of up to N staged nodes land in adjacent, independent step
   calls and overlap in the memory system instead of serializing (see
   the note below on why the staging round — not an explicit prefetch
   load — is what buys the overlap in OCaml).  lib/memsim models the
   resulting stall collapse and `bench mlp` measures it. *)

type 'v pstage =
  | P_root  (* resolve the current layer's root *)
  | P_advance  (* position validated; compute and prefetch the next node *)
  | P_child of 'v node  (* prefetched; validate hand-over-hand, then move *)
  | P_border of 'v border  (* prefetched border: search, then act *)
  | P_suffix of 'v border  (* slot found, suffix blob prefetched: confirm *)

type 'v pflight = {
  qkey : Key.t;
  mutable qoff : int; (* current layer's byte offset into qkey *)
  mutable qhi : int;
  mutable qlo : int;
  mutable qrem : int;
  mutable qklen : int;
  mutable qroot : 'v node ref; (* current layer's root (restart target) *)
  mutable qnode : 'v node; (* last validated position *)
  mutable qver : Version.t; (* its stable version *)
  mutable qstage : 'v pstage;
  mutable qhit : int; (* search result carried into P_suffix *)
  mutable qlv : 'v link_or_value; (* extraction carried into P_suffix *)
  mutable qfuel : int; (* restarts allowed before sequential fallback *)
  mutable qdone : bool;
  mutable qresult : [ `Pending | `Fallback | `Value of 'v | `Notfound ];
}

(* How the "prefetch issue" works without a prefetch instruction.
   Masstree's C implementation issues non-binding [prefetcht0]s for the
   next node's lines at each descent step (§4.4); OCaml has no such
   intrinsic, and measurement on this port shows the obvious substitute
   — an early demand load whose result is ignored — is actively harmful:
   the dead load still occupies the ROB until its line arrives, in-order
   retirement stalls behind it, and the speculation window that would
   have executed the *other* flights' steps shrinks to nothing (version-
   word-only touches cost ~15% batch throughput at 2M keys; full-node
   coverage cost ~20%).  What does deliver the overlap is the stage
   boundary itself: a flight computes its next node in one round and
   touches it only in the next, so the demand misses of up to N staged
   nodes sit in adjacent, independent step calls that out-of-order
   speculation walks right past.  The one explicit early load we keep is
   the suffix blob touch below — a single line that the *same* flight
   dereferences next round, so the load is real work issued early, not a
   dead read. *)

(* Touch a slot's suffix blob (header + leading bytes) ahead of the
   suffix comparison.  Race-safe like every pool read: a stale handle
   pulls bounded garbage that version validation will discard. *)
let prefetch_suffix b slot =
  let h = suffix_handle b slot in
  if h <> 0 then ignore (Sys.opaque_identity (Pool.blob_len b.bpool h))

(* Point [f] at the root of the trie layer that starts at byte [off] of
   its key. *)
let enter_layer f ~off root =
  f.qoff <- off;
  f.qhi <- Key.slice_hi f.qkey ~off;
  f.qlo <- Key.slice_lo f.qkey ~off;
  f.qrem <- String.length f.qkey - off;
  f.qklen <- Int.min f.qrem suffix_len_marker;
  f.qroot <- root;
  f.qstage <- P_root

let multi_get t keys =
  (* Count one get per key, matching the plain path, so obs throughput
     agrees between batched and unbatched front ends. *)
  Stats.add t.tstats Stats.Gets (Array.length keys);
  pinned t (fun () ->
      let flights =
        Array.map
          (fun key ->
            let f =
              { qkey = key; qoff = 0; qhi = 0; qlo = 0; qrem = 0; qklen = 0;
                qroot = t.root; qnode = !(t.root); qver = 0; qstage = P_root;
                qhit = -1; qlv = Empty; qfuel = 16; qdone = false;
                qresult = `Pending }
            in
            enter_layer f ~off:0 t.root;
            f)
          keys
      in
      let remaining = ref (Array.length flights) in
      let finish f r =
        if not f.qdone then begin
          f.qdone <- true;
          f.qresult <- r;
          decr remaining
        end
      in
      (* Re-enter the pipeline at a layer root.  Bounded by per-flight
         fuel, after which the flight is handed to the sequential path
         (whose [tree.restart.spin] loop guarantees progress). *)
      let restart f ~off root =
        Stats.incr t.tstats Stats.Pipeline_restarts;
        Schedpoint.hit sp_pipeline_restart;
        f.qfuel <- f.qfuel - 1;
        if f.qfuel <= 0 then finish f `Fallback else enter_layer f ~off root
      in
      (* From the layer-0 root: the pipelined equivalent of raising
         [Restart] into [get_attempt]. *)
      let restart0 f =
        Stats.incr t.tstats Stats.Root_retries;
        restart f ~off:0 t.root
      in
      (* Hand-over-hand validation at [f.qnode] failed: re-enter from the
         current layer's root when [revalidate] says a split moved
         responsibility somewhere only the root still reaches (it has
         counted the root retry), else re-stage from the same node under
         its fresh version. *)
      let revalidate_flight f =
        let v' = revalidate t f.qnode f.qver in
        if v' < 0 then restart f ~off:f.qoff f.qroot
        else begin
          f.qver <- v';
          f.qstage <- P_advance
        end
      in
      (* From a just-validated position, compute and stage the next node;
         it is read for real one round later, so its cache misses overlap
         with every other flight's step in between. *)
      let stage_from f =
        match f.qnode with
        | Border b -> f.qstage <- P_border b
        | Interior i -> (
            match i.ichild.(child_index i ~hi:f.qhi ~lo:f.qlo) with
            | None ->
                (* Torn read during a concurrent shape change. *)
                revalidate_flight f
            | Some n' -> f.qstage <- P_child n')
      in
      (* One [chase_right] hop per round (get_walk in-pipeline), else
         [k]. *)
      let chase_or f b k =
        let nx = chase_right b ~hi:f.qhi ~lo:f.qlo in
        if nx != b then begin
          f.qnode <- Border nx;
          f.qstage <- P_border nx
        end
        else k ()
      in
      (* Common tail of a border read: validate the version snapshot the
         extraction happened under (the §4.5 reader window, same shape as
         get_forward — from [P_suffix] the window spans a whole extra
         round, which only raises the retry rate, never trusts a torn
         read), then act on the extraction. *)
      let conclude_border f b v lv ~suffix_ok =
        Schedpoint.hit sp_get_read;
        if Version.changed v (Atomic.get b.bversion) then begin
          Stats.incr t.tstats Stats.Local_retries;
          let v2 = Version.stable b.bversion in
          if Version.deleted v2 then restart0 f
          else begin
            (* Chase right if covered; otherwise re-read this border
               next round. *)
            f.qstage <- P_border b;
            chase_or f b (fun () -> ())
          end
        end
        else
          match lv with
          | Value value when suffix_ok -> finish f (`Value value)
          | Layer r when f.qrem > 8 ->
              (* Descend one trie layer without leaving the pipeline. *)
              Schedpoint.hit sp_pipeline_layer;
              enter_layer f ~off:(f.qoff + 8) r
          | Layer _ -> finish f `Notfound
          | Value _ | Empty ->
              (* Not here — but a split that completed before this
                 (fresh) version snapshot can have moved the key right;
                 the chase settles it in-pipeline. *)
              chase_or f b (fun () -> finish f `Notfound)
      in
      let step_border f b =
        let v = Version.stable b.bversion in
        if Version.deleted v then restart0 f
        else begin
          let hit = search_hit b (border_perm b) ~hi:f.qhi ~lo:f.qlo ~klen:f.qklen in
          (* Extract while the snapshot is live, validate before
             trusting. *)
          let lv = if hit < 0 then Empty else b.blv.(hit land 0xF) in
          match lv with
          | Value _ when f.qrem > 8 ->
              (* Confirming the hit needs the slot's suffix blob — a
                 dependent cold line.  Pipeline it: issue its fetch now,
                 compare and validate next round under snapshot [v]. *)
              f.qver <- v;
              f.qhit <- hit;
              f.qlv <- lv;
              prefetch_suffix b (hit land 0xF);
              f.qstage <- P_suffix b
          | _ ->
              let suffix_ok =
                match lv with Value _ -> true | Layer _ | Empty -> false
              in
              conclude_border f b v lv ~suffix_ok
        end
      in
      let step f =
        match f.qstage with
        | P_root -> (
            match stable_root f.qroot with
            | n, v ->
                f.qnode <- n;
                f.qver <- v;
                stage_from f
            | exception Restart -> restart0 f)
        | P_advance -> stage_from f
        | P_child n' ->
            (* Hand-over-hand: stabilize the child before revalidating
               the parent, exactly as fb_descend. *)
            let v' = Version.stable (version_of n') in
            Schedpoint.hit sp_descend_validate;
            if Version.changed f.qver (Atomic.get (version_of f.qnode)) then
              revalidate_flight f
            else begin
              f.qnode <- n';
              f.qver <- v';
              stage_from f
            end
        | P_border b -> step_border f b
        | P_suffix b ->
            let suffix_ok =
              suffix_matches b (f.qhit land 0xF) f.qkey ~pos:(f.qoff + 8)
            in
            conclude_border f b f.qver f.qlv ~suffix_ok
      in
      (* Round loop: every pass advances each live flight one node, so
         all of a round's prefetches are issued before any of the staged
         nodes is read.  The round budget bounds pathological churn; a
         flight that outlives it finishes on the sequential path. *)
      let fuel = ref 256 in
      while !remaining > 0 && !fuel > 0 do
        decr fuel;
        Schedpoint.hit sp_pipeline_round;
        Array.iter (fun f -> if not f.qdone then step f) flights
      done;
      Array.map
        (fun f ->
          match f.qresult with
          | `Value v -> Some v
          | `Notfound -> None
          | `Pending | `Fallback -> get_attempt t f.qkey)
        flights)

let multi_get_pipelined = multi_get

(* ------------------------------------------------------------------ *)
(* Writer-side locking helpers                                         *)
(* ------------------------------------------------------------------ *)

(* Figure 4's lockedparent: lock the parent, then confirm it is still the
   parent (a concurrent split of the parent may have moved us). *)
let locked_parent n =
  let rec retry () =
    match parent_of n with
    | None -> None
    | Some p -> (
        Version.lock p.iversion;
        match parent_of n with
        | Some q when q == p -> Some p
        | _ ->
            Version.unlock p.iversion;
            retry ())
  in
  retry ()

(* With b locked, chase splits right until b is responsible for the key,
   and fail over to a full restart if b was deleted meanwhile.  No two
   border locks are ever held at once here, so there is no deadlock with
   split's up-the-tree ordering. *)
let rec advance_locked b ~hi ~lo =
  if Version.deleted (Atomic.get b.bversion) then begin
    Version.unlock b.bversion;
    raise Restart
  end;
  match b.bnext with
  | Some nx when Key.compare_parts hi lo nx.blowhi nx.blowlo >= 0 ->
      Version.unlock b.bversion;
      Version.lock nx.bversion;
      advance_locked nx ~hi ~lo
  | _ -> b

(* ------------------------------------------------------------------ *)
(* Inserts and splits (Figure 5)                                       *)
(* ------------------------------------------------------------------ *)

(* A movable border entry: slice halves, clamped length, suffix-blob
   handle (0 = none; ownership travels with the record), and the value or
   layer link.  Used by insert, split and merge migration — suffix bytes
   are never materialized on these paths. *)
type 'v mentry = {
  mhi : int;
  mlo : int;
  mklen : int;
  msuf : int;
  mlv : 'v link_or_value;
}

let read_mentry b slot =
  {
    mhi = slice_hi b slot;
    mlo = slice_lo b slot;
    mklen = keylen b slot;
    msuf = suffix_handle b slot;
    mlv = b.blv.(slot);
  }

let write_mentry b slot e =
  set_entry b slot ~hi:e.mhi ~lo:e.mlo ~klen:e.mklen ~h:e.msuf;
  b.blv.(slot) <- e.mlv

(* Insert into a border node with room, following the §4.6.2 protocol: fill
   a free slot, then publish with one permutation store.  Reusing a slot
   that held a removed key dirties the node so readers between the old
   permutation and the new contents retry (§4.6.5); the removed key's
   suffix blob, which stayed readable on the stale slot until now, is
   retired here under the same vinsert bump. *)
let insert_into_slots t b ~pos e =
  let perm = border_perm b in
  let slot = Permutation.free_slot perm in
  if b.bstale land (1 lsl slot) <> 0 then begin
    Stats.incr t.tstats Stats.Slot_reuses;
    Version.mark_inserting b.bversion;
    b.bstale <- b.bstale land lnot (1 lsl slot);
    let h = suffix_handle b slot in
    if h <> 0 then Pool.retire_blob b.bpool (handle t).eh h
  end;
  write_mentry b slot e;
  (* §4.6.2: entry written into its slot, not yet published — readers
     using the old permutation cannot see it. *)
  Schedpoint.hit sp_put_slot_written;
  Atomic.set b.bperm (Permutation.insert perm ~pos :> int);
  Schedpoint.hit sp_put_published

(* Separator choice for a full border node: split near the middle, but
   never inside a group of entries sharing one slice — the concurrency
   protocol requires all keys of a slice to live in one node.  A boundary
   always exists because a slice admits at most 10 entries. *)
let pick_boundary entries =
  let n = Array.length entries in
  let boundary m =
    m >= 1 && m < n
    && (entries.(m - 1).mhi <> entries.(m).mhi
       || entries.(m - 1).mlo <> entries.(m).mlo)
  in
  let mid = n / 2 in
  let rec search d =
    if boundary (mid + d) then mid + d
    else if boundary (mid - d) then mid - d
    else begin
      assert (d < n);
      search (d + 1)
    end
  in
  search 0

(* Insert (sepkey, nn) above the freshly split pair (n, nn).  Both are
   locked with their splitting bits set; this releases all locks taken. *)
let rec ascend t root_ref n nn ~sephi ~seplo =
  match locked_parent n with
  | None ->
      (* n was the root of this layer's B+-tree: grow the tree upward. *)
      let p = new_interior ~isroot:true ~locked:false in
      p.inkeys <- 1;
      set_ikey p 0 ~hi:sephi ~lo:seplo;
      p.ichild.(0) <- Some n;
      p.ichild.(1) <- Some nn;
      set_parent n (Some p);
      set_parent nn (Some p);
      Version.set_root (version_of n) false;
      root_ref := Interior p;
      (* New root published; the split pair is still locked. *)
      Schedpoint.hit sp_split_root;
      Version.unlock (version_of n);
      Version.unlock (version_of nn)
  | Some p ->
      (* Split hand-off (Figure 5): parent locked, new sibling not yet
         reachable from it. *)
      Schedpoint.hit sp_split_ascend;
      if p.inkeys < width then begin
        Version.mark_inserting p.iversion;
        let pos = child_index p ~hi:sephi ~lo:seplo in
        for j = p.inkeys downto pos + 1 do
          copy_ikey p ~dst:j ~src:(j - 1);
          p.ichild.(j + 1) <- p.ichild.(j)
        done;
        set_ikey p pos ~hi:sephi ~lo:seplo;
        p.ichild.(pos + 1) <- Some nn;
        p.inkeys <- p.inkeys + 1;
        set_parent nn (Some p);
        Version.unlock (version_of n);
        Version.unlock (version_of nn);
        Version.unlock p.iversion
      end
      else begin
        Stats.incr t.tstats Stats.Splits_interior;
        Version.mark_splitting p.iversion;
        Version.unlock (version_of n);
        let pos = child_index p ~hi:sephi ~lo:seplo in
        (* Combined key/child sequences with the new separator spliced in. *)
        let khi = Array.make (width + 1) 0 in
        let klo = Array.make (width + 1) 0 in
        let children = Array.make (width + 2) None in
        for j = 0 to width - 1 do
          let dst = if j < pos then j else j + 1 in
          khi.(dst) <- ikey_hi p j;
          klo.(dst) <- ikey_lo p j
        done;
        khi.(pos) <- sephi;
        klo.(pos) <- seplo;
        for j = 0 to width do
          let dst = if j <= pos then j else j + 1 in
          children.(dst) <- p.ichild.(j)
        done;
        children.(pos + 1) <- Some nn;
        let h = (width + 1) / 2 in
        let uphi = khi.(h) and uplo = klo.(h) in
        let pp = new_interior ~isroot:false ~locked:true in
        Version.mark_splitting pp.iversion;
        pp.inkeys <- width - h;
        for j = h + 1 to width do
          set_ikey pp (j - h - 1) ~hi:khi.(j) ~lo:klo.(j)
        done;
        for j = h + 1 to width + 1 do
          pp.ichild.(j - h - 1) <- children.(j);
          (match children.(j) with
          | Some c -> set_parent c (Some pp)
          | None -> assert false)
        done;
        p.inkeys <- h;
        for j = 0 to h - 1 do
          set_ikey p j ~hi:khi.(j) ~lo:klo.(j)
        done;
        for j = 0 to h do
          p.ichild.(j) <- children.(j);
          match children.(j) with
          | Some c -> set_parent c (Some p)
          | None -> assert false
        done;
        for j = h + 1 to width do
          p.ichild.(j) <- None
        done;
        Version.unlock (version_of nn);
        ascend t root_ref (Interior p) (Interior pp) ~sephi:uphi ~seplo:uplo
      end

(* Split a full border node (locked) while inserting a new entry whose
   sorted position is [pos].  Implements the sequential-insert optimization:
   an append into the rightmost node leaves all existing keys in place. *)
let split_border t root_ref b ~pos e =
  Stats.incr t.tstats Stats.Splits_border;
  Version.mark_splitting b.bversion;
  Schedpoint.hit sp_split_begin;
  let perm = border_perm b in
  let nold = Permutation.size perm in
  let combined = Array.make (nold + 1) e in
  let slots = Array.make (nold + 1) (-1) in
  for j = 0 to nold - 1 do
    let dst = if j < pos then j else j + 1 in
    let slot = Permutation.get perm j in
    combined.(dst) <- read_mentry b slot;
    slots.(dst) <- slot
  done;
  let sequential_append =
    pos = nold
    && (match b.bnext with None -> true | Some _ -> false)
    && (combined.(nold - 1).mhi <> e.mhi || combined.(nold - 1).mlo <> e.mlo)
  in
  let m = if sequential_append then nold else pick_boundary combined in
  let nb =
    new_border ~pool:t.pool ~isroot:false ~locked:true ~lowhi:combined.(m).mhi
      ~lowlo:combined.(m).mlo
  in
  Version.mark_splitting nb.bversion;
  let right_count = nold + 1 - m in
  for j = m to nold do
    write_mentry nb (j - m) combined.(j);
    (* Ownership of the suffix blob moved with the entry: zero the source
       word so the blob is never retired twice (the vsplit bump this split
       publishes invalidates any reader that raced the zeroing). *)
    if slots.(j) >= 0 then set_suffix_handle b slots.(j) 0
  done;
  Atomic.set nb.bperm (Permutation.sorted right_count :> int);
  if pos < m then begin
    (* The new entry lands on the left: keep the m-1 surviving old entries,
       then run the normal insert protocol into the freed space. *)
    Atomic.set b.bperm (Permutation.keep_prefix perm ~n:(m - 1) :> int);
    insert_into_slots t b ~pos e
  end
  else Atomic.set b.bperm (Permutation.keep_prefix perm ~n:m :> int);
  (* Entries migrated: the left node's permutation no longer covers them,
     the right sibling is not yet linked anywhere. *)
  Schedpoint.hit sp_split_migrated;
  (* Link the new sibling.  nx's prev pointer is protected by the lock of
     its new previous sibling, nb, which we hold. *)
  nb.bnext <- b.bnext;
  nb.bprev <- Some b;
  (match b.bnext with Some nx -> nx.bprev <- Some nb | None -> ());
  b.bnext <- Some nb;
  (* §4.6.4 hand-off window: the sibling is reachable through the border
     list but not yet from any parent, and both halves stay
     split-dirty. *)
  Schedpoint.hit sp_split_linked;
  ascend t root_ref (Border b) (Border nb) ~sephi:nb.blowhi ~seplo:nb.blowlo

(* ------------------------------------------------------------------ *)
(* New trie layers (§4.6.3)                                            *)
(* ------------------------------------------------------------------ *)

(* Build the layer subtree holding two distinct key remainders.  When the
   remainders keep sharing 8-byte slices the chain deepens, one
   single-entry layer per shared slice.  The structure is complete before
   it is published, so no UNSTABLE marker is needed: readers see the old
   value or the finished layer. *)
let rec make_twokey_layer t ka va kb vb =
  Stats.incr t.tstats Stats.Layer_creates;
  let ahi = Key.slice_hi ka ~off:0 and alo = Key.slice_lo ka ~off:0 in
  let bhi = Key.slice_hi kb ~off:0 and blo = Key.slice_lo kb ~off:0 in
  let b = new_border ~pool:t.pool ~isroot:true ~locked:false ~lowhi:0 ~lowlo:0 in
  let entry_of k hi lo v =
    if Key.has_suffix k ~off:0 then
      { mhi = hi; mlo = lo; mklen = suffix_len_marker;
        msuf = Pool.alloc_blob_of_key t.pool k ~pos:8; mlv = Value v }
    else { mhi = hi; mlo = lo; mklen = String.length k; msuf = 0; mlv = Value v }
  in
  if ahi = bhi && alo = blo && Key.has_suffix ka ~off:0 && Key.has_suffix kb ~off:0
  then begin
    let deeper = make_twokey_layer t (Key.suffix ka ~off:0) va (Key.suffix kb ~off:0) vb in
    write_mentry b 0
      { mhi = ahi; mlo = alo; mklen = suffix_len_marker; msuf = 0; mlv = Layer deeper };
    Atomic.set b.bperm (Permutation.sorted 1 :> int)
  end
  else begin
    let ea = entry_of ka ahi alo va and eb = entry_of kb bhi blo vb in
    let first, second =
      if entry_cmp ea.mhi ea.mlo ea.mklen eb.mhi eb.mlo eb.mklen < 0 then (ea, eb)
      else (eb, ea)
    in
    write_mentry b 0 first;
    write_mentry b 1 second;
    Atomic.set b.bperm (Permutation.sorted 2 :> int)
  end;
  ref (Border b)

(* ------------------------------------------------------------------ *)
(* put                                                                 *)
(* ------------------------------------------------------------------ *)

type 'v located =
  | At of int * int (* pos, slot: the exact key is present as a value *)
  | At_layer of int * int * 'v node ref
  | Suffix_clash of int * int * string * 'v
  | Absent of int (* insertion position *)

(* Under the node lock, classify how (key at off) relates to b's entries. *)
let locate b ~hi ~lo ~rem ~key ~off =
  let klen = Int.min rem suffix_len_marker in
  let perm = border_perm b in
  match search_hit b perm ~hi ~lo ~klen with
  | -1 -> Absent (insertion_pos b perm ~hi ~lo ~klen)
  | hit -> (
      let pos = hit lsr 4 and slot = hit land 0xF in
      match b.blv.(slot) with
      | Layer r ->
          assert (rem > 8);
          At_layer (pos, slot, r)
      | Value v ->
          if rem <= 8 then At (pos, slot)
          else if suffix_matches b slot key ~pos:(off + 8) then At (pos, slot)
          else begin
            match suffix_string b slot with
            | Some s -> Suffix_clash (pos, slot, s, v)
            | None -> assert false
          end
      | Empty -> assert false)

(* How a put produces the stored value: [Const] is the plain-put spelling
   — one two-word block per call instead of a closure capturing the value,
   and applying it allocates nothing (no [Some old] argument). *)
type 'v upd = Const of 'v | Compute of ('v option -> 'v)

let upd_present u old =
  match u with Const v -> v | Compute f -> f (Some old)

let upd_absent u = match u with Const v -> v | Compute f -> f None

let rec put_layer t root_ref key off u =
  let hi = Key.slice_hi key ~off and lo = Key.slice_lo key ~off in
  let rem = String.length key - off in
  let b, _ = find_border t root_ref ~hi ~lo in
  Version.lock b.bversion;
  let b = advance_locked b ~hi ~lo in
  match locate b ~hi ~lo ~rem ~key ~off with
  | At (_, slot) ->
      let old = match b.blv.(slot) with Value v -> v | Layer _ | Empty -> assert false in
      (* Value replacement is one atomic store: readers see old or new,
         no version bump, no retries (§4.6.1). *)
      b.blv.(slot) <- Value (upd_present u old);
      Schedpoint.hit sp_put_replaced;
      Version.unlock b.bversion;
      Some old
  | At_layer (_, _, r) ->
      Version.unlock b.bversion;
      put_layer t r key (off + 8) u
  | Suffix_clash (_, slot, old_suffix, old_value) ->
      let layer =
        make_twokey_layer t old_suffix old_value (Key.suffix key ~off) (upd_absent u)
      in
      (* Single-store publication replaces the old value entry with the
         finished layer; the old key remains visible throughout.  The
         stale suffix blob handle is deliberately left in the slot: a
         concurrent reader that read the old Value must still find the
         matching suffix, and layer creation bumps no version to
         invalidate it (§4.6.3).  The blob is retired when the slot is
         reused or the node dies. *)
      b.blv.(slot) <- Layer layer;
      Schedpoint.hit sp_layer_published;
      Version.unlock b.bversion;
      None
  | Absent pos ->
      let e =
        if rem > 8 then
          {
            mhi = hi;
            mlo = lo;
            mklen = suffix_len_marker;
            msuf = Pool.alloc_blob_of_key t.pool key ~pos:(off + 8);
            mlv = Value (upd_absent u);
          }
        else { mhi = hi; mlo = lo; mklen = rem; msuf = 0; mlv = Value (upd_absent u) }
      in
      if Permutation.is_full (border_perm b) then split_border t root_ref b ~pos e
      else begin
        insert_into_slots t b ~pos e;
        Version.unlock b.bversion
      end;
      None

let rec put_attempt t key u =
  try put_layer t t.root key 0 u
  with Restart ->
    Stats.incr t.tstats Stats.Root_retries;
    Schedpoint.spin sp_restart_spin;
    put_attempt t key u

let put_pinned t key u =
  Stats.incr t.tstats Stats.Puts;
  let h = handle t in
  Epoch.enter h.eh;
  match put_attempt t key u with
  | r ->
      Epoch.leave h.eh;
      finish_op h;
      r
  | exception e ->
      Epoch.leave h.eh;
      raise e

let put_with t key compute = put_pinned t key (Compute compute)

let put t key value = put_pinned t key (Const value)

(* ------------------------------------------------------------------ *)
(* remove (§4.6.5)                                                     *)
(* ------------------------------------------------------------------ *)

(* Remove [child] (locked, marked deleted) from its parent, propagating
   upward when an interior node runs out of children.  Unlocks [child]. *)
let rec remove_from_parent t child =
  match locked_parent child with
  | None ->
      (* Only reachable transiently; a layer root is never deleted through
         this path because the leftmost border is never deleted. *)
      Version.unlock (version_of child)
  | Some p -> (
      Version.mark_inserting p.iversion;
      let k = p.inkeys in
      let idx = ref None in
      for j = 0 to k do
        match p.ichild.(j) with
        | Some c when same_node c child -> idx := Some j
        | _ -> ()
      done;
      match !idx with
      | None ->
          (* The child is no longer under p (should not happen: parent was
             validated under p's lock).  Bail out safely. *)
          Version.unlock (version_of child);
          Version.unlock p.iversion
      | Some i ->
          if k = 0 then begin
            (* p had a single child and now has none: delete p as well. *)
            p.ichild.(0) <- None;
            Version.unlock (version_of child);
            Version.mark_deleted p.iversion;
            Stats.incr t.tstats Stats.Node_deletes;
            remove_from_parent t (Interior p)
          end
          else begin
            if i = 0 then begin
              for j = 0 to k - 2 do
                copy_ikey p ~dst:j ~src:(j + 1)
              done;
              for j = 0 to k - 1 do
                p.ichild.(j) <- p.ichild.(j + 1)
              done
            end
            else begin
              for j = i - 1 to k - 2 do
                copy_ikey p ~dst:j ~src:(j + 1)
              done;
              for j = i to k - 1 do
                p.ichild.(j) <- p.ichild.(j + 1)
              done
            end;
            p.ichild.(k) <- None;
            p.inkeys <- k - 1;
            Version.unlock (version_of child);
            Version.unlock p.iversion
          end)

(* Unlink b (locked, deleted) from the doubly-linked border list.  The
   paper uses flagged CAS; trylock-with-restart gives the same lock-order
   guarantees with simpler invariants (DESIGN.md §5). *)
let unlink_from_list b =
  let bo = Xutil.Backoff.create () in
  let rec loop () =
    match b.bprev with
    | None -> () (* the leftmost node is never deleted *)
    | Some prev ->
        if Version.try_lock prev.bversion then begin
          let pv = Atomic.get prev.bversion in
          let still_linked =
            (not (Version.deleted pv))
            && match prev.bnext with Some x -> x == b | None -> false
          in
          if still_linked then begin
            prev.bnext <- b.bnext;
            (match b.bnext with Some nx -> nx.bprev <- Some prev | None -> ());
            Version.unlock prev.bversion;
            Schedpoint.hit sp_remove_unlinked
          end
          else begin
            Version.unlock prev.bversion;
            Schedpoint.spin sp_remove_unlink_spin;
            Xutil.Backoff.once bo;
            loop ()
          end
        end
        else begin
          Schedpoint.spin sp_remove_unlink_spin;
          Xutil.Backoff.once bo;
          loop ()
        end
  in
  loop ()

let delete_border t b =
  Stats.incr t.tstats Stats.Node_deletes;
  Version.mark_deleted b.bversion;
  unlink_from_list b;
  (* Epoch-retire the cell and any suffix blobs still parked on the dead
     node (live entries were already cut; stale slots may still own
     blobs).  Pinned readers racing the §4.5 window keep validating
     against intact storage until the deferred free runs. *)
  retire_storage b (handle t).eh;
  remove_from_parent t (Border b)

(* Lock-free walk to the node ref of the layer at [off_target] along the
   slices of [key]; gives up (Not_found) on any anomaly — the collapse task
   is purely an optimization and may simply be dropped. *)
let layer_root_at t key off_target =
  let rec go root_ref off =
    if off = off_target then root_ref
    else begin
      let hi = Key.slice_hi key ~off and lo = Key.slice_lo key ~off in
      let b, _v = find_border t root_ref ~hi ~lo in
      match search_hit b (border_perm b) ~hi ~lo ~klen:suffix_len_marker with
      | -1 -> raise Not_found
      | hit -> (
          match b.blv.(hit land 0xF) with
          | Layer r -> go r (off + 8)
          | Value _ | Empty -> raise Not_found)
    end
  in
  go t.root 0

(* b just became empty (locked).  Decide its fate: layer roots stay but may
   trigger a collapse of the whole layer; the leftmost border of a tree is
   never deleted (paper invariant); anything else is deleted in place. *)
let rec handle_empty t b key off =
  Schedpoint.hit sp_remove_empty;
  let v = Atomic.get b.bversion in
  if Version.is_root v then begin
    Version.unlock b.bversion;
    if off > 0 then
      (* An empty non-root layer: schedule a collapse task that re-descends
         by key prefix and unlinks the layer if still empty (§4.6.5). *)
      Epoch.schedule t.emgr (fun () -> try_collapse_layer t key off)
  end
  else begin
    match b.bprev with
    | None -> Version.unlock b.bversion
    | Some _ -> delete_border t b
  end

(* Collapse the (presumed empty) layer reached by key bytes [0, off): lock
   the layer-(h-1) border holding the link and the layer-h root together —
   the only place two layers' locks are held at once, always in
   parent-then-child order (§4.6.5). *)
and try_collapse_layer t key off =
  assert (off >= 8);
  Schedpoint.hit sp_collapse_begin;
  match try Some (layer_root_at t key (off - 8)) with Not_found | Restart -> None with
  | None -> ()
  | Some parent_layer -> (
      let hi = Key.slice_hi key ~off:(off - 8)
      and lo = Key.slice_lo key ~off:(off - 8) in
      match
        try
          let b, _ = find_border t parent_layer ~hi ~lo in
          Version.lock b.bversion;
          Some (advance_locked b ~hi ~lo)
        with Restart -> None
      with
      | None -> ()
      | Some b -> (
          match search_hit b (border_perm b) ~hi ~lo ~klen:suffix_len_marker with
          | -1 -> Version.unlock b.bversion
          | hit -> (
              let pos = hit lsr 4 and slot = hit land 0xF in
              match b.blv.(slot) with
              | Value _ | Empty -> Version.unlock b.bversion
              | Layer r -> (
                  match try Some (stable_root r) with Restart -> None with
                  | Some (Border cb, _) ->
                      Version.lock cb.bversion;
                      let cv = Atomic.get cb.bversion in
                      let empty_leaf_layer =
                        Version.is_root cv
                        && (not (Version.deleted cv))
                        && Permutation.size (border_perm cb) = 0
                        && (match cb.bnext with None -> true | Some _ -> false)
                      in
                      if empty_leaf_layer then begin
                        Version.mark_deleted cb.bversion;
                        (* The dead layer root's storage (cell plus any
                           stale-slot blobs) goes back to the pool once
                           racing readers drain. *)
                        retire_storage cb (handle t).eh;
                        Version.unlock cb.bversion;
                        let perm = border_perm b in
                        Atomic.set b.bperm (Permutation.remove perm ~pos :> int);
                        b.bstale <- b.bstale lor (1 lsl slot);
                        Stats.incr t.tstats Stats.Layer_collapses;
                        Schedpoint.hit sp_collapse_done;
                        if Permutation.size (border_perm b) = 0 then
                          handle_empty t b key (off - 8)
                        else Version.unlock b.bversion
                      end
                      else begin
                        Version.unlock cb.bversion;
                        Version.unlock b.bversion
                      end
                  | Some (Interior _, _) | None -> Version.unlock b.bversion))))

(* ------------------------------------------------------------------ *)
(* Delete-side leaf coalescing                                         *)
(* ------------------------------------------------------------------ *)

(* Merge b's right sibling into b when both are small enough, under the
   same lock/version protocol as split: b takes a vsplit bump (its range
   grows), the absorbed sibling is marked deleted, and the border list and
   parent are repaired while all three locks are held.

   The merge happens only when b and nx are adjacent children of the SAME
   parent, verified under that parent's lock.  Merging across a parent
   boundary would leave the migrated keys unreachable by descent: the
   routing separator above them would still send readers into the right
   subtree, whose leftmost border no longer holds them.  This mirrors the
   §4.3 asymmetry ("deletion without rebalancing lets a node inherit the
   range of a deleted left sibling") — ranges may grow rightward only.

   Lock order is b -> nx -> parent: the same child-then-parent direction
   as split's ascend, so no cycle with any other writer (unlink_from_list
   takes right-before-left but only via trylock).  Failure to qualify at
   any step just unlocks and gives up — coalescing is an optimization. *)
let try_coalesce t b =
  (* b locked, live, 0 < size <= merge_threshold. *)
  if Version.is_root (Atomic.get b.bversion) then Version.unlock b.bversion
  else
    match b.bnext with
    | None -> Version.unlock b.bversion
    | Some nx -> (
        Version.lock nx.bversion;
        let sb = Permutation.size (border_perm b) in
        let sn = Permutation.size (border_perm nx) in
        if Version.deleted (Atomic.get nx.bversion) || sb + sn > merge_max then begin
          Version.unlock nx.bversion;
          Version.unlock b.bversion
        end
        else
          match locked_parent (Border b) with
          | None ->
              Version.unlock nx.bversion;
              Version.unlock b.bversion
          | Some p ->
              let bi = ref (-1) in
              for j = 0 to p.inkeys do
                match p.ichild.(j) with
                | Some c when same_node c (Border b) -> bi := j
                | _ -> ()
              done;
              let adjacent =
                !bi >= 0
                && !bi < p.inkeys
                && match p.ichild.(!bi + 1) with
                   | Some c -> same_node c (Border nx)
                   | None -> false
              in
              if not adjacent then begin
                Version.unlock p.iversion;
                Version.unlock nx.bversion;
                Version.unlock b.bversion
              end
              else begin
                Stats.incr t.tstats Stats.Leaf_merges;
                Version.mark_splitting b.bversion;
                Version.mark_deleted nx.bversion;
                Schedpoint.hit sp_merge_begin;
                (* Migrate nx's live entries — all greater than b's keys —
                   into b's free slots, then publish with one permutation
                   store.  Blob ownership moves; source words are zeroed
                   so the dead node's sweep cannot double-retire. *)
                let eh = (handle t).eh in
                let perm = ref (border_perm b) in
                let nperm = border_perm nx in
                for i = 0 to sn - 1 do
                  let src = Permutation.get nperm i in
                  let q = !perm in
                  let dst = Permutation.free_slot q in
                  (if b.bstale land (1 lsl dst) <> 0 then begin
                     b.bstale <- b.bstale land lnot (1 lsl dst);
                     (* The vsplit bump already forces every reader to
                        retry; just release the stale slot's old blob. *)
                     let h = suffix_handle b dst in
                     if h <> 0 then Pool.retire_blob b.bpool eh h
                   end);
                  write_mentry b dst (read_mentry nx src);
                  set_suffix_handle nx src 0;
                  perm := Permutation.insert q ~pos:(Permutation.size q)
                done;
                Atomic.set b.bperm (!perm :> int);
                (* Entries published in b; nx still linked and routed-to. *)
                Schedpoint.hit sp_merge_migrated;
                (* Border-list repair: nx's successor's prev is protected
                   by nx's lock, which we hold. *)
                b.bnext <- nx.bnext;
                (match nx.bnext with Some r -> r.bprev <- Some b | None -> ());
                (* Parent repair: drop nx and the separator between b and
                   nx (key index bi, child index bi+1). *)
                Version.mark_inserting p.iversion;
                let k = p.inkeys in
                let i = !bi in
                for j = i to k - 2 do
                  copy_ikey p ~dst:j ~src:(j + 1)
                done;
                for j = i + 1 to k - 1 do
                  p.ichild.(j) <- p.ichild.(j + 1)
                done;
                p.ichild.(k) <- None;
                p.inkeys <- k - 1;
                retire_storage nx eh;
                Version.unlock nx.bversion;
                Version.unlock p.iversion;
                Version.unlock b.bversion;
                Schedpoint.hit sp_merge_done
              end)

let rec remove_layer t root_ref key off pred =
  let hi = Key.slice_hi key ~off and lo = Key.slice_lo key ~off in
  let rem = String.length key - off in
  let b, _ = find_border t root_ref ~hi ~lo in
  Version.lock b.bversion;
  let b = advance_locked b ~hi ~lo in
  match locate b ~hi ~lo ~rem ~key ~off with
  | At_layer (_, _, r) ->
      Version.unlock b.bversion;
      remove_layer t r key (off + 8) pred
  | Suffix_clash _ ->
      Version.unlock b.bversion;
      None
  | Absent _ ->
      Version.unlock b.bversion;
      None
  | At (pos, slot) ->
      let old = match b.blv.(slot) with Value v -> v | Layer _ | Empty -> assert false in
      if not (pred old) then begin
        Version.unlock b.bversion;
        None
      end
      else begin
        let perm = border_perm b in
        let perm' = Permutation.remove perm ~pos in
        (* The slot's contents — suffix blob included — stay readable for
           concurrent readers; the stale bit forces a vinsert bump (and
           the blob's retirement) when an insert reuses the slot. *)
        Atomic.set b.bperm (perm' :> int);
        Schedpoint.hit sp_remove_cut;
        b.bstale <- b.bstale lor (1 lsl slot);
        let sz = Permutation.size perm' in
        if sz = 0 then handle_empty t b key off
        else if sz <= merge_threshold then try_coalesce t b
        else Version.unlock b.bversion;
        Some old
      end

let rec remove_attempt t key pred =
  try remove_layer t t.root key 0 pred
  with Restart ->
    Stats.incr t.tstats Stats.Root_retries;
    Schedpoint.spin sp_restart_spin;
    remove_attempt t key pred

(* A static predicate: passing a top-level function allocates nothing. *)
let pred_true _ = true

let remove_pinned t key pred =
  Stats.incr t.tstats Stats.Removes;
  let h = handle t in
  Epoch.enter h.eh;
  match remove_attempt t key pred with
  | r ->
      Epoch.leave h.eh;
      finish_op h;
      r
  | exception e ->
      Epoch.leave h.eh;
      raise e

let remove t key = remove_pinned t key pred_true

let remove_if t key pred = remove_pinned t key pred

(* Modify-if-present: like [put_with] but never inserts.  The closure runs
   under the border lock, so the decision "what replaces the current
   value" is atomic with respect to concurrent writers — the primitive the
   MVCC prune pass needs (pruning from a pre-read copy could resurrect a
   stale value, the bug class CHANGES.md's resharding fix removed). *)
let rec update_layer t root_ref key off f =
  let hi = Key.slice_hi key ~off and lo = Key.slice_lo key ~off in
  let rem = String.length key - off in
  let b, _ = find_border t root_ref ~hi ~lo in
  Version.lock b.bversion;
  let b = advance_locked b ~hi ~lo in
  match locate b ~hi ~lo ~rem ~key ~off with
  | At (_, slot) ->
      let old = match b.blv.(slot) with Value v -> v | Layer _ | Empty -> assert false in
      b.blv.(slot) <- Value (f old);
      Schedpoint.hit sp_put_replaced;
      Version.unlock b.bversion;
      true
  | At_layer (_, _, r) ->
      Version.unlock b.bversion;
      update_layer t r key (off + 8) f
  | Suffix_clash _ | Absent _ ->
      Version.unlock b.bversion;
      false

let rec update_attempt t key f =
  try update_layer t t.root key 0 f
  with Restart ->
    Stats.incr t.tstats Stats.Root_retries;
    Schedpoint.spin sp_restart_spin;
    update_attempt t key f

let update t key f =
  Stats.incr t.tstats Stats.Puts;
  let h = handle t in
  Epoch.enter h.eh;
  match update_attempt t key f with
  | r ->
      Epoch.leave h.eh;
      finish_op h;
      r
  | exception e ->
      Epoch.leave h.eh;
      raise e

(* ------------------------------------------------------------------ *)
(* Scans (getrange, §3)                                                *)
(* ------------------------------------------------------------------ *)

exception Scan_done

(* A border cursor: the live entries of one border node in key order,
   copied into flat arrays by [cursor_fill] and validated against one
   stable version.  A scan keeps one cursor per trie layer it is walking
   and refills it node after node, so walking a layer allocates nothing
   per entry.  Suffix handles are copied, not their bytes: a key is built
   only when it is emitted or ties the bound on its slice, and it reads
   its suffix blob then, after validation.  That read is safe because
   the scan runs under [Epoch.pin]: a blob is immutable from allocation
   until its epoch-deferred free, and a handle that validated was owned
   by its slot while this scan was pinned, so its free waits for the
   unpin (docs/CONCURRENCY.md). *)
type 'v cursor = {
  chi : int array;
  clo : int array;
  cklen : int array;
  csuf : int array;
  clv : 'v link_or_value array;
  mutable cn : int; (* live entries *)
  mutable cnext : 'v border option;
}

let new_cursor () =
  {
    chi = Array.make width 0;
    clo = Array.make width 0;
    cklen = Array.make width 0;
    csuf = Array.make width 0;
    clv = Array.make width Empty;
    cn = 0;
    cnext = None;
  }

(* [expect] for a forward scan: no anchor. *)
let no_expect = -1

(* Fill [c] from border [b] with entries and next pointer consistent with
   one stable version.  False if the node is deleted (caller re-descends).

   [expect]: the stable version the caller's descent validated.  If the
   node's vsplit has moved past it — including while this function waits
   out a split in [Version.stable] — the node may no longer cover the
   range the descent targeted, and accepting it would silently narrow
   the scan: a reverse scan positioned on the pre-split node would lose
   every key that migrated to the new sibling.  Forward scans pass
   [no_expect]: split migration only moves keys right, where the [bnext]
   chain still covers them. *)
let rec cursor_fill t c b ~expect =
  let v = Version.stable b.bversion in
  if Version.deleted v || (expect <> no_expect && Version.vsplit v <> Version.vsplit expect)
  then false
  else begin
    let perm = border_perm b in
    let n = Permutation.size perm in
    for i = 0 to n - 1 do
      let slot = Permutation.get perm i in
      c.chi.(i) <- slice_hi b slot;
      c.clo.(i) <- slice_lo b slot;
      c.cklen.(i) <- keylen b slot;
      c.csuf.(i) <- suffix_handle b slot;
      c.clv.(i) <- b.blv.(slot)
    done;
    c.cn <- n;
    c.cnext <- b.bnext;
    (* Scan's validation window: a whole node copied out, not yet
       checked (the §4.6.5 scan-vs-split/remove hazard). *)
    Schedpoint.hit sp_snapshot_read;
    let v' = Atomic.get b.bversion in
    if Version.changed v v' then begin
      Stats.incr t.tstats Stats.Local_retries;
      (* vsplit moved: part of this node's range migrated away (or the
         node died), so the descent that reached it is stale — the
         caller must re-descend.  Retrying locally here would return a
         narrowed node and a reverse scan would silently lose the
         migrated keys.  Only insert-only changes retry in place. *)
      Version.vsplit v' = Version.vsplit v && cursor_fill t c b ~expect
    end
    else true
  end

(* The key entry [i] stands for, after [prefix] (the bytes consumed by
   enclosing layers), built in one allocation.  A layer entry stands for
   its 8 slice bytes: any suffix left in its slot is stale data from
   before the layer was created. *)
let cursor_key t c i prefix =
  let klen = c.cklen.(i) in
  let slen = Int.min klen 8 in
  let h = match c.clv.(i) with Value _ when klen > 8 -> c.csuf.(i) | _ -> 0 in
  let plen = String.length prefix in
  let k = Bytes.create (plen + slen + if h = 0 then 0 else Pool.blob_len t.pool h) in
  Bytes.blit_string prefix 0 k 0 plen;
  let hi = c.chi.(i) and lo = c.clo.(i) in
  for j = 0 to slen - 1 do
    let half = if j < 4 then hi else lo in
    Bytes.unsafe_set k (plen + j)
      (Char.unsafe_chr ((half lsr (8 * (3 - (j land 3)))) land 0xFF))
  done;
  if h <> 0 then Pool.blob_blit t.pool h k (plen + 8);
  Bytes.unsafe_to_string k

(* Lexicographic order of [k]'s bytes from [off] against [s]. *)
let rec compare_from k off s i =
  let lk = String.length k - off and ls = String.length s in
  if i = lk || i = ls then Int.compare lk ls
  else
    let c = Char.compare (String.unsafe_get k (off + i)) (String.unsafe_get s i) in
    if c <> 0 then c else compare_from k off s (i + 1)

(* Forward scan of one trie layer.  [prefix] is the key bytes consumed by
   enclosing layers; [lower]/[strict] bound the within-layer fragment.
   Entries order against the bound by slice; only a slice tie compares
   bytes.  Emission raises Scan_done to stop everywhere. *)
let rec scan_layer t root_ref prefix lower strict emit =
  let c = new_cursor () in
  let plen = String.length prefix in
  let rec run lower strict =
    let b, v =
      find_border t root_ref ~hi:(Key.slice_hi lower ~off:0)
        ~lo:(Key.slice_lo lower ~off:0)
    in
    (* A collapsed layer's root stays deleted (and isroot) forever:
       re-descending within this layer would loop, so escape to the
       layer-0 retry, which resumes past the collapsed subtree. *)
    if Version.deleted v then raise Restart;
    walk b lower strict
  and walk b lower strict =
    if not (cursor_fill t c b ~expect:no_expect) then
      (* Node deleted under us: re-descend from the current bound. *)
      run lower strict
    else begin
      let lhi = Key.slice_hi lower ~off:0 and llo = Key.slice_lo lower ~off:0 in
      for i = 0 to c.cn - 1 do
        let cs = Key.compare_parts c.chi.(i) c.clo.(i) lhi llo in
        match c.clv.(i) with
        | Layer r when cs = 0 && String.length lower > 8 ->
            scan_layer t r (cursor_key t c i prefix)
              (String.sub lower 8 (String.length lower - 8))
              strict emit
        | Layer r when cs >= 0 ->
            (* Above the bound, or the bound is a prefix of this slice, so
               every key in the subtree (slice bytes plus at least one
               more) exceeds it. *)
            scan_layer t r (cursor_key t c i prefix) "" false emit
        | Value v when cs > 0 -> emit (cursor_key t c i prefix) v
        | Value v when cs = 0 ->
            let k = cursor_key t c i prefix in
            let cmp = compare_from k plen lower 0 in
            if cmp > 0 || (cmp = 0 && not strict) then emit k v
        | Layer _ | Value _ | Empty -> () (* below the bound *)
      done;
      match c.cnext with
      | Some nx ->
          (* Keys a split moves right after this fill must not be
             emitted twice: the next node starts strictly after this
             node's last entry. *)
          if c.cn > 0 then walk nx (cursor_key t c (c.cn - 1) "") true
          else walk nx lower strict
      | None -> ()
    end
  in
  run lower strict

let scan t ?(start = "") ?stop ~limit f =
  Stats.incr t.tstats Stats.Scans;
  if limit <= 0 then 0
  else
    pinned t (fun () ->
        let count = ref 0 in
        (* Restart (deleted node / collapsed layer) resumes strictly after
           the last emitted key so nothing is emitted twice. *)
        let resume = ref start and strict = ref false in
        let emit k v =
          (match stop with
          | Some s when String.compare k s >= 0 -> raise Scan_done
          | _ -> ());
          f k v;
          resume := k;
          strict := true;
          incr count;
          if !count >= limit then raise Scan_done
        in
        let rec attempt () =
          try scan_layer t t.root "" !resume !strict emit
          with Restart ->
            Stats.incr t.tstats Stats.Root_retries;
            Schedpoint.spin sp_restart_spin;
            attempt ()
        in
        (try attempt () with Scan_done -> ());
        !count)

(* Reverse scan: rather than chasing prev pointers (whose protection is
   awkward for lock-free readers), each step re-descends to the border
   containing the largest slice below the previous node's lowkey.  One
   O(depth) descent per node visited. *)
let rec scan_rev_layer t root_ref prefix upper emit =
  (* [upper = None] means unbounded above within this layer. *)
  let max_half = 0xFFFFFFFF in
  let c = new_cursor () in
  let plen = String.length prefix in
  let uhi, ulo =
    match upper with
    | None -> (max_half, max_half)
    | Some u -> (Key.slice_hi u ~off:0, Key.slice_lo u ~off:0)
  in
  let rec run bhi blo upper =
    let b, v = find_border t root_ref ~hi:bhi ~lo:blo in
    if Version.deleted v then raise Restart;
    (* [expect:v] pins the fill to the version the descent validated: a
       split between descent and fill re-descends instead of returning a
       node that no longer covers the bound. *)
    if not (cursor_fill t c b ~expect:v) then run bhi blo upper
    else begin
      for i = c.cn - 1 downto 0 do
        let cs =
          match upper with
          | None -> -1
          | Some _ -> Key.compare_parts c.chi.(i) c.clo.(i) uhi ulo
        in
        match (c.clv.(i), upper) with
        | Layer r, _ when cs < 0 -> scan_rev_layer t r (cursor_key t c i prefix) None emit
        | Layer r, Some u when cs = 0 && String.length u > 8 ->
            scan_rev_layer t r (cursor_key t c i prefix)
              (Some (String.sub u 8 (String.length u - 8)))
              emit
        | Value v, _ when cs < 0 -> emit (cursor_key t c i prefix) v
        | Value v, Some u when cs = 0 ->
            let k = cursor_key t c i prefix in
            if compare_from k plen u 0 <= 0 then emit k v
        | _ ->
            (* Above the bound, or a layer whose keys all extend a bound
               equal to its slice. *)
            ()
      done;
      let lhi = b.blowhi and llo = b.blowlo in
      if lhi > 0 || llo > 0 then
        if llo > 0 then run lhi (llo - 1) None else run (lhi - 1) max_half None
    end
  in
  run uhi ulo upper

let scan_rev t ?start ?stop ~limit f =
  Stats.incr t.tstats Stats.Scans;
  if limit <= 0 then 0
  else
    pinned t (fun () ->
        let count = ref 0 in
        let bound = ref start and strict = ref false in
        let emit k v =
          (match stop with
          | Some s when String.compare k s < 0 -> raise Scan_done
          | _ -> ());
          (* Skip duplicates when a Restart replays a partially-scanned
             region: only keys strictly below the last emitted one count. *)
          let skip =
            match !bound with
            | Some b -> if !strict then String.compare k b >= 0 else String.compare k b > 0
            | None -> false
          in
          if not skip then begin
            f k v;
            incr count;
            bound := Some k;
            strict := true
          end;
          if !count >= limit then raise Scan_done
        in
        let rec attempt () =
          try scan_rev_layer t t.root "" !bound emit
          with Restart ->
            Stats.incr t.tstats Stats.Root_retries;
            Schedpoint.spin sp_restart_spin;
            attempt ()
        in
        (try attempt () with Scan_done -> ());
        !count)

let iter t f = ignore (scan t ~limit:max_int f)

let cardinal t =
  let n = ref 0 in
  iter t (fun _ _ -> incr n);
  !n

(* ------------------------------------------------------------------ *)
(* Structural checking (single-threaded)                               *)
(* ------------------------------------------------------------------ *)

type shape = {
  borders : int;
  interiors : int;
  layers : int;
  entries : int;
  max_depth : int;
  avg_border_fill : float;
}

let shape t =
  let borders = ref 0
  and interiors = ref 0
  and layers = ref 0
  and entries = ref 0
  and max_depth = ref 0 in
  let rec node n depth =
    if depth > !max_depth then max_depth := depth;
    match n with
    | Border b ->
        incr borders;
        let perm = border_perm b in
        entries := !entries + Permutation.size perm;
        List.iter
          (fun slot ->
            match b.blv.(slot) with
            | Layer r ->
                incr layers;
                node !r (depth + 1)
            | Value _ | Empty -> ())
          (Permutation.live_slots perm)
    | Interior i ->
        incr interiors;
        for j = 0 to i.inkeys do
          match i.ichild.(j) with Some c -> node c (depth + 1) | None -> ()
        done
  in
  incr layers;
  node !(t.root) 1;
  {
    borders = !borders;
    interiors = !interiors;
    layers = !layers;
    entries = !entries;
    max_depth = !max_depth;
    avg_border_fill =
      (if !borders = 0 then 0.0
       else float_of_int !entries /. float_of_int (!borders * width));
  }

(* Count reachable pool storage: every reachable border owns one cell,
   plus one blob per nonzero suffix word — stale slots included, since
   removed keys' blobs stay parked until slot reuse or node death.  For
   the leak oracle (single-threaded callers, after a quiesce). *)
let reachable_storage t =
  let cells = ref 0 and blobs = ref 0 in
  let rec node n =
    match n with
    | Border b ->
        incr cells;
        for slot = 0 to width - 1 do
          if suffix_handle b slot <> 0 then incr blobs
        done;
        List.iter
          (fun slot ->
            match b.blv.(slot) with Layer r -> node !r | Value _ | Empty -> ())
          (Permutation.live_slots (border_perm b))
    | Interior i ->
        for j = 0 to i.inkeys do
          match i.ichild.(j) with Some c -> node c | None -> ()
        done
  in
  node !(t.root);
  (!cells, !blobs)

let pool_consistency t =
  let cells, blobs = reachable_storage t in
  Pool.check_leaks t.pool ~reachable_cells:cells ~reachable_blobs:blobs

let check t =
  let exception Bad of string in
  let fail fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt in
  let rec check_layer root =
    (match root with
    | Border b -> check_b b None
    | Interior i -> check_i i None);
    (* Verify the border list of this layer is ordered by lowkey. *)
    let rec leftmost n =
      match n with
      | Border b -> b
      | Interior i -> (
          match i.ichild.(0) with
          | Some c -> leftmost c
          | None -> fail "interior with no child 0")
    in
    let rec walk_list b =
      match b.bnext with
      | None -> ()
      | Some nx ->
          if Key.compare_parts nx.blowhi nx.blowlo b.blowhi b.blowlo <= 0 then
            fail "border list lowkeys not increasing";
          (match nx.bprev with
          | Some p when p == b -> ()
          | _ -> fail "broken prev link");
          walk_list nx
    in
    walk_list (leftmost root)
  and check_b b parent =
    (match Node.check_border b with Ok _ -> () | Error e -> fail "border: %s" e);
    (match (b.bparent, parent) with
    | None, None -> ()
    | Some p, Some q when p == q -> ()
    | _ -> fail "border parent mismatch");
    (* Entries may legitimately sit below the node's creation-time lowkey:
       deletion without rebalancing (§4.3) lets a node inherit the range of
       a deleted left sibling, and leaf coalescing grows a node's range
       rightward.  The load-bearing bound is the upper one, which the
       rightward split-chasing walk relies on. *)
    (match b.bnext with
    | Some nx ->
        List.iter
          (fun slot ->
            if
              Key.compare_parts (slice_hi b slot) (slice_lo b slot) nx.blowhi
                nx.blowlo
              >= 0
            then fail "entry at or above next node's lowkey")
          (Permutation.live_slots (border_perm b))
    | None -> ());
    List.iter
      (fun slot ->
        match b.blv.(slot) with
        | Layer r -> check_layer !r
        | Value _ -> ()
        | Empty -> fail "live empty slot")
      (Permutation.live_slots (border_perm b))
  and check_i i parent =
    (match (i.iparent, parent) with
    | None, None -> ()
    | Some p, Some q when p == q -> ()
    | _ -> fail "interior parent mismatch");
    if i.inkeys < 0 || i.inkeys > width then fail "interior nkeys out of range";
    for j = 1 to i.inkeys - 1 do
      if
        Key.compare_parts (ikey_hi i (j - 1)) (ikey_lo i (j - 1)) (ikey_hi i j)
          (ikey_lo i j)
        >= 0
      then fail "interior keys not sorted"
    done;
    for j = 0 to i.inkeys do
      match i.ichild.(j) with
      | None -> fail "missing child %d" j
      | Some (Border b) -> check_b b (Some i)
      | Some (Interior ci) -> check_i ci (Some i)
    done
  in
  match check_layer !(t.root) with () -> Ok () | exception Bad m -> Error m
