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
   one between a round's touch pass and its step pass, one at each
   in-pipeline trie-layer descent, and one at each in-pipeline
   from-the-root restart — the control transfers the software pipeline
   adds over the plain read protocol (whose tree.get.read /
   tree.get.advance / tree.descend.validate windows the pipeline also
   hits, per flight). *)
let sp_pipeline_round = Schedpoint.define "tree.pipeline.round"
let sp_pipeline_touched = Schedpoint.define "tree.pipeline.touched"
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
  nil : 'v node; (* "no node" for every link of this tree *)
  pool : Pool.t; (* off-heap arena for border payloads *)
  tstats : Stats.t;
  emgr : Epoch.manager;
  handle_key : 'v handle_state Domain.DLS.key;
}

(* [spare] is this domain's idle scan state (see [scan_buf] below),
   reused by its next scan. *)
and 'v handle_state = {
  eh : Epoch.handle;
  mutable ops_since_tick : int;
  mutable spare : 'v scan_buf option;
}

(* A border cursor: the live entries of one border node in key order,
   copied into flat arrays by [cursor_fill] and validated against one
   stable version.  A scan keeps one cursor per trie depth and refills it
   node after node, so walking a layer allocates nothing per entry.
   Suffix handles are copied, not their bytes: a key's bytes are written
   only when it is emitted, ties the bound on its slice, or bounds the
   next node, and they are read from its suffix blob then, after
   validation.  That read is safe because the scan runs under
   [Epoch.pin]: a blob is immutable from allocation until its
   epoch-deferred free, and a handle that validated was owned by its slot
   while this scan was pinned, so its free waits for the unpin
   (docs/CONCURRENCY.md). *)
and 'v cursor = {
  chi : int array;
  clo : int array;
  cklen : int array;
  csuf : int array;
  clv : 'v link_or_value array;
  mutable cn : int; (* live entries *)
  mutable cnext : 'v node; (* the border's next; nil at the layer's end *)
}

(* One scan's reusable state.  [kbuf] holds the key being built: the
   8-byte slices of the enclosing layers, then the current entry's bytes,
   so a key handed to the callback is borrowed — valid until the callback
   returns.  [bnd] holds the bound, layer by layer at the same offsets (a
   forward scan overwrites its layer's part with each hop's bound).
   [last] holds the last emitted key, from which a restarted scan resumes;
   [last_len] is -1 before the first emission.  [cursors.(d)] serves trie
   depth [d]. *)
and 'v scan_buf = {
  mutable kbuf : Bytes.t;
  mutable bnd : Bytes.t;
  mutable last : Bytes.t;
  mutable last_len : int;
  mutable cursors : 'v cursor array;
}

let create () =
  let emgr = Epoch.manager () in
  let pool = Pool.create () in
  let nil = create_nil pool in
  {
    root = ref (new_border nil ~isroot:true ~locked:false ~lowhi:0 ~lowlo:0);
    nil;
    pool;
    tstats = Stats.create ();
    emgr;
    handle_key =
      Domain.DLS.new_key (fun () ->
          { eh = Epoch.register emgr; ops_since_tick = 0; spare = None });
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

let rec stable_climb t root_ref n fuel =
  let v = Version.stable (version n) in
  if Version.is_root v then n
  else
    let p = n.parent in
    if p != t.nil then stable_climb t root_ref p fuel
      (* Transient: the node lost isroot but its new parent is not yet
         visible, or the hint points at a detached node.  Re-read the
         hint; give up to the caller's retry logic if this persists. *)
    else if fuel = 0 then raise Restart
    else stable_climb t root_ref !root_ref (fuel - 1)

(* The descent's baseline version must be the same read that confirmed the
   isroot bit: re-reading after the climb opens a window where the node
   splits, the baseline silently becomes the post-split version, and
   hand-over-hand validation can no longer see that responsibility moved
   right (schedsim: split-vs-get catches exactly this).  So every caller
   re-checks isroot on the version it will descend with, and re-climbs if
   the bit was lost in between. *)
let rec stable_root t root_ref =
  let n = stable_climb t root_ref !root_ref 16 in
  let v = Version.stable (version n) in
  if Version.is_root v then (n, v) else stable_root t root_ref

(* Interior routing: child index = #keys <= (hi, lo), by linear search as
   in the paper.  Slices compare as immediate int pairs. *)
let rec child_scan i nk j ~hi ~lo =
  if j < nk && Key.compare_parts (ikey_hi i j) (ikey_lo i j) hi lo <= 0 then
    child_scan i nk (j + 1) ~hi ~lo
  else j

let child_index i ~hi ~lo = child_scan i (Int.min i.nkeys width) 0 ~hi ~lo

(* The child an interior routes (hi, lo) to: [nil] on a torn read during
   a concurrent shape change.  The index is at most [width], inside the
   [width + 1] slots. *)
let route i ~hi ~lo = Array.unsafe_get i.child (child_index i ~hi ~lo)

(* Hand-over-hand validation at [n] failed (its version moved from [v]).
   If [n] split or was deleted, responsibility for the key may have moved
   to a sibling only the layer root still reaches: count a root retry and
   return -1.  Otherwise count a local retry and return the fresh stable
   version to re-descend from [n] under.  Versions occupy bits 0..53, so
   -1 is never one; the immediate result keeps every caller allocation-
   free. *)
let revalidate t n v =
  let v' = Version.stable (version n) in
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
let chase_right t b ~hi ~lo =
  let nx = b.next in
  if nx != t.nil && Key.compare_parts hi lo nx.lowhi nx.lowlo >= 0 then begin
    Schedpoint.hit sp_get_advance;
    nx
  end
  else b

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
  let n0 = stable_climb t root_ref !root_ref 16 in
  let v0 = Version.stable (version n0) in
  if Version.is_root v0 then fb_descend t root_ref ~hi ~lo n0 v0
  else fb_from_root t root_ref ~hi ~lo

and fb_descend t root_ref ~hi ~lo n v =
  if Version.is_border v then (n, v)
  else begin
    let n' = route n ~hi ~lo in
    if n' == t.nil then
      (* Torn read during a concurrent shape change; revalidate. *)
      fb_revalidate t root_ref ~hi ~lo n v
    else begin
      let v' = Version.stable (version n') in
      (* Hand-over-hand: the child's version is read, the parent's
         about to be revalidated. *)
      Schedpoint.hit sp_descend_validate;
      if not (Version.changed v (Atomic.get (version n))) then
        fb_descend t root_ref ~hi ~lo n' v'
      else fb_revalidate t root_ref ~hi ~lo n v
    end
  end

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
  let lv = if hit < 0 then Empty else b.lv.(hit land 0xF) in
  let suffix_ok =
    match lv with
    | Value _ -> rem <= 8 || suffix_matches b (hit land 0xF) key ~pos:(off + 8)
    | Layer _ | Empty -> false
  in
  (* The §4.5 reader window: contents extracted, version not yet
     revalidated. *)
  Schedpoint.hit sp_get_read;
  (* Validate the snapshot before trusting the extraction. *)
  if Version.changed v (Atomic.get (version b)) then begin
    Stats.incr t.tstats Stats.Local_retries;
    get_walk t key off hi lo rem klen b (Version.stable (version b))
  end
  else
    match lv with
    | Empty -> None
    | Value value -> if suffix_ok then Some value else None
    | Layer r -> if rem > 8 then get_layer t r key (off + 8) else None

and get_walk t key off hi lo rem klen b v =
  if Version.deleted v then raise Restart;
  let nx = chase_right t b ~hi ~lo in
  if nx != b then get_walk t key off hi lo rem klen nx (Version.stable (version nx))
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
   and [chase_right] steps as the sequential path.  Each live lookup
   advances exactly one node per round, and every round runs in two
   passes over the live flights:

   - the touch pass loads, for each flight, every line its next step
     reads ([Node.touch] of the staged node; for a border hit, the
     slot's value box and suffix blob) and does nothing else, so the
     misses of all flights are in flight together;
   - the step pass then runs each flight's step — hand-over-hand
     validation, routing, the border search, the §4.5 conclusion —
     against lines the touch pass already brought in, and stages the
     node the next round will touch.

   A tight pass of independent loads is what overlaps the misses: a
   step is a long chain of dependent work, and a miss in it fills the
   reorder buffer before the next flight's loads issue, while the touch
   pass issues a few loads per flight and moves on.  The node links are
   direct and each version word sits in its node record, so the touch
   of a staged node depends on nothing but the pointer the previous
   step left.  lib/memsim models the resulting stall collapse and
   `bench mlp` measures it, beside the host's own overlap curve.

   Stages are immediates and the staged node a field, so no round
   allocates. *)

let st_root = 0 (* resolve the current layer's root *)
let st_advance = 1 (* [qnode] validated under [qver]: stage the next node *)
let st_child = 2 (* [qnext] staged below [qnode]: validate, then move *)
let st_border = 3 (* [qnext] a border to read under a fresh version *)
let st_hit = 4 (* slot [qhit] of [qnext] matched under [qver]: conclude *)
let st_done = 5 (* [qresult] holds the answer *)
let st_fallback = 6 (* finish on the sequential path *)

type 'v pflight = {
  qkey : Key.t;
  mutable qoff : int; (* current layer's byte offset into qkey *)
  mutable qhi : int;
  mutable qlo : int;
  mutable qrem : int;
  mutable qklen : int;
  mutable qroot : 'v node ref; (* current layer's root (restart target) *)
  mutable qnode : 'v node; (* last validated interior *)
  mutable qver : Version.t; (* its stable version, or a border's snapshot *)
  mutable qstage : int;
  mutable qnext : 'v node; (* the node the touch pass loads *)
  mutable qhit : int; (* search result carried into st_hit *)
  mutable qlv : 'v link_or_value; (* extraction carried into st_hit *)
  mutable qfuel : int; (* restarts allowed before sequential fallback *)
  mutable qresult : 'v option;
}

(* Point [f] at the root of the trie layer that starts at byte [off] of
   its key. *)
let enter_layer f ~off root =
  f.qoff <- off;
  f.qhi <- Key.slice_hi f.qkey ~off;
  f.qlo <- Key.slice_lo f.qkey ~off;
  f.qrem <- String.length f.qkey - off;
  f.qklen <- Int.min f.qrem suffix_len_marker;
  f.qroot <- root;
  f.qstage <- st_root

let new_flight t key =
  let f =
    { qkey = key; qoff = 0; qhi = 0; qlo = 0; qrem = 0; qklen = 0; qroot = t.root;
      qnode = t.nil; qver = 0; qstage = st_root; qnext = t.nil; qhit = -1;
      qlv = Empty; qfuel = 16; qresult = None }
  in
  enter_layer f ~off:0 t.root;
  f

let finish f r =
  f.qresult <- r;
  f.qstage <- st_done

(* Re-enter the pipeline at a layer root.  Bounded by per-flight fuel,
   after which the flight is handed to the sequential path (whose
   [tree.restart.spin] loop guarantees progress). *)
let restart_flight t f ~off root =
  Stats.incr t.tstats Stats.Pipeline_restarts;
  Schedpoint.hit sp_pipeline_restart;
  f.qfuel <- f.qfuel - 1;
  if f.qfuel <= 0 then f.qstage <- st_fallback else enter_layer f ~off root

(* From the layer-0 root: the pipelined equivalent of raising [Restart]
   into [get_attempt]. *)
let restart0 t f =
  Stats.incr t.tstats Stats.Root_retries;
  restart_flight t f ~off:0 t.root

(* Hand-over-hand validation at [f.qnode] failed: re-enter from the
   current layer's root when [revalidate] says a split moved
   responsibility somewhere only the root still reaches (it has counted
   the root retry), else re-stage from the same node under its fresh
   version. *)
let revalidate_flight t f =
  let v' = revalidate t f.qnode f.qver in
  if v' < 0 then restart_flight t f ~off:f.qoff f.qroot
  else begin
    f.qver <- v';
    f.qstage <- st_advance
  end

(* From the validated interior [f.qnode], stage the child the key routes
   to; the next round touches it before stepping there. *)
let stage_child t f =
  let c = route f.qnode ~hi:f.qhi ~lo:f.qlo in
  if c == t.nil then (* Torn read during a concurrent shape change. *)
    revalidate_flight t f
  else begin
    f.qnext <- c;
    f.qstage <- st_child
  end

(* One [chase_right] hop (get_walk in-pipeline): read the right sibling
   next round.  False when the key stays in [b]. *)
let chase_flight t f b =
  let nx = chase_right t b ~hi:f.qhi ~lo:f.qlo in
  nx != b
  && begin
       f.qnext <- nx;
       f.qstage <- st_border;
       true
     end

(* Common tail of a border read: validate the version snapshot the
   extraction happened under (the §4.5 reader window, same shape as
   get_forward — from st_hit the window spans a whole extra round, which
   only raises the retry rate, never trusts a torn read), then act on the
   extraction. *)
let conclude t f b v lv ~suffix_ok =
  Schedpoint.hit sp_get_read;
  if Version.changed v (Atomic.get (version b)) then begin
    Stats.incr t.tstats Stats.Local_retries;
    if Version.deleted (Version.stable (version b)) then restart0 t f
    else if not (chase_flight t f b) then begin
      (* Not covered by a sibling: re-read this border next round. *)
      f.qnext <- b;
      f.qstage <- st_border
    end
  end
  else
    match lv with
    | Value value when suffix_ok -> finish f (Some value)
    | Layer r when f.qrem > 8 ->
        (* Descend one trie layer without leaving the pipeline. *)
        Schedpoint.hit sp_pipeline_layer;
        enter_layer f ~off:(f.qoff + 8) r
    | Layer _ -> finish f None
    | Value _ | Empty ->
        (* Not here — but a split that completed before this (fresh)
           version snapshot can have moved the key right; the chase
           settles it in-pipeline. *)
        if not (chase_flight t f b) then finish f None

(* The §4.5 read of a touched border under its stable snapshot [v].  A
   value hit is concluded next round, once the touch pass has loaded the
   value box and the suffix blob the conclusion reads. *)
let step_border t f b v =
  if Version.deleted v then restart0 t f
  else begin
    let hit = search_hit b (border_perm b) ~hi:f.qhi ~lo:f.qlo ~klen:f.qklen in
    (* Extract while the snapshot is live, validate before trusting. *)
    let lv = if hit < 0 then Empty else Array.unsafe_get b.lv (hit land 0xF) in
    match lv with
    | Value _ ->
        f.qnext <- b;
        f.qver <- v;
        f.qhit <- hit;
        f.qlv <- lv;
        f.qstage <- st_hit
    | Layer _ | Empty -> conclude t f b v lv ~suffix_ok:false
  end

(* Arrive at [n], validated under [v]: read it now if it is a border (the
   touch pass has loaded it), else stage its child. *)
let arrive t f n v =
  if Version.is_border v then step_border t f n v
  else begin
    f.qnode <- n;
    f.qver <- v;
    stage_child t f
  end

let rec step_root t f fuel =
  match stable_climb t f.qroot !(f.qroot) 16 with
  | n ->
      let v = Version.stable (version n) in
      if Version.is_root v then arrive t f n v
      else if fuel > 0 then step_root t f (fuel - 1)
      else restart0 t f
  | exception Restart -> restart0 t f

let step t f =
  let s = f.qstage in
  if s = st_child then begin
    (* Hand-over-hand: stabilize the child before revalidating the
       parent, exactly as fb_descend. *)
    let c = f.qnext in
    let v' = Version.stable (version c) in
    Schedpoint.hit sp_descend_validate;
    if Version.changed f.qver (Atomic.get (version f.qnode)) then revalidate_flight t f
    else arrive t f c v'
  end
  else if s = st_hit then begin
    let b = f.qnext in
    let suffix_ok =
      f.qrem <= 8 || suffix_matches b (f.qhit land 0xF) f.qkey ~pos:(f.qoff + 8)
    in
    conclude t f b f.qver f.qlv ~suffix_ok
  end
  else if s = st_border then step_border t f f.qnext (Version.stable (version f.qnext))
  else if s = st_advance then stage_child t f
  else step_root t f 16

(* The touch pass's per-flight loads: what [step] reads next. *)
let touch_flight f =
  let s = f.qstage in
  if s = st_child || s = st_border then Node.touch f.qnext
  else if s = st_hit then begin
    (match f.qlv with
    | Value v -> ignore (Sys.opaque_identity v)
    | Layer _ | Empty -> ());
    if f.qrem > 8 then prefetch_suffix f.qnext (f.qhit land 0xF)
  end
  else if s = st_root then Node.touch !(f.qroot)

(* Round loop: a touch pass, then a step pass; a flight that is done
   skips both.  The round budget bounds pathological churn; a flight
   that outlives it finishes on the sequential path. *)
let run_flights t flights =
  let n = Array.length flights in
  let live = ref n and rounds = ref 256 in
  while !live > 0 && !rounds > 0 do
    decr rounds;
    Schedpoint.hit sp_pipeline_round;
    for i = 0 to n - 1 do
      let f = Array.unsafe_get flights i in
      if f.qstage < st_done then touch_flight f
    done;
    Schedpoint.hit sp_pipeline_touched;
    live := 0;
    for i = 0 to n - 1 do
      let f = Array.unsafe_get flights i in
      if f.qstage < st_done then begin
        step t f;
        if f.qstage < st_done then incr live
      end
    done
  done

let multi_get t keys =
  (* Count one get per key, matching the plain path, so obs throughput
     agrees between batched and unbatched front ends. *)
  Stats.add t.tstats Stats.Gets (Array.length keys);
  pinned t (fun () ->
      let flights = Array.map (new_flight t) keys in
      run_flights t flights;
      Array.map
        (fun f -> if f.qstage = st_done then f.qresult else get_attempt t f.qkey)
        flights)

let multi_get_pipelined = multi_get

(* ------------------------------------------------------------------ *)
(* Writer-side locking helpers                                         *)
(* ------------------------------------------------------------------ *)

(* Figure 4's lockedparent: lock the parent, then confirm it is still the
   parent (a concurrent split of the parent may have moved us).  [nil]
   when [n] is its layer's root. *)
let rec locked_parent t n =
  let p = n.parent in
  if p == t.nil then p
  else begin
    Version.lock (version p);
    if n.parent == p then p
    else begin
      Version.unlock (version p);
      locked_parent t n
    end
  end

(* With b locked, chase splits right until b is responsible for the key,
   and fail over to a full restart if b was deleted meanwhile.  No two
   border locks are ever held at once here, so there is no deadlock with
   split's up-the-tree ordering. *)
let rec advance_locked t b ~hi ~lo =
  if Version.deleted (Atomic.get (version b)) then begin
    Version.unlock (version b);
    raise Restart
  end;
  let nx = b.next in
  if nx != t.nil && Key.compare_parts hi lo nx.lowhi nx.lowlo >= 0 then begin
    Version.unlock (version b);
    Version.lock (version nx);
    advance_locked t nx ~hi ~lo
  end
  else b

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
    mlv = b.lv.(slot);
  }

let write_mentry b slot e =
  set_entry b slot ~hi:e.mhi ~lo:e.mlo ~klen:e.mklen ~h:e.msuf;
  b.lv.(slot) <- e.mlv

(* Insert into a border node with room, following the §4.6.2 protocol: fill
   a free slot, then publish with one permutation store.  Reusing a slot
   that held a removed key dirties the node so readers between the old
   permutation and the new contents retry (§4.6.5); the removed key's
   suffix blob, which stayed readable on the stale slot until now, is
   retired here under the same vinsert bump. *)
let insert_into_slots t b ~pos e =
  let perm = border_perm b in
  let slot = Permutation.free_slot perm in
  if b.stale land (1 lsl slot) <> 0 then begin
    Stats.incr t.tstats Stats.Slot_reuses;
    Version.mark_inserting (version b);
    b.stale <- b.stale land lnot (1 lsl slot);
    let h = suffix_handle b slot in
    if h <> 0 then Pool.retire_blob b.pool (handle t).eh h
  end;
  write_mentry b slot e;
  (* §4.6.2: entry written into its slot, not yet published — readers
     using the old permutation cannot see it. *)
  Schedpoint.hit sp_put_slot_written;
  Atomic.set b.perm (Permutation.insert perm ~pos :> int);
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
  let p = locked_parent t n in
  if p == t.nil then begin
    (* n was the root of this layer's B+-tree: grow the tree upward. *)
    let p = new_interior t.nil ~isroot:true ~locked:false in
    p.nkeys <- 1;
    set_ikey p 0 ~hi:sephi ~lo:seplo;
    p.child.(0) <- n;
    p.child.(1) <- nn;
    n.parent <- p;
    nn.parent <- p;
    Version.set_root (version n) false;
    root_ref := p;
    (* New root published; the split pair is still locked. *)
    Schedpoint.hit sp_split_root;
    Version.unlock (version n);
    Version.unlock (version nn)
  end
  else begin
    (* Split hand-off (Figure 5): parent locked, new sibling not yet
       reachable from it. *)
    Schedpoint.hit sp_split_ascend;
    if p.nkeys < width then begin
      Version.mark_inserting (version p);
      let pos = child_index p ~hi:sephi ~lo:seplo in
      for j = p.nkeys downto pos + 1 do
        copy_ikey p ~dst:j ~src:(j - 1);
        p.child.(j + 1) <- p.child.(j)
      done;
      set_ikey p pos ~hi:sephi ~lo:seplo;
      p.child.(pos + 1) <- nn;
      p.nkeys <- p.nkeys + 1;
      nn.parent <- p;
      Version.unlock (version n);
      Version.unlock (version nn);
      Version.unlock (version p)
    end
    else begin
      Stats.incr t.tstats Stats.Splits_interior;
      Version.mark_splitting (version p);
      Version.unlock (version n);
      let pos = child_index p ~hi:sephi ~lo:seplo in
      (* Combined key/child sequences with the new separator spliced in. *)
      let khi = Array.make (width + 1) 0 in
      let klo = Array.make (width + 1) 0 in
      let children = Array.make (width + 2) nn in
      for j = 0 to width - 1 do
        let dst = if j < pos then j else j + 1 in
        khi.(dst) <- ikey_hi p j;
        klo.(dst) <- ikey_lo p j
      done;
      khi.(pos) <- sephi;
      klo.(pos) <- seplo;
      for j = 0 to width do
        let dst = if j <= pos then j else j + 1 in
        children.(dst) <- p.child.(j)
      done;
      let h = (width + 1) / 2 in
      let uphi = khi.(h) and uplo = klo.(h) in
      let pp = new_interior t.nil ~isroot:false ~locked:true in
      Version.mark_splitting (version pp);
      pp.nkeys <- width - h;
      for j = h + 1 to width do
        set_ikey pp (j - h - 1) ~hi:khi.(j) ~lo:klo.(j)
      done;
      for j = h + 1 to width + 1 do
        pp.child.(j - h - 1) <- children.(j);
        children.(j).parent <- pp
      done;
      p.nkeys <- h;
      for j = 0 to h - 1 do
        set_ikey p j ~hi:khi.(j) ~lo:klo.(j)
      done;
      for j = 0 to h do
        p.child.(j) <- children.(j);
        children.(j).parent <- p
      done;
      for j = h + 1 to width do
        p.child.(j) <- t.nil
      done;
      Version.unlock (version nn);
      ascend t root_ref p pp ~sephi:uphi ~seplo:uplo
    end
  end

(* Split a full border node (locked) while inserting a new entry whose
   sorted position is [pos].  Implements the sequential-insert optimization:
   an append into the rightmost node leaves all existing keys in place. *)
let split_border t root_ref b ~pos e =
  Stats.incr t.tstats Stats.Splits_border;
  Version.mark_splitting (version b);
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
    && b.next == t.nil
    && (combined.(nold - 1).mhi <> e.mhi || combined.(nold - 1).mlo <> e.mlo)
  in
  let m = if sequential_append then nold else pick_boundary combined in
  let nb =
    new_border t.nil ~isroot:false ~locked:true ~lowhi:combined.(m).mhi
      ~lowlo:combined.(m).mlo
  in
  Version.mark_splitting (version nb);
  let right_count = nold + 1 - m in
  for j = m to nold do
    write_mentry nb (j - m) combined.(j);
    (* Ownership of the suffix blob moved with the entry: zero the source
       word so the blob is never retired twice (the vsplit bump this split
       publishes invalidates any reader that raced the zeroing). *)
    if slots.(j) >= 0 then set_suffix_handle b slots.(j) 0
  done;
  Atomic.set nb.perm (Permutation.sorted right_count :> int);
  if pos < m then begin
    (* The new entry lands on the left: keep the m-1 surviving old entries,
       then run the normal insert protocol into the freed space. *)
    Atomic.set b.perm (Permutation.keep_prefix perm ~n:(m - 1) :> int);
    insert_into_slots t b ~pos e
  end
  else Atomic.set b.perm (Permutation.keep_prefix perm ~n:m :> int);
  (* Entries migrated: the left node's permutation no longer covers them,
     the right sibling is not yet linked anywhere. *)
  Schedpoint.hit sp_split_migrated;
  (* Link the new sibling.  nx's prev pointer is protected by the lock of
     its new previous sibling, nb, which we hold. *)
  nb.next <- b.next;
  nb.prev <- b;
  if b.next != t.nil then b.next.prev <- nb;
  b.next <- nb;
  (* §4.6.4 hand-off window: the sibling is reachable through the border
     list but not yet from any parent, and both halves stay
     split-dirty. *)
  Schedpoint.hit sp_split_linked;
  ascend t root_ref b nb ~sephi:nb.lowhi ~seplo:nb.lowlo

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
  let b = new_border t.nil ~isroot:true ~locked:false ~lowhi:0 ~lowlo:0 in
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
    Atomic.set b.perm (Permutation.sorted 1 :> int)
  end
  else begin
    let ea = entry_of ka ahi alo va and eb = entry_of kb bhi blo vb in
    let first, second =
      if entry_cmp ea.mhi ea.mlo ea.mklen eb.mhi eb.mlo eb.mklen < 0 then (ea, eb)
      else (eb, ea)
    in
    write_mentry b 0 first;
    write_mentry b 1 second;
    Atomic.set b.perm (Permutation.sorted 2 :> int)
  end;
  ref b

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
      match b.lv.(slot) with
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
  Version.lock (version b);
  let b = advance_locked t b ~hi ~lo in
  match locate b ~hi ~lo ~rem ~key ~off with
  | At (_, slot) ->
      let old = match b.lv.(slot) with Value v -> v | Layer _ | Empty -> assert false in
      (* Value replacement is one atomic store: readers see old or new,
         no version bump, no retries (§4.6.1). *)
      b.lv.(slot) <- Value (upd_present u old);
      Schedpoint.hit sp_put_replaced;
      Version.unlock (version b);
      Some old
  | At_layer (_, _, r) ->
      Version.unlock (version b);
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
      b.lv.(slot) <- Layer layer;
      Schedpoint.hit sp_layer_published;
      Version.unlock (version b);
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
        Version.unlock (version b)
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
   as split's ascend, so no cycle with any other writer (delete_border
   takes right-before-left but only via trylock).  Failure to qualify at
   any step just unlocks and gives up — coalescing is an optimization. *)
let try_coalesce t b =
  (* b locked, live, size <= merge_threshold. *)
  let nx = b.next in
  if Version.is_root (Atomic.get (version b)) || nx == t.nil then Version.unlock (version b)
  else begin
    Version.lock (version nx);
    let sb = Permutation.size (border_perm b) in
    let sn = Permutation.size (border_perm nx) in
    let p =
      if Version.deleted (Atomic.get (version nx)) || sb + sn > merge_max then t.nil
      else locked_parent t b
    in
    let bi = ref (-1) in
    if p != t.nil then
      for j = 0 to p.nkeys do
        if p.child.(j) == b then bi := j
      done;
    let adjacent = !bi >= 0 && !bi < p.nkeys && p.child.(!bi + 1) == nx in
    if not adjacent then begin
      if p != t.nil then Version.unlock (version p);
      Version.unlock (version nx);
      Version.unlock (version b)
    end
    else begin
      Stats.incr t.tstats Stats.Leaf_merges;
      Stats.incr t.tstats Stats.Node_deletes;
      Version.mark_splitting (version b);
      Version.mark_deleted (version nx);
      Schedpoint.hit sp_merge_begin;
      (* Migrate nx's live entries — all greater than b's keys — into b's
         free slots, then publish with one permutation store.  Blob
         ownership moves; source words are zeroed so the dead node's
         sweep cannot double-retire. *)
      let eh = (handle t).eh in
      let perm = ref (border_perm b) in
      let nperm = border_perm nx in
      for i = 0 to sn - 1 do
        let src = Permutation.get nperm i in
        let q = !perm in
        let dst = Permutation.free_slot q in
        (if b.stale land (1 lsl dst) <> 0 then begin
           b.stale <- b.stale land lnot (1 lsl dst);
           (* The vsplit bump already forces every reader to retry; just
              release the stale slot's old blob. *)
           let h = suffix_handle b dst in
           if h <> 0 then Pool.retire_blob b.pool eh h
         end);
        write_mentry b dst (read_mentry nx src);
        set_suffix_handle nx src 0;
        perm := Permutation.insert q ~pos:(Permutation.size q)
      done;
      Atomic.set b.perm (!perm :> int);
      (* Entries published in b; nx still linked and routed-to. *)
      Schedpoint.hit sp_merge_migrated;
      (* Border-list repair: nx's successor's prev is protected by nx's
         lock, which we hold. *)
      b.next <- nx.next;
      if nx.next != t.nil then nx.next.prev <- b;
      (* Parent repair: drop nx and the separator between b and nx (key
         index bi, child index bi+1). *)
      Version.mark_inserting (version p);
      let k = p.nkeys in
      let i = !bi in
      for j = i to k - 2 do
        copy_ikey p ~dst:j ~src:(j + 1)
      done;
      for j = i + 1 to k - 1 do
        p.child.(j) <- p.child.(j + 1)
      done;
      p.child.(k) <- t.nil;
      p.nkeys <- k - 1;
      retire_storage nx eh;
      Version.unlock (version nx);
      Version.unlock (version p);
      Version.unlock (version b);
      Schedpoint.hit sp_merge_done
    end
  end

(* Delete the empty, locked, non-root border [b] — or keep it, which is
   always safe: deletion only saves space.

   A deleted border's range must go to its left neighbour, whose range
   then grows rightward as a split's or merge's does, so every border's
   lowkey stays the exact lower bound of its range.  A border that is
   its parent's child 0 has no left neighbour under that parent: its
   range would pass to the right sibling, below that sibling's lowkey,
   and a later split of the sibling would leave the border list's
   lowkeys out of order (a reverse scan, which steps down by lowkeys,
   then revisits one node forever).  So child 0 stays, empty, like the
   layer's leftmost border; an interior therefore never loses its last
   child.

   Locks: b, then its parent (the child-then-parent order of split),
   then — trylock only, never waiting while the parent is held — the
   left neighbour, whose [next] the unlink rewrites.  The paper uses
   flagged CAS for the unlink; a bounded trylock that gives up keeps the
   same lock-order guarantees (DESIGN.md §5). *)
let delete_border t b =
  let p = locked_parent t b in
  let keep () =
    if p != t.nil then Version.unlock (version p);
    Version.unlock (version b)
  in
  let i = ref (-1) in
  if p != t.nil then
    for j = 0 to p.nkeys do
      if p.child.(j) == b then i := j
    done;
  let i = !i in
  if i < 0 then keep ()
  else if i = 0 then begin
    (* Empty child 0: absorb the right sibling instead, if it fits. *)
    Version.unlock (version p);
    try_coalesce t b
  end
  else begin
    let prev = b.prev and bo = Xutil.Backoff.create () in
    let rec lock_prev tries =
      Version.try_lock (version prev)
      || tries > 0
         && begin
              Schedpoint.spin sp_remove_unlink_spin;
              Xutil.Backoff.once bo;
              lock_prev (tries - 1)
            end
    in
    if not (lock_prev 8) then keep ()
    else if Version.deleted (Atomic.get (version prev)) || prev.next != b then begin
      Version.unlock (version prev);
      keep ()
    end
    else begin
      Stats.incr t.tstats Stats.Node_deletes;
      Version.mark_deleted (version b);
      prev.next <- b.next;
      if b.next != t.nil then b.next.prev <- prev;
      Version.unlock (version prev);
      Schedpoint.hit sp_remove_unlinked;
      (* Epoch-retire the cell and any suffix blobs still parked on the
         dead node (live entries were already cut; stale slots may still
         own blobs).  Pinned readers racing the §4.5 window keep
         validating against intact storage until the deferred free
         runs. *)
      retire_storage b (handle t).eh;
      (* Drop child i >= 1 and its separator, key i - 1: child i - 1
         takes over the range. *)
      Version.mark_inserting (version p);
      let k = p.nkeys in
      for j = i - 1 to k - 2 do
        copy_ikey p ~dst:j ~src:(j + 1)
      done;
      for j = i to k - 1 do
        p.child.(j) <- p.child.(j + 1)
      done;
      p.child.(k) <- t.nil;
      p.nkeys <- k - 1;
      Version.unlock (version b);
      Version.unlock (version p)
    end
  end

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
          match b.lv.(hit land 0xF) with
          | Layer r -> go r (off + 8)
          | Value _ | Empty -> raise Not_found)
    end
  in
  go t.root 0

(* b just became empty (locked).  Decide its fate: layer roots stay but may
   trigger a collapse of the whole layer; anything else goes to
   [delete_border], which keeps a parent's child 0 (and with it the
   leftmost border of a tree, the paper's invariant). *)
let rec handle_empty t b key off =
  Schedpoint.hit sp_remove_empty;
  let v = Atomic.get (version b) in
  if Version.is_root v then begin
    Version.unlock (version b);
    if off > 0 then
      (* An empty non-root layer: schedule a collapse task that re-descends
         by key prefix and unlinks the layer if still empty (§4.6.5). *)
      Epoch.schedule t.emgr (fun () -> try_collapse_layer t key off)
  end
  else delete_border t b

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
          Version.lock (version b);
          Some (advance_locked t b ~hi ~lo)
        with Restart -> None
      with
      | None -> ()
      | Some b -> (
          match search_hit b (border_perm b) ~hi ~lo ~klen:suffix_len_marker with
          | -1 -> Version.unlock (version b)
          | hit -> (
              let pos = hit lsr 4 and slot = hit land 0xF in
              match b.lv.(slot) with
              | Value _ | Empty -> Version.unlock (version b)
              | Layer r -> (
                  match try Some (stable_root t r) with Restart -> None with
                  | Some (cb, cv0) when Version.is_border cv0 ->
                      Version.lock (version cb);
                      let cv = Atomic.get (version cb) in
                      let empty_leaf_layer =
                        Version.is_root cv
                        && (not (Version.deleted cv))
                        && Permutation.size (border_perm cb) = 0
                        && cb.next == t.nil
                      in
                      if empty_leaf_layer then begin
                        Version.mark_deleted (version cb);
                        (* The dead layer root's storage (cell plus any
                           stale-slot blobs) goes back to the pool once
                           racing readers drain. *)
                        retire_storage cb (handle t).eh;
                        Version.unlock (version cb);
                        let perm = border_perm b in
                        Atomic.set b.perm (Permutation.remove perm ~pos :> int);
                        b.stale <- b.stale lor (1 lsl slot);
                        Stats.incr t.tstats Stats.Layer_collapses;
                        Schedpoint.hit sp_collapse_done;
                        if Permutation.size (border_perm b) = 0 then
                          handle_empty t b key (off - 8)
                        else Version.unlock (version b)
                      end
                      else begin
                        Version.unlock (version cb);
                        Version.unlock (version b)
                      end
                  | Some _ | None -> Version.unlock (version b)))))

let rec remove_layer t root_ref key off pred =
  let hi = Key.slice_hi key ~off and lo = Key.slice_lo key ~off in
  let rem = String.length key - off in
  let b, _ = find_border t root_ref ~hi ~lo in
  Version.lock (version b);
  let b = advance_locked t b ~hi ~lo in
  match locate b ~hi ~lo ~rem ~key ~off with
  | At_layer (_, _, r) ->
      Version.unlock (version b);
      remove_layer t r key (off + 8) pred
  | Suffix_clash _ ->
      Version.unlock (version b);
      None
  | Absent _ ->
      Version.unlock (version b);
      None
  | At (pos, slot) ->
      let old = match b.lv.(slot) with Value v -> v | Layer _ | Empty -> assert false in
      if not (pred old) then begin
        Version.unlock (version b);
        None
      end
      else begin
        let perm = border_perm b in
        let perm' = Permutation.remove perm ~pos in
        (* The slot's contents — suffix blob included — stay readable for
           concurrent readers; the stale bit forces a vinsert bump (and
           the blob's retirement) when an insert reuses the slot. *)
        Atomic.set b.perm (perm' :> int);
        Schedpoint.hit sp_remove_cut;
        b.stale <- b.stale lor (1 lsl slot);
        let sz = Permutation.size perm' in
        if sz = 0 then handle_empty t b key off
        else if sz <= merge_threshold then try_coalesce t b
        else Version.unlock (version b);
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
  Version.lock (version b);
  let b = advance_locked t b ~hi ~lo in
  match locate b ~hi ~lo ~rem ~key ~off with
  | At (_, slot) ->
      let old = match b.lv.(slot) with Value v -> v | Layer _ | Empty -> assert false in
      b.lv.(slot) <- Value (f old);
      Schedpoint.hit sp_put_replaced;
      Version.unlock (version b);
      true
  | At_layer (_, _, r) ->
      Version.unlock (version b);
      update_layer t r key (off + 8) f
  | Suffix_clash _ | Absent _ ->
      Version.unlock (version b);
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

let new_cursor nil =
  {
    chi = Array.make width 0;
    clo = Array.make width 0;
    cklen = Array.make width 0;
    csuf = Array.make width 0;
    clv = Array.make width Empty;
    cn = 0;
    cnext = nil;
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
  let v = Version.stable (version b) in
  if Version.deleted v || (expect <> no_expect && Version.vsplit v <> Version.vsplit expect)
  then false
  else begin
    let perm = border_perm b in
    let n = Permutation.size perm in
    copy_entries b perm n ~hi:c.chi ~lo:c.clo ~klen:c.cklen ~suf:c.csuf ~lv:c.clv;
    c.cn <- n;
    c.cnext <- b.next;
    (* Scan's validation window: a whole node copied out, not yet
       checked (the §4.6.5 scan-vs-split/remove hazard). *)
    Schedpoint.hit sp_snapshot_read;
    let v' = Atomic.get (version b) in
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

(* ---- the scan state's buffers ---- *)

let new_scan_buf nil =
  {
    kbuf = Bytes.create 64;
    bnd = Bytes.create 64;
    last = Bytes.create 64;
    last_len = -1;
    cursors = [| new_cursor nil |];
  }

(* [b] grown to hold [n] bytes, its contents kept. *)
let grown b n =
  if n <= Bytes.length b then b
  else begin
    let nb = Bytes.create (Int.max n (2 * Bytes.length b)) in
    Bytes.blit b 0 nb 0 (Bytes.length b);
    nb
  end

let cursor_at t sb depth =
  if depth >= Array.length sb.cursors then
    sb.cursors <-
      Array.init (depth + 1) (fun d ->
          if d < Array.length sb.cursors then sb.cursors.(d) else new_cursor t.nil);
  sb.cursors.(depth)

(* The bytes entry [i] stands for within its layer: its slice bytes, then
   its suffix.  A layer entry stands for its 8 slice bytes: any suffix
   left in its slot is stale data from before the layer was created. *)
let entry_len t c i =
  let klen = c.cklen.(i) in
  match c.clv.(i) with
  | Value _ when klen > 8 -> 8 + Pool.blob_len t.pool c.csuf.(i)
  | _ -> Int.min klen 8

let write_slice dst pos hi lo slen =
  for j = 0 to slen - 1 do
    let half = if j < 4 then hi else lo in
    Bytes.unsafe_set dst (pos + j)
      (Char.unsafe_chr ((half lsr (8 * (3 - (j land 3)))) land 0xFF))
  done

(* Write entry [i]'s bytes into [dst] at [pos]; [dst] holds
   [pos + entry_len t c i] bytes. *)
let write_entry t c i dst pos =
  let klen = c.cklen.(i) in
  write_slice dst pos c.chi.(i) c.clo.(i) (Int.min klen 8);
  match c.clv.(i) with
  | Value _ when klen > 8 -> Pool.blob_blit t.pool c.csuf.(i) dst (pos + 8)
  | _ -> ()

(* Build entry [i]'s key in [sb.kbuf] after the [plen] bytes of the
   enclosing layers' slices; returns the key's length. *)
let put_key t sb c i plen =
  let kend = plen + entry_len t c i in
  if kend > Bytes.length sb.kbuf then sb.kbuf <- grown sb.kbuf kend;
  write_entry t c i sb.kbuf plen;
  kend

(* Lexicographic order of [a.[ao .. ae)] against [b.[bo .. be)]. *)
let rec compare_sub a ao ae b bo be =
  if ao = ae || bo = be then Int.compare (ae - ao) (be - bo)
  else
    let c = Char.compare (Bytes.unsafe_get a ao) (Bytes.unsafe_get b bo) in
    if c <> 0 then c else compare_sub a (ao + 1) ae b (bo + 1) be

(* Half [h] (0 = hi, 1 = lo) of the slice of [b.[off .. stop)], zero
   padded: {!Key.slice_hi} over a buffer fragment. *)
let frag_half b off stop h =
  let v = ref 0 in
  for j = 0 to 3 do
    let p = off + (4 * h) + j in
    if p < stop then v := !v lor (Char.code (Bytes.unsafe_get b p) lsl (8 * (3 - j)))
  done;
  !v

(* Touch every value of a filled cursor before the walk reads any:
   the caller's [touch] loads what it will read of each value, and with
   no work between them the loads' misses overlap instead of landing one
   per emitted key.  Values are immutable OCaml data, so a touch before
   the walk's bound checks is only a read. *)
let touch_values c touch =
  match touch with
  | None -> ()
  | Some touch ->
      for i = 0 to c.cn - 1 do
        match c.clv.(i) with Value v -> touch v | Layer _ | Empty -> ()
      done

(* The domain's idle scan state, or a fresh one when a scan is already
   running on this domain (a callback that scans the same tree). *)
let take_scan_buf t h =
  match h.spare with
  | Some sb ->
      h.spare <- None;
      sb
  | None -> new_scan_buf t.nil

(* ---- forward ---- *)

(* Forward scan of the trie layer at [depth]: its key bytes start at
   [plen = 8 * depth] in [sb.kbuf] (the enclosing layers' slices fill
   [0, plen)), and its bound is [sb.bnd.[plen .. blen)] ([blen <= plen]:
   no bound), strict or not.  Entries order against the bound by slice;
   only a slice tie compares bytes.  [emit klen v] hands out the key
   [sb.kbuf.[0 .. klen)]; it raises Scan_done to stop everywhere.

   Inner layers overwrite [kbuf] and [bnd] past [plen + 8], which this
   layer never reads again once it has descended: the layer entry is the
   last of its slice, so every later entry of the node is above the
   bound, and the hop after the node rewrites this layer's bound. *)
let rec scan_layer t sb root_ref depth blen strict touch emit =
  let c = cursor_at t sb depth in
  let plen = 8 * depth in
  let blen = ref (Int.max blen plen) and strict = ref strict in
  let rec run () =
    let b, v =
      find_border t root_ref ~hi:(frag_half sb.bnd plen !blen 0)
        ~lo:(frag_half sb.bnd plen !blen 1)
    in
    (* A collapsed layer's root stays deleted (and isroot) forever:
       re-descending within this layer would loop, so escape to the
       layer-0 retry, which resumes past the collapsed subtree. *)
    if Version.deleted v then raise Restart;
    walk b
  and walk b =
    if not (cursor_fill t c b ~expect:no_expect) then
      (* Node deleted under us: re-descend from the current bound. *)
      run ()
    else begin
      touch_values c touch;
      let lhi = frag_half sb.bnd plen !blen 0 and llo = frag_half sb.bnd plen !blen 1 in
      let flen = !blen - plen in
      (* Whether the node's last entry was passed: emitted, or its layer
         walked. *)
      let passed = ref false in
      for i = 0 to c.cn - 1 do
        let cs = Key.compare_parts c.chi.(i) c.clo.(i) lhi llo in
        match c.clv.(i) with
        | Layer r when cs >= 0 ->
            sb.kbuf <- grown sb.kbuf (plen + 8);
            write_slice sb.kbuf plen c.chi.(i) c.clo.(i) 8;
            if cs = 0 && flen > 8 then scan_layer t sb r (depth + 1) !blen !strict touch emit
            else
              (* Above the bound, or the bound is a prefix of this slice,
                 so every key in the subtree (slice bytes plus at least
                 one more) exceeds it. *)
              scan_layer t sb r (depth + 1) 0 false touch emit;
            passed := true
        | Value v when cs >= 0 ->
            let kend = put_key t sb c i plen in
            let cmp = if cs > 0 then 1 else compare_sub sb.kbuf plen kend sb.bnd plen !blen in
            passed := cmp > 0 || (cmp = 0 && not !strict);
            if !passed then emit kend v
        | Layer _ | Value _ | Empty -> passed := false (* below the bound *)
      done;
      if c.cnext != t.nil then begin
        (* Keys a split moves right after this fill must not be emitted
           twice: the next node starts strictly after this node's last
           entry, if that entry was passed.  One below the bound leaves
           the bound alone, so it never moves back (the next node may be
           a split sibling holding keys this scan already emitted). *)
        if !passed then begin
          let last = c.cn - 1 in
          blen := plen + entry_len t c last;
          sb.bnd <- grown sb.bnd !blen;
          write_entry t c last sb.bnd plen;
          strict := true
        end;
        walk c.cnext
      end
    end
  in
  run ()

let compare_to_string b len s =
  compare_sub b 0 len (Bytes.unsafe_of_string s) 0 (String.length s)

(* The scan driver shared by both directions: pin, take the domain's scan
   state and run [layer] from the root, bounded by [start], until it
   completes.  A Restart (deleted node, collapsed layer) re-runs it from
   the last emitted key, strictly after it, or from [start] again when
   nothing was emitted yet. *)
let run_scan t ~start ~limit layer f =
  Stats.incr t.tstats Stats.Scans;
  if limit <= 0 then 0
  else begin
    let h = handle t in
    let sb = take_scan_buf t h in
    sb.last_len <- -1;
    let count = ref 0 in
    let emit klen v =
      f sb.kbuf klen v;
      if klen > Bytes.length sb.last then sb.last <- grown sb.last klen;
      Bytes.blit sb.kbuf 0 sb.last 0 klen;
      sb.last_len <- klen;
      incr count;
      if !count >= limit then raise Scan_done
    in
    let rec attempt () =
      let blen, strict =
        if sb.last_len >= 0 then begin
          sb.bnd <- grown sb.bnd sb.last_len;
          Bytes.blit sb.last 0 sb.bnd 0 sb.last_len;
          (sb.last_len, true)
        end
        else
          match start with
          | None -> (-1, false)
          | Some s ->
              let n = String.length s in
              sb.bnd <- grown sb.bnd n;
              Bytes.blit_string s 0 sb.bnd 0 n;
              (n, false)
      in
      match layer sb blen strict emit with
      | () -> ()
      | exception Restart ->
          Stats.incr t.tstats Stats.Root_retries;
          Schedpoint.spin sp_restart_spin;
          attempt ()
    in
    match Epoch.pin h.eh (fun () -> try attempt () with Scan_done -> ()) with
    | () ->
        h.spare <- Some sb;
        finish_op h;
        !count
    | exception e ->
        h.spare <- Some sb;
        raise e
  end

let scan_borrowed t ?start ?stop ?touch ~limit f =
  let f =
    match stop with
    | None -> f
    | Some s ->
        fun b len v -> if compare_to_string b len s >= 0 then raise Scan_done else f b len v
  in
  run_scan t ~start ~limit
    (fun sb blen strict emit -> scan_layer t sb t.root 0 blen strict touch emit)
    f

let scan t ?start ?stop ~limit f =
  scan_borrowed t ?start ?stop ~limit (fun b len v -> f (Bytes.sub_string b 0 len) v)

(* ---- reverse ---- *)

(* Reverse scan: rather than chasing prev pointers (whose protection is
   awkward for lock-free readers), each step re-descends to the border
   containing the largest slice below the previous node's lowkey.  One
   O(depth) descent per node visited.  The layer at [depth] reads its
   bound from [sb.bnd.[8 * depth .. blen)], inclusive; [blen < 0] means
   unbounded above.  Nothing writes [bnd] during a pass. *)
let rec scan_rev_layer t sb root_ref depth blen touch emit =
  let max_half = 0xFFFFFFFF in
  let c = cursor_at t sb depth in
  let plen = 8 * depth in
  let bounded = blen >= 0 in
  let blen = if bounded then Int.max blen plen else blen in
  let uhi, ulo =
    if bounded then (frag_half sb.bnd plen blen 0, frag_half sb.bnd plen blen 1)
    else (max_half, max_half)
  in
  let rec run bhi blo bounded =
    let b, v = find_border t root_ref ~hi:bhi ~lo:blo in
    if Version.deleted v then raise Restart;
    (* [expect:v] pins the fill to the version the descent validated: a
       split between descent and fill re-descends instead of returning a
       node that no longer covers the bound. *)
    if not (cursor_fill t c b ~expect:v) then run bhi blo bounded
    else begin
      touch_values c touch;
      for i = c.cn - 1 downto 0 do
        let cs = if bounded then Key.compare_parts c.chi.(i) c.clo.(i) uhi ulo else -1 in
        match c.clv.(i) with
        | Layer r when cs < 0 || (cs = 0 && blen - plen > 8) ->
            sb.kbuf <- grown sb.kbuf (plen + 8);
            write_slice sb.kbuf plen c.chi.(i) c.clo.(i) 8;
            scan_rev_layer t sb r (depth + 1) (if cs < 0 then -1 else blen) touch emit
        | Value v when cs <= 0 ->
            let kend = put_key t sb c i plen in
            if cs < 0 || compare_sub sb.kbuf plen kend sb.bnd plen blen <= 0 then emit kend v
        | _ ->
            (* Above the bound, or a layer whose keys all extend a bound
               equal to its slice. *)
            ()
      done;
      let lhi = b.lowhi and llo = b.lowlo in
      if lhi > 0 || llo > 0 then
        if llo > 0 then run lhi (llo - 1) false else run (lhi - 1) max_half false
    end
  in
  run uhi ulo bounded

let scan_rev_borrowed t ?start ?stop ?touch ~limit f =
  (* A restarted pass replays the region it was in: only keys strictly
     below the last emitted one are new. *)
  let f b len v =
    (match stop with
    | Some s when compare_to_string b len (s : string) < 0 -> raise Scan_done
    | _ -> ());
    f b len v
  in
  run_scan t ~start ~limit
    (fun sb blen _strict emit ->
      scan_rev_layer t sb t.root 0 blen touch (fun klen v ->
          if sb.last_len < 0 || compare_sub sb.kbuf 0 klen sb.last 0 sb.last_len < 0 then
            emit klen v))
    f

let scan_rev t ?start ?stop ~limit f =
  scan_rev_borrowed t ?start ?stop ~limit (fun b len v -> f (Bytes.sub_string b 0 len) v)

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

(* The live children of interior [i], in order. *)
let iter_children i f =
  for j = 0 to i.nkeys do
    f i.child.(j)
  done

let shape t =
  let borders = ref 0
  and interiors = ref 0
  and layers = ref 0
  and entries = ref 0
  and max_depth = ref 0 in
  let rec node n depth =
    if depth > !max_depth then max_depth := depth;
    if is_border n then begin
      incr borders;
      let perm = border_perm n in
      entries := !entries + Permutation.size perm;
      List.iter
        (fun slot ->
          match n.lv.(slot) with
          | Layer r ->
              incr layers;
              node !r (depth + 1)
          | Value _ | Empty -> ())
        (Permutation.live_slots perm)
    end
    else begin
      incr interiors;
      iter_children n (fun c -> node c (depth + 1))
    end
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
    if is_border n then begin
      incr cells;
      for slot = 0 to width - 1 do
        if suffix_handle n slot <> 0 then incr blobs
      done;
      List.iter
        (fun slot -> match n.lv.(slot) with Layer r -> node !r | Value _ | Empty -> ())
        (Permutation.live_slots (border_perm n))
    end
    else iter_children n node
  in
  node !(t.root);
  (!cells, !blobs)

let pool_consistency t =
  let cells, blobs = reachable_storage t in
  Pool.check_leaks t.pool ~reachable_cells:cells ~reachable_blobs:blobs

(* Every link is checked against the node it should name: a child slot
   holds a node of the same kind as its siblings whose parent is the
   interior, slots above nkeys hold nil (a stale child there would keep a
   dead subtree alive and route a torn read into it), a layer's root has
   a nil parent, and the border list runs both ways from nil to nil. *)
let check t =
  let exception Bad of string in
  let fail fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt in
  let rec check_layer root =
    if root.parent != t.nil then fail "layer root has a parent";
    check_node root;
    (* Verify the border list of this layer is ordered by lowkey and
       doubly linked, nil at both ends. *)
    let rec leftmost n = if is_border n then n else leftmost n.child.(0) in
    let first = leftmost root in
    if first.prev != t.nil then fail "leftmost border has a prev";
    let rec walk_list b =
      let nx = b.next in
      if nx != t.nil then begin
        if Key.compare_parts nx.lowhi nx.lowlo b.lowhi b.lowlo <= 0 then
          fail "border list lowkeys not increasing";
        if nx.prev != b then fail "broken prev link";
        walk_list nx
      end
    in
    walk_list first
  and check_node n = if is_border n then check_b n else check_i n
  and check_b b =
    (match Node.check_border b with Ok _ -> () | Error e -> fail "border: %s" e);
    (* Entries may legitimately sit below the node's creation-time lowkey:
       deletion without rebalancing (§4.3) lets a node inherit the range of
       a deleted left sibling, and leaf coalescing grows a node's range
       rightward.  The load-bearing bound is the upper one, which the
       rightward split-chasing walk relies on. *)
    let nx = b.next in
    if nx != t.nil then
      List.iter
        (fun slot ->
          if Key.compare_parts (slice_hi b slot) (slice_lo b slot) nx.lowhi nx.lowlo >= 0
          then fail "entry at or above next node's lowkey")
        (Permutation.live_slots (border_perm b));
    List.iter
      (fun slot ->
        match b.lv.(slot) with
        | Layer r -> check_layer !r
        | Value _ -> ()
        | Empty -> fail "live empty slot")
      (Permutation.live_slots (border_perm b))
  and check_i i =
    if i.nkeys < 0 || i.nkeys > width then fail "interior nkeys out of range";
    for j = 1 to i.nkeys - 1 do
      if
        Key.compare_parts (ikey_hi i (j - 1)) (ikey_lo i (j - 1)) (ikey_hi i j)
          (ikey_lo i j)
        >= 0
      then fail "interior keys not sorted"
    done;
    for j = 0 to width do
      let c = i.child.(j) in
      if j > i.nkeys then begin
        if c != t.nil then fail "stale child %d above nkeys %d" j i.nkeys
      end
      else if c == t.nil then fail "missing child %d" j
      else if is_border c <> is_border i.child.(0) then fail "children of mixed kinds"
      else if c.parent != i then fail "child %d's parent is not its interior" j
    done;
    iter_children i check_node
  in
  match check_layer !(t.root) with () -> Ok () | exception Bad m -> Error m
