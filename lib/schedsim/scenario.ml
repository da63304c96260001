(* Scenario library for schedule exploration.

   A scenario is a tiny multi-writer/multi-reader script over one tree:
   a [prepare] phase that runs before the scheduler takes control (its
   writes are stamped at step 0), and a handful of named tasks whose
   every tree operation is recorded in an {!Oracle} with
   scheduler-clock windows.  {!mk} packages one into the factory shape
   {!Sched.explore_exhaustive} / {!Sched.run_random} consume; the
   finalizer runs the structural check, epoch maintenance, a final
   read-back of every key, and the oracle.

   Keys: [k i] is exactly 8 bytes, so consecutive keys occupy distinct
   slices of one trie layer; [lk suffix] shares an 8-byte prefix with
   its siblings, forcing suffix storage and deeper-layer creation. *)

module Tree = Masstree_core.Tree

type ctx = {
  tree : int Tree.t;
  oracle : Oracle.t;
  mutable next_val : int;
}

let fresh ctx =
  let v = ctx.next_val in
  ctx.next_val <- v + 1;
  v

let k i = Printf.sprintf "k%06d;" i
let lk suffix = "PPPPPPPP" ^ suffix

(* Recording operation wrappers. *)

let put ctx key =
  let v = fresh ctx in
  let s = Sched.now () in
  let prev = Tree.put ctx.tree key v in
  let e = Sched.now () in
  let wid = Oracle.record_write ctx.oracle key (Some v) ~s ~e in
  Oracle.record_read ctx.oracle key prev ~s ~e ~exclude:wid
    ~what:(Printf.sprintf "put %S prev" key)

let remove ctx key =
  let s = Sched.now () in
  let prev = Tree.remove ctx.tree key in
  let e = Sched.now () in
  let wid = Oracle.record_write ctx.oracle key None ~s ~e in
  Oracle.record_read ctx.oracle key prev ~s ~e ~exclude:wid
    ~what:(Printf.sprintf "remove %S prev" key)

let get ctx key =
  let s = Sched.now () in
  let r = Tree.get ctx.tree key in
  let e = Sched.now () in
  Oracle.record_read ctx.oracle key r ~s ~e ~exclude:(-1)
    ~what:(Printf.sprintf "get %S" key)

let multi_get ctx keys =
  let a = Array.of_list keys in
  let s = Sched.now () in
  let rs = Tree.multi_get ctx.tree a in
  let e = Sched.now () in
  Array.iteri
    (fun i key ->
      Oracle.record_read ctx.oracle key rs.(i) ~s ~e ~exclude:(-1)
        ~what:(Printf.sprintf "multi_get %S" key))
    a

let scan ?start ?stop ?(limit = max_int) ctx =
  let emits = ref [] in
  let s = Sched.now () in
  let count =
    Tree.scan ctx.tree ?start ?stop ~limit (fun key v ->
        emits :=
          { Oracle.ekey = key; eval_ = v; estep = Sched.now () } :: !emits)
  in
  let e = Sched.now () in
  Oracle.record_scan ctx.oracle ~rev:false ~start ~stop ~limit
    ~emits:(List.rev !emits) ~count ~s ~e

let scan_rev ?start ?stop ?(limit = max_int) ctx =
  let emits = ref [] in
  let s = Sched.now () in
  let count =
    Tree.scan_rev ctx.tree ?start ?stop ~limit (fun key v ->
        emits :=
          { Oracle.ekey = key; eval_ = v; estep = Sched.now () } :: !emits)
  in
  let e = Sched.now () in
  Oracle.record_scan ctx.oracle ~rev:true ~start ~stop ~limit
    ~emits:(List.rev !emits) ~count ~s ~e

let maintain ctx = Tree.maintain ctx.tree

(* Prepare-phase helper: runs with the scheduler disabled, stamped at
   step 0 (the clock was just reset, and scheduled steps start at 1). *)
let prepop ctx key =
  let v = fresh ctx in
  ignore (Tree.put ctx.tree key v);
  ignore (Oracle.record_write ctx.oracle key (Some v) ~s:0 ~e:0)

(* Prepare-phase removal: shapes a border's fill level before the
   scheduler takes control (e.g. to park a node one remove above the
   coalesce threshold). *)
let preremove ctx key =
  ignore (Tree.remove ctx.tree key);
  ignore (Oracle.record_write ctx.oracle key None ~s:0 ~e:0)

type t = {
  name : string;
  descr : string;
  prepare : ctx -> unit;
  tasks : (string * (ctx -> unit)) list;
}

let mk (sc : t) : Sched.mk =
 fun () ->
  Sched.reset_clock ();
  let ctx = { tree = Tree.create (); oracle = Oracle.create (); next_val = 1 } in
  sc.prepare ctx;
  let tasks = List.map (fun (n, f) -> (n, fun () -> f ctx)) sc.tasks in
  let finalize () =
    let errs = ref [] in
    (match Tree.check ctx.tree with
    | Ok () -> ()
    | Error m -> errs := ("structural: " ^ m) :: !errs);
    Tree.maintain ctx.tree;
    (match Tree.check ctx.tree with
    | Ok () -> ()
    | Error m -> errs := ("structural after maintain: " ^ m) :: !errs);
    let fin = Sched.now () + 1 in
    List.iter
      (fun key ->
        let r = Tree.get ctx.tree key in
        Oracle.record_read ctx.oracle key r ~s:fin ~e:fin ~exclude:(-1)
          ~what:(Printf.sprintf "final get %S" key))
      (Oracle.keys ctx.oracle);
    (match Oracle.check ctx.oracle with
    | Ok () -> ()
    | Error ms -> errs := !errs @ ms);
    match !errs with [] -> Ok () | es -> Error (String.concat "; " es)
  in
  (tasks, finalize)

(* ------------------------------------------------------------------ *)
(* The scenario library.                                               *)
(* ------------------------------------------------------------------ *)

(* Tight two-task scripts keep the schedule tree small enough for the
   exhaustive driver to close; the bigger scripts lean on PCT/uniform
   seeds.  Prepare-phase key counts are chosen against width 14: 14
   sequential inserts fill one border, the 15th splits it; ~210 fill the
   root interior so the next split grows the tree. *)

let scenarios : t list =
  [
    {
      name = "replace-vs-get";
      descr = "value replacement in place races a lock-free reader";
      prepare = (fun c -> prepop c (k 1); prepop c (k 2));
      tasks =
        [ ("writer", fun c -> put c (k 1)); ("reader", fun c -> get c (k 1)) ];
    };
    {
      name = "insert-vs-get";
      descr = "permutation publish races point reads of old and new keys";
      prepare = (fun c -> for i = 0 to 3 do prepop c (k (2 * i)) done);
      tasks =
        [
          ("writer", fun c -> put c (k 5));
          ("reader", fun c -> get c (k 5); get c (k 4));
        ];
    };
    {
      name = "writers-contend";
      descr = "two writers on one border, reader validating against both";
      prepare = (fun c -> for i = 0 to 2 do prepop c (k (10 * i)) done);
      tasks =
        [
          ("w1", fun c -> put c (k 5); put c (k 15));
          ("w2", fun c -> put c (k 25); remove c (k 10));
          ("reader", fun c -> get c (k 10); get c (k 25));
        ];
    };
    {
      name = "split-vs-get";
      descr = "border split migrates keys right while readers chase them";
      prepare = (fun c -> for i = 0 to 13 do prepop c (k (2 * i)) done);
      tasks =
        [
          ("writer", fun c -> put c (k 13));
          ("reader", fun c -> get c (k 20); get c (k 13));
        ];
    };
    {
      name = "split-vs-scan";
      descr = "scan must not lose keys migrating right during a split";
      prepare = (fun c -> for i = 0 to 13 do prepop c (k (2 * i)) done);
      tasks =
        [
          ("writer", fun c -> put c (k 13));
          ("scanner", fun c -> scan c; scan ~limit:5 c);
        ];
    };
    {
      name = "split-vs-scan-rev";
      descr = "descending scan against a concurrent split";
      prepare = (fun c -> for i = 0 to 13 do prepop c (k (2 * i)) done);
      tasks =
        [
          ("writer", fun c -> put c (k 13));
          ("scanner", fun c -> scan_rev c; scan_rev ~limit:5 c);
        ];
    };
    {
      name = "remove-vs-scan";
      descr = "scan while the right border empties, unlinks and dies";
      prepare = (fun c -> for i = 0 to 19 do prepop c (k i) done);
      tasks =
        [
          ( "remover",
            fun c -> for i = 14 to 19 do remove c (k i) done );
          ("scanner", fun c -> scan c; get c (k 16));
        ];
    };
    {
      name = "remove-vs-scan-rev";
      descr = "descending scan racing node emptying and unlink";
      prepare = (fun c -> for i = 0 to 19 do prepop c (k i) done);
      tasks =
        [
          ( "remover",
            fun c -> for i = 14 to 19 do remove c (k i) done );
          ("scanner", fun c -> scan_rev c; get c (k 14));
        ];
    };
    {
      name = "remove-vs-scan-suffix";
      descr =
        "slot reuse retires, frees and recycles a suffix blob the scan \
         has validated but not yet read";
      (* Each scan validates layer 0 — [hi] and [lo] with their suffix
         handles, plus the [lk] layer link between them — then descends
         into the layer (schedule points) before it builds the key on the
         far side of the link.  Meanwhile the writer reuses that key's
         slot for a new suffix (retiring the old blob), drains the epoch
         and allocates a same-size blob that may recycle the memory.  The
         oracle rejects any emitted key whose bytes were never written. *)
      prepare =
        (fun c ->
          prepop c (lk "alpha");
          prepop c (lk "beta");
          prepop c "AAAAAAAA-low-1";
          prepop c "QQQQQQQQ-high-1");
      tasks =
        [
          ( "writer",
            fun c ->
              remove c "QQQQQQQQ-high-1";
              put c "QQQQQQQQ-high-2";
              remove c "AAAAAAAA-low-1";
              put c "AAAAAAAA-low-2";
              maintain c;
              put c "RRRRRRRR-high-3";
              put c "BBBBBBBB-low-3" );
          ("scanner", fun c -> scan c; scan_rev c);
        ];
    };
    {
      name = "slot-reuse-vs-get";
      descr = "remove then re-insert reuses a stale slot under a reader";
      prepare = (fun c -> for i = 1 to 4 do prepop c (k i) done);
      tasks =
        [
          ("writer", fun c -> remove c (k 2); put c (k 2));
          ("reader", fun c -> get c (k 2); get c (k 3); get c (k 2));
        ];
    };
    {
      name = "multiget-vs-insert-burst";
      descr = "pipelined multi_get rounds race an insert burst";
      prepare = (fun c -> for i = 0 to 3 do prepop c (k (2 * i)) done);
      tasks =
        [
          ("writer", fun c -> put c (k 1); put c (k 3); put c (k 5));
          ( "reader",
            fun c -> multi_get c [ k 0; k 1; k 2; k 3; k 4; k 5; k 6 ] );
        ];
    };
    {
      name = "pipelined-batch-vs-split";
      descr = "software-pipelined group get races a border split and hops a layer";
      (* 14 two-apart keys fill one border; the writer's put (k 13) splits
         it mid-batch.  The prepared lk pair gives the batch a lookup that
         must hop into a trie layer ([tree.pipeline.layer]); the split's
         root replacement makes a flight's [stable_root] raise and
         re-enter the pipeline ([tree.pipeline.restart]). *)
      prepare =
        (fun c ->
          for i = 0 to 13 do prepop c (k (2 * i)) done;
          prepop c (lk "alpha");
          prepop c (lk "beta"));
      tasks =
        [
          ("writer", fun c -> put c (k 13));
          ( "reader",
            fun c ->
              multi_get c [ k 13; k 20; lk "alpha"; k 9 ] );
        ];
    };
    {
      name = "coalesce-vs-pipelined-get";
      descr = "pipelined batch descends into a border being merged away";
      (* Same prepared shape as the coalesce family: the remover's
         [remove (k 4)] merges the right sibling into the left, so a
         pipelined flight can stabilize a border whose version goes
         deleted under it and must restart from the root in-pipeline. *)
      prepare =
        (fun c ->
          for i = 0 to 19 do prepop c (k i) done;
          for i = 5 to 13 do preremove c (k i) done);
      tasks =
        [
          ("remover", fun c -> remove c (k 4));
          ( "reader",
            fun c -> multi_get c [ k 16; k 2; k 14 ] );
        ];
    };
    {
      name = "layer-create-vs-get";
      descr = "suffix clash pushes a new trie layer under a reader";
      prepare = (fun c -> prepop c (lk "alpha"); prepop c (k 1));
      tasks =
        [
          ("writer", fun c -> put c (lk "beta"));
          ("reader", fun c -> get c (lk "alpha"); get c (lk "beta"));
        ];
    };
    {
      name = "layer-collapse-vs-get";
      descr = "maintenance collapses an emptied layer while readers descend";
      prepare =
        (fun c ->
          prepop c (lk "alpha");
          prepop c (lk "beta");
          prepop c (k 1));
      tasks =
        [
          ( "remover",
            fun c ->
              remove c (lk "alpha");
              remove c (lk "beta");
              maintain c );
          ( "reader",
            fun c ->
              get c (lk "alpha");
              get c (k 1);
              get c (lk "beta") );
        ];
    };
    {
      name = "deep-split";
      descr = "border split ascends into a full root interior and grows the tree";
      prepare = (fun c -> for i = 0 to 209 do prepop c (k i) done);
      tasks =
        [
          ("writer", fun c -> put c (k 210); put c (k 211));
          ( "reader",
            fun c -> get c (k 209); get c (k 100); get c (k 210) );
        ];
    };
    {
      name = "unlink-contend";
      descr = "node unlink needs the left sibling's lock while a split holds it";
      (* 15 sequential keys: left border k0..k13 (full), right k14 alone.
         The writer's put lands in the full left border and splits it — a
         long locked window — while the remover empties the right border,
         whose unlink must take that same left-border lock. *)
      prepare = (fun c -> for i = 0 to 14 do prepop c (k i) done);
      tasks =
        [
          ("writer", fun c -> put c "k000007~");
          ("remover", fun c -> remove c (k 14));
        ];
    };
    (* Coalesce scenarios share one prepared shape: 20 sequential keys
       split into left = k0..k13, right = k14..k19 (same parent), then
       prepare-phase removes thin the left border to 5 entries — one
       in-task remove away from the merge threshold.  The remover's
       [remove (k 4)] drops it to 4 and absorbs the right sibling under
       the split protocol ([tree.merge.*]); the sibling's storage goes
       through [tree.pool.retire]/[tree.pool.free]. *)
    {
      name = "coalesce-vs-get";
      descr = "leaf merge migrates the right sibling under point readers";
      prepare =
        (fun c ->
          for i = 0 to 19 do prepop c (k i) done;
          for i = 5 to 13 do preremove c (k i) done);
      tasks =
        [
          ("remover", fun c -> remove c (k 4));
          ("reader", fun c -> get c (k 16); get c (k 2); get c (k 14));
        ];
    };
    {
      name = "coalesce-vs-scan";
      descr = "forward and reverse scans race a leaf merge";
      prepare =
        (fun c ->
          for i = 0 to 19 do prepop c (k i) done;
          for i = 5 to 13 do preremove c (k i) done);
      tasks =
        [
          ("remover", fun c -> remove c (k 4));
          ("scanner", fun c -> scan c; scan_rev c);
        ];
    };
    {
      name = "coalesce-vs-insert";
      descr =
        "insert (with a fresh suffix blob, first of its size class) races \
         a merge into the same border";
      (* The lk key sorts below the k keys, so the writer's insert targets
         the merging left border; its suffix is the run's first blob
         allocation, so the put crosses [tree.pool.refill]. *)
      prepare =
        (fun c ->
          for i = 0 to 19 do prepop c (k i) done;
          for i = 5 to 13 do preremove c (k i) done);
      tasks =
        [
          ("remover", fun c -> remove c (k 4));
          ("writer", fun c -> put c (lk "zz"));
        ];
    };
    {
      name = "coalesce-gc";
      descr = "epoch drain frees merged-away storage while a reader validates";
      prepare =
        (fun c ->
          for i = 0 to 19 do prepop c (k i) done;
          for i = 5 to 13 do preremove c (k i) done);
      tasks =
        [
          ("remover", fun c -> remove c (k 4); maintain c);
          ("reader", fun c -> get c (k 15); get c (k 19));
        ];
    };
    {
      name = "quiesce-vs-get";
      descr = "epoch quiesce waits out a reader pinned mid-descent";
      prepare =
        (fun c ->
          prepop c (lk "alpha");
          prepop c (lk "beta");
          prepop c (k 1));
      tasks =
        [
          ("reader", fun c -> get c (lk "alpha"); get c (k 1));
          ("maintainer", fun c -> maintain c);
        ];
    };
  ]

let find name = List.find_opt (fun sc -> sc.name = name) scenarios
