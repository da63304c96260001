(* The peeled replay behind the per-layer ledger.

   The first ops of the run's seeded stream are replayed in-process, on
   one thread, at each layer's public entry point: the tree, the logger,
   the store (which calls both), the shard router (sharded workload
   only), the engine (which calls the store or router plus the protocol
   codec) and the protocol codec on its own.  Every call gets a span:
   layer, first op id (shared across layers), op count, start and end.

   A layer's self time is its per-op time minus the per-op time of the
   layers it calls; a merged multi-get's time is split evenly over its
   keys.  The layers take turns on chunks of about a thousand ops, so a
   slow spell on a shared host lands on every layer alike instead of
   skewing whichever layer happened to be running.  Each layer runs on
   an instance of its own, so each one meets a chunk's keys cold.

   The replay measures uncontended cost: one thread, no network, no
   other clients. *)

module Y = Workload.Ycsb
module P = Kvserver.Protocol
module T = Masstree_core.Tree
module Store = Kvstore.Store

let now = Client.now

type spans = {
  layer : string;
  mutable first : int array;
  mutable nops : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable n : int;
}

let spans layer = { layer; first = [||]; nops = [||]; t0 = [||]; t1 = [||]; n = 0 }

let recording = ref true

let record s ~first ~nops t0 t1 =
  if s.n = Array.length s.first then begin
    let grow a = Array.append a (Array.make (max 1024 s.n) 0) in
    s.first <- grow s.first;
    s.nops <- grow s.nops;
    s.t0 <- grow s.t0;
    s.t1 <- grow s.t1
  end;
  s.first.(s.n) <- first;
  s.nops.(s.n) <- nops;
  s.t0.(s.n) <- t0;
  s.t1.(s.n) <- t1;
  s.n <- s.n + 1

let span s ~first ~nops f =
  if !recording then begin
    let t0 = now () in
    let r = f () in
    record s ~first ~nops t0 (now ());
    r
  end
  else f ()

let total_ns s =
  let t = ref 0 in
  for j = 0 to s.n - 1 do
    t := !t + (s.t1.(j) - s.t0.(j))
  done;
  float !t

(* What the engine does with one wakeup, and so what the layers below it
   see: a run of consecutive all-get frames becomes one multi-get over
   all their keys; every other op runs on its own. *)
type call = Multi of int * string array | One of int

let calls_of_wakeup (w : Spec.t) (frames : Gen.frame array) ~first_frame ~count =
  let calls = ref [] and keys = ref [] and run_first = ref 0 in
  let flush () =
    if !keys <> [] then calls := Multi (!run_first, Array.of_list (List.rev !keys)) :: !calls;
    keys := []
  in
  for j = first_frame to first_frame + count - 1 do
    let f = frames.(j) and base = j * w.ops_per_frame in
    if f.kind = Gen.Get then begin
      if !keys = [] then run_first := base;
      Array.iter (function Y.Get k -> keys := k :: !keys | _ -> ()) f.ops
    end
    else begin
      flush ();
      Array.iteri (fun k _ -> calls := One (base + k) :: !calls) f.ops
    end
  done;
  flush ();
  List.rev !calls

(* A wakeup as the reactor's receive buffer holds it. *)
type wakeup = { first_frame : int; buf : string; bodies : (int * int) list; calls : call list }

let wakeups (w : Spec.t) (frames : Gen.frame array) ~per =
  let n = (Array.length frames + per - 1) / per in
  Array.init n (fun b ->
      let first_frame = b * per in
      let count = min per (Array.length frames - first_frame) in
      let fs = Array.to_list (Array.sub frames first_frame count) in
      let pos = ref 0 in
      let bodies =
        List.map
          (fun (f : Gen.frame) ->
            let p = !pos in
            pos := p + String.length f.wire;
            (p + 4, String.length f.wire - 4))
          fs
      in
      {
        first_frame;
        buf = String.concat "" (List.map (fun (f : Gen.frame) -> f.wire) fs);
        bodies;
        calls = calls_of_wakeup w frames ~first_frame ~count;
      })

let span_of_call s call f =
  match call with
  | Multi (first, keys) -> span s ~first ~nops:(Array.length keys) f
  | One i -> span s ~first:i ~nops:1 f

let set_col cols col data =
  let a = Array.copy cols in
  a.(col) <- data;
  a

(* Store-shaped entry points: the store and the router answer the same
   calls. *)
let store_call ops ~get_many ~put_cols ~getrange = function
  | Multi (_, keys) -> ignore (get_many keys)
  | One i -> (
      match ops.(i) with
      | Y.Put (k, col, data) -> put_cols k [ (col, data) ]
      | Y.Getrange (start, count, col) ->
          let acc = ref [] in
          ignore (getrange ~start ~columns:[ col ] ~limit:count (fun k v -> acc := (k, v) :: !acc))
      | Y.Get k -> ignore (get_many [| k |]))

let new_store path = Store.create ~logs:[| Persist.Logger.create path |] ()

(* The reactor's emit: each frame's responses behind a 4-byte length
   prefix in the connection's output buffer. *)
let emit_into out resps =
  let at = Xutil.Binio.length out in
  Xutil.Binio.write_u32 out 0;
  P.encode_responses_into out resps;
  Xutil.Binio.patch_u32 out ~pos:at (Xutil.Binio.length out - at - 4)

(* ---- the replay ---- *)

type result = {
  n_ops : int;
  n_get : int;
  n_put : int;
  scanned : int; (* keys visited by the tree-level scans *)
  layers : spans list;
  by_kind : (string * float array) list; (* layer -> ns on [| gets; puts; scans; all |] *)
  ckpt_s : float;
  overhead_pct : float; (* engine-level time with spans on vs off *)
  frame_ns : float; (* engine time for one frame per wakeup, as in the round-trip probe *)
  sharded : bool;
}

let kind_index = function Y.Get _ -> 0 | Y.Put _ -> 1 | Y.Getrange _ -> 2

let by_kind ops s =
  let a = Array.make 4 0.0 in
  for j = 0 to s.n - 1 do
    let d = float (s.t1.(j) - s.t0.(j)) in
    let k = kind_index ops.(s.first.(j)) in
    a.(k) <- a.(k) +. d;
    a.(3) <- a.(3) +. d
  done;
  a

let run (w : Spec.t) (sizes : Spec.sizes) ~seed ~dir =
  let y = Gen.ycsb w ~records:sizes.records in
  let preload put =
    for i = 0 to sizes.records - 1 do
      put (Y.key_of_rank y i) (Gen.initial_value y ~seed i)
    done
  in
  let n = Spec.replay_ops w sizes / w.ops_per_frame * w.ops_per_frame in
  let ops = Gen.ops w y ~seed ~n in
  let frames = Gen.frames w ops in
  let sharded = List.mem "--shards" w.mtd_flags in
  let path f = Filename.concat dir f in
  (* instances *)
  let tree = T.create () in
  preload (fun k v -> ignore (T.put tree k v));
  let log = Persist.Logger.create (path "logger.log") in
  let store = new_store (path "store.log") in
  preload (fun k v -> Store.put ~worker:0 store k v);
  let new_router tag =
    let stores = Array.init 2 (fun i -> new_store (path (Printf.sprintf "%s-%d.log" tag i))) in
    let r =
      Shard.Router.create ~hot:{ Shard.Router.default_hot_config with Shard.Router.hot_slots = 1024 } stores
    in
    preload (fun k v -> Shard.Router.put ~worker:0 r k v);
    r
  in
  let router = if sharded then Some (new_router "router") else None in
  (* The engine gets instances of its own: on the ones below it, it would
     find every key of a chunk already cached by the layer just timed. *)
  let backend, close_backend =
    if sharded then
      let r = new_router "engine" in
      (Kvserver.Engine.sharded r, fun () -> Shard.Router.close r)
    else begin
      let st = new_store (path "engine.log") in
      preload (fun k v -> Store.put ~worker:0 st k v);
      (Kvserver.Engine.single st, fun () -> Store.close st)
    end
  in
  (* levels *)
  let s_tree = spans "tree" and s_log = spans "logger" and s_store = spans "store" in
  let s_router = spans "router" and s_engine = spans "engine" in
  let s_dec = spans "protocol.decode" and s_enc = spans "protocol.encode" in
  let scanned = ref 0 in
  let tree_call = function
    | Multi (_, keys) -> ignore (T.multi_get_pipelined tree keys)
    | One i -> (
        match ops.(i) with
        | Y.Put (k, col, data) ->
            ignore
              (T.put_with tree k (function
                | Some cols -> set_col cols col data
                | None -> Array.make Y.columns data))
        | Y.Getrange (start, count, col) ->
            let acc = ref [] in
            scanned := !scanned + T.scan tree ~start ~limit:count (fun k v -> acc := (k, v.(col)) :: !acc)
        | Y.Get k -> ignore (T.get tree k))
  in
  let base_cols = Gen.initial_value y ~seed 0 in
  let log_call = function
    | One i -> (
        match ops.(i) with
        | Y.Put (key, col, data) ->
            let r =
              Persist.Logrec.Put
                {
                  key;
                  version = Int64.of_int (i + 1);
                  timestamp = Xutil.Clock.wall_us ();
                  columns = set_col base_cols col data;
                }
            in
            span s_log ~first:i ~nops:1 (fun () -> Persist.Logger.append log r)
        | _ -> ())
    | Multi _ -> ()
  in
  let store_level = store_call ops ~get_many:(Store.multi_get store) ~put_cols:(Store.put_columns ~worker:0 store)
      ~getrange:(fun ~start ~columns ~limit f -> Store.getrange store ~start ~columns ~limit f)
  in
  let router_level =
    Option.map
      (fun r ->
        store_call ops ~get_many:(Shard.Router.multi_get ~worker:0 r)
          ~put_cols:(Shard.Router.put_columns ~worker:0 r)
          ~getrange:(fun ~start ~columns ~limit f -> Shard.Router.getrange r ~start ~columns ~limit f))
      router
  in
  let out = Xutil.Binio.writer ~capacity:65536 () in
  let engine_into s wk =
    Xutil.Binio.reset out;
    span s ~first:(wk.first_frame * w.ops_per_frame)
      ~nops:(List.length wk.bodies * w.ops_per_frame)
      (fun () -> Kvserver.Engine.execute_frames ~worker:0 backend ~buf:wk.buf ~frames:wk.bodies ~emit:(emit_into out))
  in
  let engine = engine_into s_engine in
  let protocol wk =
    let first = wk.first_frame * w.ops_per_frame and nops = List.length wk.bodies * w.ops_per_frame in
    let reqs =
      span s_dec ~first ~nops (fun () ->
          List.map (fun (pos, len) -> P.decode_requests_sub wk.buf ~pos ~len) wk.bodies)
    in
    let resps = List.map (Kvserver.Engine.execute_batch ~worker:0 backend) reqs in
    Xutil.Binio.reset out;
    span s_enc ~first ~nops (fun () -> List.iter (emit_into out) resps)
  in
  (* the interleaved passes *)
  let batches = wakeups w frames ~per:w.wakeup_frames in
  let chunk = max 1 (1024 / (w.wakeup_frames * w.ops_per_frame)) in
  let on_ns = ref 0 and off_ns = ref 0 and spare = spans "engine" in
  let timed acc f =
    let t0 = now () in
    f ();
    acc := !acc + (now () - t0)
  in
  Gc.full_major ();
  let nb = Array.length batches in
  let c = ref 0 in
  while !c * chunk < nb do
    let ws = Array.sub batches (!c * chunk) (min chunk (nb - (!c * chunk))) in
    let each f = Array.iter (fun wk -> List.iter f wk.calls) ws in
    each (fun call -> span_of_call s_tree call (fun () -> tree_call call));
    each log_call;
    each (fun call -> span_of_call s_store call (fun () -> store_level call));
    Option.iter (fun level -> each (fun call -> span_of_call s_router call (fun () -> level call))) router_level;
    Array.iter engine ws;
    (* Tracing overhead: two more engine passes, spans off and on, in
       alternating order so neither side always runs on the caches the
       other one warmed. *)
    let on () =
      spare.n <- 0;
      timed on_ns (fun () -> Array.iter (engine_into spare) ws)
    in
    let off () =
      timed off_ns (fun () ->
          recording := false;
          Array.iter engine ws;
          recording := true)
    in
    if !c land 1 = 0 then (on (); off ()) else (off (); on ());
    Array.iter protocol ws;
    incr c
  done;
  (* One frame per wakeup, as the window-1 round-trip probe sends them. *)
  let s_frame = spans "engine.frame" in
  let singles = wakeups w (Array.sub frames 0 (min (Array.length frames) 5_000)) ~per:1 in
  Array.iter (engine_into s_frame) singles;
  let ckpt_s =
    if not (List.mem "--checkpoint-secs" w.mtd_flags) then 0.0
    else begin
      let t0 = now () in
      (match Store.checkpoint store ~dir:(path "ckpt") ~writers:1 with
      | Ok _ -> ()
      | Error e -> failwith ("replay checkpoint: " ^ e));
      float (now () - t0) /. 1e9
    end
  in
  Persist.Logger.close log;
  Store.close store;
  Option.iter Shard.Router.close router;
  close_backend ();
  let layers = [ s_tree; s_log; s_store ] @ (if sharded then [ s_router ] else []) @ [ s_engine; s_dec; s_enc ] in
  let count k = Array.fold_left (fun a op -> if kind_index op = k then a + 1 else a) 0 ops in
  {
    n_ops = n;
    n_get = count 0;
    n_put = count 1;
    scanned = !scanned;
    layers;
    by_kind = List.map (fun s -> (s.layer, by_kind ops s)) layers;
    ckpt_s;
    overhead_pct = (float !on_ns /. float !off_ns -. 1.0) *. 100.0;
    frame_ns = total_ns s_frame /. float s_frame.n;
    sharded;
  }

(* ---- the ledger ---- *)

let sum r layer k = match List.assoc_opt layer r.by_kind with Some a -> a.(k) | None -> 0.0

let per a b = if b <= 0.0 then 0.0 else a /. b

(* Self ns per op of each layer, over all ops of the replay. *)
let self_ns r =
  let all l = sum r l 3 /. float r.n_ops in
  let codec = all "protocol.decode" +. all "protocol.encode" in
  [
    ("protocol", codec);
    ("engine", all "engine" -. (if r.sharded then all "router" else all "store") -. codec);
    ("router", if r.sharded then all "router" -. all "store" else 0.0);
    ("store", all "store" -. all "tree" -. all "logger");
    ("logger", all "logger");
    ("tree", all "tree");
  ]

(* The ledger: every layer's self time, with the network's share taken
   from the measured empty-frame round trip. *)
let ledger r ~rtt0_us ~ops_per_frame = ("net", rtt0_us *. 1000. /. float ops_per_frame) :: self_ns r

let metrics r =
  let n = float r.n_ops and gets = float r.n_get and puts = float r.n_put in
  let keys = float r.scanned in
  let self = self_ns r in
  [
    ("protocol.decode_ns_per_op", sum r "protocol.decode" 3 /. n);
    ("protocol.encode_ns_per_op", sum r "protocol.encode" 3 /. n);
    ("engine.self_ns_per_op", List.assoc "engine" self);
    ("router.self_ns_per_op", List.assoc "router" self);
    ("store.self_get_ns_per_key", per (sum r "store" 0 -. sum r "tree" 0) gets);
    ("store.self_put_ns", per (sum r "store" 1 -. sum r "tree" 1 -. sum r "logger" 1) puts);
    ("store.self_scan_ns_per_key", per (sum r "store" 2 -. sum r "tree" 2) keys);
    ("tree.multiget_ns_per_key", per (sum r "tree" 0) gets);
    ("tree.update_ns", per (sum r "tree" 1) puts);
    ("tree.scan_ns_per_key", per (sum r "tree" 2) keys);
    ("logger.append_ns", per (sum r "logger" 1) puts);
    ("ckpt.duration_s", r.ckpt_s);
    ("trace.overhead_pct", r.overhead_pct);
  ]

let write_spans r path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "layer\tfirst_op\tops\tstart_ns\tend_ns\n";
      List.iter
        (fun s ->
          for j = 0 to s.n - 1 do
            Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\n" s.layer s.first.(j) s.nops.(j) s.t0.(j) s.t1.(j)
          done)
        r.layers)
