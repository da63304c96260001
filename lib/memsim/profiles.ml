type op = Get | Put

(* Node identities: (structure-local) level in the high bits, the key
   rank's prefix at that level in the low bits.  Upper levels repeat
   across operations and stay cached; leaves and values are as cold as
   their reuse distance makes them. *)
let node_id ~level ~index = (level lsl 44) lor (index land ((1 lsl 44) - 1))

let value_id ~rank = (63 lsl 44) lor rank

let ceil_log ~base n =
  let rec go d cap = if cap >= n then d else go (d + 1) (cap * base) in
  go 0 1

(* Visit the root..leaf path of a balanced [base]-ary tree of [n] keys. *)
let walk_path sim ~tag ~base ~n ~rank ~lines ~prefetch ~per_node =
  let depth = max 1 (ceil_log ~base n) in
  for level = 0 to depth - 1 do
    (* Index of this path's node at [level]: strip the low digits. *)
    let shift_levels = depth - 1 - level in
    let div = float_of_int base ** float_of_int shift_levels in
    let index = int_of_float (float_of_int rank /. div) in
    Model.visit sim ~node:(node_id ~level:(tag + level) ~index) ~lines ~prefetch;
    per_node level
  done;
  depth

let touch_value sim ~rank = Model.visit sim ~node:(value_id ~rank) ~lines:1 ~prefetch:false

let binary_op sim ~n ~rank ~key_len op =
  ignore
    (walk_path sim ~tag:0 ~base:2 ~n ~rank ~lines:1 ~prefetch:false ~per_node:(fun _ ->
         Model.compare_bytes sim key_len));
  touch_value sim ~rank;
  match op with
  | Get -> Model.op_done sim
  | Put ->
      Model.alloc sim ~bytes:40;
      Model.alloc sim ~bytes:(16 + key_len);
      Model.op_done sim

let four_tree_op sim ~n ~rank ~key_len op =
  ignore
    (walk_path sim ~tag:0 ~base:4 ~n ~rank ~lines:1 ~prefetch:false ~per_node:(fun _ ->
         (* Up to 3 inline 8-byte prefixes per node. *)
         Model.compare_slice sim;
         Model.compare_slice sim));
  (* Final full-key confirmation against the stored key. *)
  Model.compare_bytes sim key_len;
  touch_value sim ~rank;
  match op with
  | Get -> Model.op_done sim
  | Put ->
      Model.alloc sim ~bytes:64;
      Model.alloc sim ~bytes:(16 + key_len);
      Model.op_done sim

let btree_fanout = 10 (* width-14 nodes, ~75% full *)

let btree_node_lines = 5

let btree_op sim ~n ~rank ~key_len ~prefetch ~permuter op =
  let inline = 16 in
  let per_node _level =
    (* Linear search through half the node's ~10 keys. *)
    for _ = 1 to btree_fanout / 2 do
      Model.compare_bytes sim (min key_len inline);
      (* Keys longer than the inline prefix force a fetch of the stored
         key's suffix — a cold line per comparison (Figure 9's cost). *)
      if key_len > inline then
        Model.visit sim
          ~node:(value_id ~rank:(0x3FFF_FFFF land ((rank * 31) + key_len)))
          ~lines:1 ~prefetch:false
    done
  in
  let depth =
    walk_path sim ~tag:0 ~base:btree_fanout ~n ~rank ~lines:btree_node_lines ~prefetch
      ~per_node
  in
  ignore depth;
  touch_value sim ~rank;
  match op with
  | Get -> Model.op_done sim
  | Put ->
      Model.alloc sim ~bytes:(16 + key_len);
      if not permuter then
        (* Classic insert shuffles half the leaf in place: extra dirty
           lines written back. *)
        Model.compute sim (float_of_int (btree_node_lines / 2) *. 30.0);
      (* Amortized split cost: one new node every ~fanout inserts. *)
      if rank mod btree_fanout = 0 then Model.alloc sim ~bytes:(btree_node_lines * 64);
      Model.op_done sim

let masstree_node_lines = 4

(* Node-size ablation (§4.2): a node of [lines] cache lines holds about
   (lines*64)/16 slice+pointer pairs; wider nodes make shallower trees but
   cost more line transfers behind each prefetched fetch. *)
let masstree_sized_op sim ~n ~rank ~lines op =
  let fanout = max 2 ((lines * 64 / 16) - 1) in
  let per_node _ =
    for _ = 1 to max 1 (fanout / 2) do
      Model.compare_slice sim
    done
  in
  ignore
    (walk_path sim ~tag:8 ~base:fanout ~n ~rank ~lines ~prefetch:true ~per_node);
  touch_value sim ~rank;
  match op with
  | Get -> Model.op_done sim
  | Put ->
      Model.alloc sim ~bytes:24;
      if rank mod fanout = 0 then Model.alloc sim ~bytes:(lines * 64);
      Model.op_done sim

(* Shared masstree walk; [pooled] selects the border-payload layout's
   cost model.

   The walk itself is identical: the model already assumes the paper's
   ideal node — four contiguous prefetched lines — and the pooled cell
   is that node in OCaml: 32 immediate-int words, 256 B, the 14 slice-hi
   words (each carrying its slot's suffix handle) followed by 14 words
   packing slice-lo with the key length (the boxed layout approximates
   it and the model has always been calibrated generously toward it).  What the model can price honestly without recalibrating
   the read path is the allocator: the boxed layout pays the GC allocator
   for key storage and node arrays on every put — [alloc_cycles]
   amortizes the collector work that allocation buys — while the arena
   pops a per-domain free list and writes a header: tens of cycles, no
   collector debt, and no major-heap growth for the GC to crawl
   (BENCH_arena.json measures the real pause distribution). *)
let pool_alloc_cycles = 15.0

let masstree_walk sim ~n ~rank ~key_len ~layer_frac ~avg_layer_keys
    ~shared_prefix_layers ~pooled op =
  (* Hot chain of single-entry layers for constant shared prefixes: always
     cached after warmup, but each hop is a visit plus a slice compare. *)
  for l = 0 to shared_prefix_layers - 1 do
    Model.visit sim ~node:(node_id ~level:(40 + l) ~index:0) ~lines:masstree_node_lines
      ~prefetch:true;
    Model.compare_slice sim
  done;
  (* Layer-0 B+-tree over distinct slices. *)
  let n0 = max 1 (int_of_float (float_of_int n /. (1.0 +. (layer_frac *. (avg_layer_keys -. 1.0))))) in
  let per_node _ =
    for _ = 1 to btree_fanout / 2 do
      Model.compare_slice sim
    done
  in
  ignore
    (walk_path sim ~tag:8 ~base:btree_fanout ~n:n0 ~rank:(rank mod n0)
       ~lines:masstree_node_lines ~prefetch:true ~per_node);
  (* A layer_frac of operations continue into a small next-layer tree:
     one more border node (cold, per slice group) plus slice compares. *)
  let in_layer = float_of_int (rank land 0xFFFF) /. 65536.0 < layer_frac in
  if in_layer && key_len > 8 then begin
    Model.visit sim
      ~node:(node_id ~level:30 ~index:(rank / max 1 (int_of_float avg_layer_keys)))
      ~lines:masstree_node_lines ~prefetch:true;
    Model.compare_slice sim
  end;
  touch_value sim ~rank;
  match op with
  | Get -> Model.op_done sim
  | Put ->
      (if pooled then begin
         (* Free-list pops: suffix storage only for keys that overflow
            their slice, amortized node cells on splits. *)
         if key_len > 8 then Model.compute sim pool_alloc_cycles;
         if rank mod btree_fanout = 0 then Model.compute sim pool_alloc_cycles
       end
       else begin
         Model.alloc sim ~bytes:(16 + key_len);
         if rank mod btree_fanout = 0 then
           Model.alloc sim ~bytes:(masstree_node_lines * 64)
       end);
      Model.op_done sim

let masstree_op sim ~n ~rank ~key_len ?(layer_frac = 0.33) ?(avg_layer_keys = 2.3)
    ?(shared_prefix_layers = 0) op =
  masstree_walk sim ~n ~rank ~key_len ~layer_frac ~avg_layer_keys
    ~shared_prefix_layers ~pooled:false op

let masstree_pooled_op sim ~n ~rank ~key_len ?(layer_frac = 0.33)
    ?(avg_layer_keys = 2.3) ?(shared_prefix_layers = 0) op =
  masstree_walk sim ~n ~rank ~key_len ~layer_frac ~avg_layer_keys
    ~shared_prefix_layers ~pooled:true op

(* Level-synchronous batched group get over the masstree shape: the same
   trace {!masstree_walk} replays key by key, re-ordered so round r
   visits every lookup's level-r node back-to-back — the event order
   [Tree.multi_get] produces — and priced through
   {!Model.visit_group} so the round's independent fetches overlap up to
   the configured MLP width.  Node identities are identical to the
   per-key pooled walk, so a sequential baseline replayed with
   {!masstree_pooled_op} differs only in fetch overlap. *)
let masstree_group_get sim ~n ~ranks ~key_lens ?(layer_frac = 0.33)
    ?(avg_layer_keys = 2.3) ?(shared_prefix_layers = 0) () =
  let b = Array.length ranks in
  if b > 0 then begin
    (* Hot shared-prefix layer chain: every flight hops the same nodes. *)
    for l = 0 to shared_prefix_layers - 1 do
      Model.visit_group sim
        ~nodes:(Array.make b (node_id ~level:(40 + l) ~index:0))
        ~lines:masstree_node_lines ~prefetch:true;
      for _ = 1 to b do
        Model.compare_slice sim
      done
    done;
    (* Layer-0 B+-tree: one grouped visit per level. *)
    let n0 =
      max 1
        (int_of_float
           (float_of_int n /. (1.0 +. (layer_frac *. (avg_layer_keys -. 1.0)))))
    in
    let depth = max 1 (ceil_log ~base:btree_fanout n0) in
    for level = 0 to depth - 1 do
      let div = float_of_int btree_fanout ** float_of_int (depth - 1 - level) in
      let nodes =
        Array.map
          (fun rank ->
            node_id ~level:(8 + level)
              ~index:(int_of_float (float_of_int (rank mod n0) /. div)))
          ranks
      in
      Model.visit_group sim ~nodes ~lines:masstree_node_lines ~prefetch:true;
      for _ = 1 to b * (btree_fanout / 2) do
        Model.compare_slice sim
      done
    done;
    (* Flights whose slice collides continue into a layer-1 border. *)
    let hops = ref [] in
    Array.iteri
      (fun i rank ->
        if
          key_lens.(i) > 8
          && float_of_int (rank land 0xFFFF) /. 65536.0 < layer_frac
        then
          hops :=
            node_id ~level:30 ~index:(rank / max 1 (int_of_float avg_layer_keys))
            :: !hops)
      ranks;
    let hops = Array.of_list !hops in
    if Array.length hops > 0 then begin
      Model.visit_group sim ~nodes:hops ~lines:masstree_node_lines ~prefetch:true;
      Array.iter (fun _ -> Model.compare_slice sim) hops
    end;
    (* Values: one cold line per flight, also overlapped. *)
    Model.visit_group sim
      ~nodes:(Array.map (fun rank -> value_id ~rank) ranks)
      ~lines:1 ~prefetch:false;
    for _ = 1 to b do
      Model.op_done sim
    done
  end

let hash_op sim ~n ~rank ~key_len op =
  ignore n;
  (* ~1.1 probed entries at 30% occupancy; each probe is one line. *)
  Model.visit sim ~node:(node_id ~level:0 ~index:rank) ~lines:1 ~prefetch:false;
  if rank land 15 = 0 then
    Model.visit sim ~node:(node_id ~level:0 ~index:(rank + 1)) ~lines:1 ~prefetch:false;
  Model.compare_bytes sim key_len;
  touch_value sim ~rank;
  match op with
  | Get -> Model.op_done sim
  | Put ->
      Model.alloc sim ~bytes:(16 + key_len);
      Model.op_done sim
