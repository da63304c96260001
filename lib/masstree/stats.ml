type counter =
  | Gets
  | Puts
  | Removes
  | Scans
  | Splits_border
  | Splits_interior
  | Layer_creates
  | Root_retries
  | Local_retries
  | Node_deletes
  | Layer_collapses
  | Slot_reuses
  | Leaf_merges
  | Pipeline_restarts

let n_counters = 14

let index = function
  | Gets -> 0
  | Puts -> 1
  | Removes -> 2
  | Scans -> 3
  | Splits_border -> 4
  | Splits_interior -> 5
  | Layer_creates -> 6
  | Root_retries -> 7
  | Local_retries -> 8
  | Node_deletes -> 9
  | Layer_collapses -> 10
  | Slot_reuses -> 11
  | Leaf_merges -> 12
  | Pipeline_restarts -> 13

let name = function
  | Gets -> "gets"
  | Puts -> "puts"
  | Removes -> "removes"
  | Scans -> "scans"
  | Splits_border -> "splits_border"
  | Splits_interior -> "splits_interior"
  | Layer_creates -> "layer_creates"
  | Root_retries -> "root_retries"
  | Local_retries -> "local_retries"
  | Node_deletes -> "node_deletes"
  | Layer_collapses -> "layer_collapses"
  | Slot_reuses -> "slot_reuses"
  | Leaf_merges -> "leaf_merges"
  | Pipeline_restarts -> "pipeline_restarts"

let all =
  [ Gets; Puts; Removes; Scans; Splits_border; Splits_interior; Layer_creates;
    Root_retries; Local_retries; Node_deletes; Layer_collapses; Slot_reuses;
    Leaf_merges; Pipeline_restarts ]

(* Per-domain counters: each domain bumps its own array with plain
   stores, so a reader's count writes no shared line (§4.5).  [shards]
   holds every domain's array — a domain that has exited keeps its
   counts — and [read] sums them; a sum racing an increment may miss it,
   as any unsynchronized gauge would. *)
type t = { key : int array Domain.DLS.key; shards : int array list Atomic.t }

let create () =
  let shards = Atomic.make [] in
  let rec register a =
    let l = Atomic.get shards in
    if not (Atomic.compare_and_set shards l (a :: l)) then register a
  in
  let key =
    Domain.DLS.new_key (fun () ->
        let a = Array.make n_counters 0 in
        register a;
        a)
  in
  { key; shards }

let add t c n =
  let a = Domain.DLS.get t.key and i = index c in
  Array.unsafe_set a i (Array.unsafe_get a i + n)

let incr t c = add t c 1

let read t c =
  let i = index c in
  List.fold_left (fun acc a -> acc + a.(i)) 0 (Atomic.get t.shards)

let to_list t = List.map (fun c -> (c, read t c)) all

let reset t = List.iter (fun a -> Array.fill a 0 n_counters 0) (Atomic.get t.shards)

let pp fmt t =
  List.iter
    (fun c ->
      let v = read t c in
      if v <> 0 then Format.fprintf fmt "%s=%d@ " (name c) v)
    all
