open Xutil

type counter = { c_shards : int Atomic.t array; c_mask : int; c_on : bool Atomic.t }

type histo = { h_shards : Histogram.t array; h_mask : int; h_on : bool Atomic.t }

type t = {
  shards : int;
  enabled : bool Atomic.t;
  lock : Mutex.t; (* guards the three name tables below *)
  counters : (string, counter) Hashtbl.t;
  histos : (string, histo) Hashtbl.t;
  gauges : (string, unit -> int) Hashtbl.t;
  tr : Trace.t;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(shards = 16) () =
  let shards = next_pow2 (max 1 shards) in
  {
    shards;
    enabled = Atomic.make true;
    lock = Mutex.create ();
    counters = Hashtbl.create 32;
    histos = Hashtbl.create 32;
    gauges = Hashtbl.create 32;
    tr = Trace.create ~workers:shards ();
  }

let global = create ()

let is_enabled t = Atomic.get t.enabled

let set_enabled t b = Atomic.set t.enabled b

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let counter t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some c -> c
      | None ->
          let c =
            {
              c_shards = Array.init t.shards (fun _ -> Atomic.make 0);
              c_mask = t.shards - 1;
              c_on = t.enabled;
            }
          in
          Hashtbl.add t.counters name c;
          c)

let shard_id = function
  | Some w -> w
  | None -> (Domain.self () :> int)

let add ?worker c n =
  if Atomic.get c.c_on then
    ignore (Atomic.fetch_and_add c.c_shards.(shard_id worker land c.c_mask) n)

let incr ?worker c = add ?worker c 1

let counter_value c = Array.fold_left (fun a s -> a + Atomic.get s) 0 c.c_shards

let histogram t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.histos name with
      | Some h -> h
      | None ->
          let h =
            {
              h_shards = Array.init t.shards (fun _ -> Histogram.create ());
              h_mask = t.shards - 1;
              h_on = t.enabled;
            }
          in
          Hashtbl.add t.histos name h;
          h)

let observe ?worker h v =
  if Atomic.get h.h_on then
    Histogram.add h.h_shards.(shard_id worker land h.h_mask) v

let allocated_shards h =
  Array.fold_left
    (fun a s -> if Histogram.allocated s then a + 1 else a)
    0 h.h_shards

let gauge t name f = with_lock t (fun () -> Hashtbl.replace t.gauges name f)

(* GC health as gauges: sampled (via the thunks) whenever a snapshot is
   taken — the server's stats timer or the Stats wire command — so pause
   sources show up next to the tree and pool metrics they explain.
   [Gc.quick_stat] doesn't walk the heap; cheap enough per sample. *)
let register_gc t =
  gauge t "gc.minor_collections" (fun () -> (Gc.quick_stat ()).Gc.minor_collections);
  gauge t "gc.major_collections" (fun () -> (Gc.quick_stat ()).Gc.major_collections);
  gauge t "gc.compactions" (fun () -> (Gc.quick_stat ()).Gc.compactions);
  gauge t "gc.heap_words" (fun () -> (Gc.quick_stat ()).Gc.heap_words);
  gauge t "gc.top_heap_words" (fun () -> (Gc.quick_stat ()).Gc.top_heap_words);
  gauge t "gc.allocated_words" (fun () ->
      let s = Gc.quick_stat () in
      int_of_float (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words))

let trace t = t.tr

let snapshot t =
  let counters, gauges, hists =
    with_lock t (fun () ->
        ( Hashtbl.fold (fun n c acc -> (n, c) :: acc) t.counters [],
          Hashtbl.fold (fun n f acc -> (n, f) :: acc) t.gauges [],
          Hashtbl.fold (fun n h acc -> (n, h) :: acc) t.histos [] ))
  in
  let counters = List.map (fun (n, c) -> (n, counter_value c)) counters in
  let gauges =
    List.map (fun (n, f) -> (n, try f () with _ -> 0)) gauges
  in
  let hists =
    List.map
      (fun (n, h) ->
        let merged = Histogram.create () in
        Array.iter (fun s -> Histogram.merge_into ~dst:merged s) h.h_shards;
        (n, Snapshot.summarize merged))
      hists
  in
  {
    Snapshot.taken_at_us = Clock.wall_us ();
    counters;
    gauges;
    hists;
    slow = Trace.recent t.tr;
  }

let reset t =
  with_lock t (fun () ->
      Hashtbl.iter
        (fun _ c -> Array.iter (fun s -> Atomic.set s 0) c.c_shards)
        t.counters;
      Hashtbl.iter
        (fun _ h -> Array.iter Histogram.clear h.h_shards)
        t.histos);
  Trace.clear t.tr
