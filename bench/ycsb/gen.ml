(* Seeded inputs: the preload, the operation stream, the open-loop
   schedule and the durability sample.  Everything is a function of the
   workload and [--seed]; frames are encoded here, before any phase
   starts, so the timed loops only move bytes. *)

module Y = Workload.Ycsb
module P = Kvserver.Protocol

type kind = Get | Put | Scan | Empty | Load of int (* full-value puts *)

type frame = {
  wire : string; (* u32 length prefix + body, ready to write *)
  kind : kind;
  ops : Y.op array;
}

let wire_of_requests reqs =
  let body = P.encode_requests reqs in
  let b = Bytes.create (4 + String.length body) in
  Bytes.set_int32_le b 0 (Int32.of_int (String.length body));
  Bytes.blit_string body 0 b 4 (String.length body);
  Bytes.unsafe_to_string b

let request_of_op = function
  | Y.Get key -> P.Get { key; columns = [] }
  | Y.Put (key, col, data) -> P.Put_cols { key; updates = [ (col, data) ] }
  | Y.Getrange (start, count, col) -> P.Getrange { start; count; columns = [ col ] }

let kind_of_op = function Y.Get _ -> Get | Y.Put _ -> Put | Y.Getrange _ -> Scan

let frame_of_ops ops =
  {
    wire = wire_of_requests (Array.to_list (Array.map request_of_op ops));
    kind = kind_of_op ops.(0);
    ops;
  }

let empty_frame = { wire = wire_of_requests []; kind = Empty; ops = [||] }

let ycsb (w : Spec.t) ~records =
  Y.create ~records (match w.traffic with Uniform_gets -> Y.C | Mix m -> m)

(* Independent streams per purpose, so that changing one input (say the
   sample size) leaves the others identical. *)
let rng ~seed purpose =
  Xutil.Rng.create Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int purpose))

(* The preload value of rank [i] is recomputed on demand from the seed, so
   the durability check needs no copy of the dataset. *)
let initial_value y ~seed i =
  Y.initial_value y (rng ~seed (1_000_000_000 + i))

let preload_frames y ~seed ~records ~per_frame =
  let n = (records + per_frame - 1) / per_frame in
  Array.init n (fun f ->
      let lo = f * per_frame in
      let hi = min records (lo + per_frame) in
      let reqs =
        List.init (hi - lo) (fun j ->
            let i = lo + j in
            P.Put { key = Y.key_of_rank y i; columns = initial_value y ~seed i })
      in
      { wire = wire_of_requests reqs; kind = Load (hi - lo); ops = [||] })

(* The first [n] operations of the workload's stream.  The traced replay
   takes a prefix of this same stream. *)
let ops (w : Spec.t) y ~seed ~n =
  let r = rng ~seed 1 in
  let records = Y.records y in
  Array.init n (fun _ ->
      match w.traffic with
      | Uniform_gets -> Y.Get (Y.key_of_rank y (Xutil.Rng.int r records))
      | Mix _ -> Y.next y r)

let frames (w : Spec.t) ops =
  let k = w.ops_per_frame in
  Array.init (Array.length ops / k) (fun f -> frame_of_ops (Array.sub ops (f * k) k))

let key_of_frame f =
  match f.ops.(0) with Y.Get k | Y.Put (k, _, _) | Y.Getrange (k, _, _) -> k

(* Which of the two connections carries a frame.  Single-op frames go by
   key, so every write to a key travels one connection in order and the
   last write sent is the last applied — what the durability check
   expects to read back. *)
let conn_of_frame idx f =
  if Array.length f.ops = 1 then Hashtbl.hash (key_of_frame f) land 1 else idx land 1

let split_by_conn frames =
  let per = Array.make 2 [] in
  Array.iteri (fun i f -> let c = conn_of_frame i f in per.(c) <- f :: per.(c)) frames;
  Array.map (fun l -> Array.of_list (List.rev l)) per

(* Open-loop schedule: Poisson arrivals at [rate] frames/s over
   [seconds]; returns due offsets in ns. *)
let schedule ~seed ~rate ~seconds =
  let r = rng ~seed 2 in
  let acc = ref [] and t = ref 0.0 in
  let continue = ref true in
  while !continue do
    t := !t -. (log (1.0 -. Xutil.Rng.float r) /. rate);
    if !t >= seconds then continue := false else acc := int_of_float (!t *. 1e9) :: !acc
  done;
  Array.of_list (List.rev !acc)

(* [n] distinct ranks for the durability read-back. *)
let sample ~seed ~records ~n =
  let r = rng ~seed 3 in
  let n = min n records in
  let seen = Hashtbl.create n in
  let out = ref [] in
  while Hashtbl.length seen < n do
    let i = Xutil.Rng.int r records in
    if not (Hashtbl.mem seen i) then begin
      Hashtbl.add seen i ();
      out := i :: !out
    end
  done;
  Array.of_list !out
