(* The load generator: one thread, two TCP connections, one Unix.select
   loop.  Closed-loop phases keep a window of frames in flight per
   connection; the open-loop phase sends on a precomputed Poisson
   schedule whether or not replies have come back.  Every reply is
   decoded and checked. *)

module P = Kvserver.Protocol
module Y = Workload.Ycsb

let now () = Int64.to_int (Monotonic_clock.now ())

exception Lost of string

type pending = { frame : Gen.frame; t0 : int (* ns: sent, or due in the open loop *) }

type conn = {
  fd : Unix.file_descr;
  mutable ob : Bytes.t;
  mutable opos : int;
  mutable olen : int;
  mutable ib : Bytes.t;
  mutable ilen : int;
  q : pending Queue.t;
}

(* Failure accounting over a whole run, in operations.  An empty probe
   frame counts as one. *)
type tally = { mutable attempted : int; mutable failed : int; mutable first_error : string option }

type t = {
  port : int;
  conns : conn array;
  tally : tally;
  on_send : Gen.frame -> unit; (* the durability model sees every frame sent *)
}

let ops_of (f : Gen.frame) = match f.kind with Gen.Load n -> n | _ -> max 1 (Array.length f.ops)

let fail t n msg =
  t.tally.failed <- t.tally.failed + n;
  if t.tally.first_error = None then t.tally.first_error <- Some msg

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  {
    fd;
    ob = Bytes.create 65536;
    opos = 0;
    olen = 0;
    ib = Bytes.create 65536;
    ilen = 0;
    q = Queue.create ();
  }

let create ~port ~tally ~on_send =
  { port; conns = [| connect port; connect port |]; tally; on_send }

let close t = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns

let push c (p : pending) =
  let w = p.frame.wire in
  let n = String.length w in
  if c.olen + n > Bytes.length c.ob then begin
    let live = c.olen - c.opos in
    let nb =
      if live + n > Bytes.length c.ob then Bytes.create (2 * (live + n)) else c.ob
    in
    Bytes.blit c.ob c.opos nb 0 live;
    c.ob <- nb;
    c.opos <- 0;
    c.olen <- live
  end;
  Bytes.blit_string w 0 c.ob c.olen n;
  c.olen <- c.olen + n;
  Queue.push p c.q

let enqueue t c p =
  push c p;
  t.tally.attempted <- t.tally.attempted + ops_of p.frame;
  t.on_send p.frame

let flush c =
  if c.olen > c.opos then
    match Unix.single_write c.fd c.ob c.opos (c.olen - c.opos) with
    | n ->
        c.opos <- c.opos + n;
        if c.opos = c.olen then begin
          c.opos <- 0;
          c.olen <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> raise (Lost (Unix.error_message e))

let frame_len b pos = Int32.to_int (Bytes.get_int32_le b pos)

(* Read what is available and hand every complete reply frame, with the
   time it arrived, to [on_reply]. *)
let receive c ci ~on_reply =
  let need = if c.ilen >= 4 then 4 + frame_len c.ib 0 else 0 in
  if Bytes.length c.ib - c.ilen < 16384 || need > Bytes.length c.ib then begin
    let nb = Bytes.create (max (2 * Bytes.length c.ib) (need + 16384)) in
    Bytes.blit c.ib 0 nb 0 c.ilen;
    c.ib <- nb
  end;
  match Unix.read c.fd c.ib c.ilen (Bytes.length c.ib - c.ilen) with
  | 0 -> raise (Lost "mtd closed the connection")
  | n ->
      let at = now () in
      c.ilen <- c.ilen + n;
      let pos = ref 0 in
      while c.ilen - !pos >= 4 && c.ilen - !pos - 4 >= frame_len c.ib !pos do
        let len = frame_len c.ib !pos in
        let body = Bytes.sub_string c.ib (!pos + 4) len in
        pos := !pos + 4 + len;
        match Queue.take_opt c.q with
        | Some p -> on_reply ci p body at
        | None -> raise (Lost "reply without a request")
      done;
      Bytes.blit c.ib !pos c.ib 0 (c.ilen - !pos);
      c.ilen <- c.ilen - !pos
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> raise (Lost (Unix.error_message e))

let pump t ~timeout ~on_reply =
  Array.iter flush t.conns;
  let fds = Array.to_list (Array.map (fun c -> c.fd) t.conns) in
  let wr = List.filter_map (fun c -> if c.olen > c.opos then Some c.fd else None) (Array.to_list t.conns) in
  let rd, _, _ =
    try Unix.select fds wr [] (Float.max 0.0 timeout)
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  Array.iteri (fun ci c -> if List.mem c.fd rd then receive c ci ~on_reply) t.conns

let in_flight t = Array.fold_left (fun a c -> a + Queue.length c.q) 0 t.conns

(* Ops still unanswered [grace] after a phase ends are failures. *)
let grace_ns = 2_000_000_000

let drain t ~on_reply =
  let deadline = now () + grace_ns in
  while in_flight t > 0 && now () < deadline do
    pump t ~timeout:0.05 ~on_reply
  done;
  (* A connection that still owes replies is replaced, so that late
     replies cannot be matched to the next phase's requests. *)
  Array.iteri
    (fun i c ->
      if not (Queue.is_empty c.q) then begin
        Queue.iter (fun p -> fail t (ops_of p.frame) "reply missing 2 s after the phase") c.q;
        (try Unix.close c.fd with Unix.Unix_error _ -> ());
        t.conns.(i) <- connect t.port
      end)
    t.conns

(* ---- validation ---- *)

let lower4 s = String.length s = 4 && String.for_all (fun ch -> ch >= 'a' && ch <= 'z') s

let rec ascending = function
  | (a, _) :: ((b, _) :: _ as rest) -> String.compare a b < 0 && ascending rest
  | _ -> true

(* Gets return all 10 columns of 4 lowercase bytes (no key is ever
   removed); puts are acknowledged; scans return ascending keys from
   [start] on, at most [count] of them, one column each. *)
let valid_op op resp =
  match (op, resp) with
  | Y.Get _, P.Value (Some cols) -> Array.length cols = Y.columns && Array.for_all lower4 cols
  | Y.Put _, P.Ok_put -> true
  | Y.Getrange (start, count, _), P.Range items -> (
      List.length items <= count
      && ascending items
      && List.for_all (fun (_, c) -> Array.length c = 1 && lower4 c.(0)) items
      && match items with [] -> true | (k, _) :: _ -> String.compare k start >= 0)
  | _ -> false

(* Number of invalid ops in the reply to [f]. *)
let invalid (f : Gen.frame) body =
  match P.decode_responses body with
  | exception _ -> ops_of f
  | resps when f.kind = Gen.Empty -> if resps = [] then 0 else 1
  | resps when f.kind = Gen.Load (List.length resps) ->
      List.length (List.filter (fun r -> r <> P.Ok_put) resps)
  | resps when List.length resps <> Array.length f.ops -> ops_of f
  | resps ->
      let bad = ref 0 in
      List.iteri (fun i r -> if not (valid_op f.ops.(i) r) then incr bad) resps;
      !bad

let check t (p : pending) body =
  let bad = invalid p.frame body in
  if bad > 0 then fail t bad "invalid reply";
  bad = 0

(* ---- phases ---- *)

type stop = After of float | Once

(* Closed loop over per-connection frame pools, [window] frames in
   flight on each connection.  [After s] cycles the pools for [s]
   seconds, continuing from [cursor]; [Once] sends every frame once.
   Returns ops completed before the deadline and the elapsed seconds. *)
let closed t ~pools ?(cursor = Array.make 2 0) ~window ~stop ?(verify = check t) () =
  let t_start = now () in
  let t_end =
    match stop with After s -> t_start + int_of_float (s *. 1e9) | Once -> max_int
  in
  let completed = ref 0 in
  let issue ci =
    let pool = pools.(ci) in
    let n = Array.length pool in
    if n > 0 && (stop <> Once || cursor.(ci) < n) then begin
      enqueue t t.conns.(ci) { frame = pool.(cursor.(ci) mod n); t0 = now () };
      cursor.(ci) <- cursor.(ci) + 1
    end
  in
  let on_reply ci p body at =
    if verify p body && at < t_end then completed := !completed + ops_of p.frame;
    if at < t_end then issue ci
  in
  Array.iteri (fun ci _ -> for _ = 1 to window do issue ci done) t.conns;
  (match stop with
  | After _ ->
      while now () < t_end do
        pump t ~timeout:(float (t_end - now ()) /. 1e9) ~on_reply
      done
  | Once ->
      let deadline = t_start + 120_000_000_000 in
      while in_flight t > 0 && now () < deadline do
        pump t ~timeout:0.05 ~on_reply
      done);
  let elapsed = float (min (now ()) t_end - t_start) /. 1e9 in
  drain t ~on_reply;
  (!completed, elapsed)

(* Open loop: frame [i] goes out on connection [conn.(i)] at [due.(i)] ns
   after the start, whatever the replies are doing.  A connection with
   [backlog_cap] requests outstanding refuses the send, which counts as
   a failure.  [on_done] gets the latency from the due time; [late]
   gets how far behind schedule each send went out. *)
let backlog_cap = 10_000

let open_loop t ~frames ~conn ~due ~on_done ~late =
  let n = Array.length due in
  let t_start = now () + 1_000_000 in
  let next = ref 0 in
  let on_reply _ p body at = if check t p body then on_done p (at - p.t0) in
  while !next < n do
    let at = now () in
    while !next < n && t_start + due.(!next) <= at do
      let i = !next in
      let c = t.conns.(conn.(i)) in
      if Queue.length c.q >= backlog_cap then begin
        t.tally.attempted <- t.tally.attempted + ops_of frames.(i);
        fail t (ops_of frames.(i)) "open-loop backlog cap reached"
      end
      else begin
        enqueue t c { frame = frames.(i); t0 = t_start + due.(i) };
        late (at - (t_start + due.(i)))
      end;
      incr next
    done;
    let timeout = if !next < n then float (t_start + due.(!next) - now ()) /. 1e9 else 0.0 in
    pump t ~timeout ~on_reply
  done;
  drain t ~on_reply

(* Window-1 round trips of [frames] on connection 0 for [seconds]. *)
let probe t ~frames ~seconds ~on_done =
  let c = t.conns.(0) in
  let t_end = now () + int_of_float (seconds *. 1e9) in
  let i = ref 0 in
  let on_reply _ p body at = if check t p body then on_done p (at - p.t0) in
  while now () < t_end do
    enqueue t c { frame = frames.(!i mod Array.length frames); t0 = now () };
    incr i;
    drain t ~on_reply
  done

let stats_frame = Gen.{ wire = wire_of_requests [ P.Stats ]; kind = Empty; ops = [||] }

(* A telemetry snapshot, taken between phases with nothing in flight. *)
let stats t =
  push t.conns.(0) { frame = stats_frame; t0 = now () };
  let got = ref None in
  let on_reply _ _ body _ =
    match P.decode_responses body with
    | [ P.Stats_reply snap ] -> got := Some snap
    | _ -> raise (Lost "bad Stats reply")
    | exception _ -> raise (Lost "bad Stats reply")
  in
  let deadline = now () + 10_000_000_000 in
  while !got = None && now () < deadline do
    pump t ~timeout:0.1 ~on_reply
  done;
  match !got with Some s -> s | None -> raise (Lost "no Stats reply")
