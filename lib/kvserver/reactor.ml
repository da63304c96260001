(* Event-driven pipelined front end (the served-traffic path, §5/§7).

   N shard domains each run a poller (epoll on Linux, select elsewhere)
   over non-blocking accepted sockets.  An acceptor thread fans new
   connections out round-robin; each shard owns its connections outright,
   so the data path has no locks: frames are parsed in place from the
   connection's receive buffer, every complete frame available in one
   readable event executes as a single pipelined batch (get-only runs
   share one pipelined multi_get), and all response frames are
   coalesced into one buffered write.  A connection whose pending output
   exceeds its budget stops being read until it drains — backpressure
   instead of unbounded buffering. *)

open Xutil

let reg = Obs.Registry.global

let accepts_ctr = Obs.Registry.counter reg "net.accepts"

let closed_ctr = Obs.Registry.counter reg "net.closed"

let bytes_in_ctr = Obs.Registry.counter reg "net.bytes_in"

let bytes_out_ctr = Obs.Registry.counter reg "net.bytes_out"

let frames_ctr = Obs.Registry.counter reg "net.frames"

let flushes_ctr = Obs.Registry.counter reg "net.flushes"

let bad_frames_ctr = Obs.Registry.counter reg "net.bad_frames"

let frames_per_wakeup_hist = Obs.Registry.histogram reg "net.frames_per_wakeup"

let live_conns = Atomic.make 0

let () =
  Obs.Registry.gauge reg "net.connections" (fun () -> Atomic.get live_conns);
  Obs.Registry.gauge reg "net.buf_grows" (fun () -> Netbuf.grows ())

type conn = {
  fd : Unix.file_descr;
  inb : Netbuf.In.t;
  out : Netbuf.Out.t;
  mutable eof : bool; (* peer finished sending: drain output, then close *)
}

type shard = {
  sid : int;
  poller : Poller.t;
  inbox : Unix.file_descr Mpsc_queue.t;
  wake_rd : Unix.file_descr;
  wake_wr : Unix.file_descr;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  budget : int; (* per-connection output budget (backpressure) *)
}

type t = {
  lfd : Unix.file_descr;
  actual : Tcp.addr;
  shards : shard array;
  stopping : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  mutable domains : unit Domain.t array;
  backend : Engine.backend;
  out_budget : int;
}

(* Cap on bytes pulled from one connection per wakeup, so one firehose
   connection cannot starve its shard siblings. *)
let read_cap = 256 * 1024

let wake shard = try ignore (Unix.write shard.wake_wr (Bytes.make 1 '!') 0 1) with Unix.Unix_error _ -> ()

let close_conn shard conn =
  Poller.remove shard.poller conn.fd;
  Hashtbl.remove shard.conns conn.fd;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Atomic.decr live_conns;
  Obs.Registry.incr ~worker:shard.sid closed_ctr

(* Re-register interest from the connection's current state: read while
   under the output budget and the peer still talks, write while output
   is pending. *)
let update_interest shard conn =
  let write = Netbuf.Out.pending conn.out > 0 in
  let read = (not conn.eof) && not (Netbuf.Out.over_budget conn.out) in
  if (not read) && not write then begin
    (* Nothing left to wait for: peer is done and output is drained. *)
    if conn.eof then close_conn shard conn
    else Poller.set shard.poller conn.fd ~read:false ~write:false
  end
  else Poller.set shard.poller conn.fd ~read ~write

let flush_out shard conn =
  let before = Netbuf.Out.pending conn.out in
  if before > 0 then begin
    Obs.Registry.incr ~worker:shard.sid flushes_ctr;
    match Netbuf.Out.flush conn.out conn.fd with
    | Netbuf.Out.Drained | Netbuf.Out.Blocked ->
        Obs.Registry.add ~worker:shard.sid bytes_out_ctr
          (before - Netbuf.Out.pending conn.out);
        update_interest shard conn
    | Netbuf.Out.Closed -> close_conn shard conn
  end
  else update_interest shard conn

let handle_readable server shard conn =
  (* 1. Pull what the kernel has (bounded). *)
  let total = ref 0 in
  let continue = ref true in
  while !continue && !total < read_cap do
    match Netbuf.In.refill conn.inb conn.fd with
    | Netbuf.In.Filled n -> total := !total + n
    | Netbuf.In.Blocked -> continue := false
    | Netbuf.In.Eof ->
        conn.eof <- true;
        continue := false
  done;
  if !total > 0 then Obs.Registry.add ~worker:shard.sid bytes_in_ctr !total;
  (* 2. Parse every complete frame sitting in the buffer. *)
  let bad = ref false in
  let frames = ref [] in
  let parsing = ref true in
  while !parsing do
    match Netbuf.In.next_frame conn.inb with
    | Netbuf.In.Frame (pos, len) -> frames := (pos, len) :: !frames
    | Netbuf.In.Partial -> parsing := false
    | Netbuf.In.Bad_frame ->
        bad := true;
        parsing := false
  done;
  let frames = List.rev !frames in
  (* 3. Execute the whole pipeline window as one batch, coalescing all
     response frames into the output buffer. *)
  (match frames with
  | [] -> ()
  | _ ->
      let nframes = List.length frames in
      Obs.Registry.add ~worker:shard.sid frames_ctr nframes;
      Obs.Registry.observe ~worker:shard.sid frames_per_wakeup_hist nframes;
      Engine.serve_frames ~worker:shard.sid server.backend
        ~buf:(Netbuf.In.contents conn.inb) ~frames conn.out);
  if !bad then begin
    (* Framing is unrecoverable (negative/oversized length): answer what
       was well-framed, then hang up. *)
    Obs.Registry.incr ~worker:shard.sid bad_frames_ctr;
    conn.eof <- true
  end;
  if conn.eof && Netbuf.In.pending conn.inb > 0 && not !bad then begin
    (* Truncated trailing frame at EOF: nothing more can complete it. *)
    Obs.Registry.incr ~worker:shard.sid bad_frames_ctr
  end;
  (* 4. One coalesced flush for everything this wakeup produced. *)
  flush_out shard conn

let adopt_new shard =
  (* Drain the wakeup pipe, then the inbox. *)
  let scratch = Bytes.create 64 in
  let rec drain_pipe () =
    match Unix.read shard.wake_rd scratch 0 64 with
    | 64 -> drain_pipe ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  drain_pipe ();
  ignore
    (Mpsc_queue.drain shard.inbox (fun fd ->
         let conn =
           {
             fd;
             inb = Netbuf.In.create ();
             out = Netbuf.Out.create ~budget:shard.budget ();
             eof = false;
           }
         in
         Hashtbl.replace shard.conns fd conn;
         Poller.set shard.poller fd ~read:true ~write:false))

let shard_loop server shard () =
  Poller.set shard.poller shard.wake_rd ~read:true ~write:false;
  while not (Atomic.get server.stopping) do
    Poller.wait shard.poller ~timeout_ms:200 (fun fd readable writable ->
        (* A descriptor is an immediate int on Unix, so [==] is the
           typed equality ([=] here would call [caml_equal]). *)
        if fd == shard.wake_rd then adopt_new shard
        else
          match Hashtbl.find_opt shard.conns fd with
          | None -> ()
          | Some conn ->
              if writable then flush_out shard conn;
              (* The write path may have closed it. *)
              if readable && Hashtbl.mem shard.conns fd then
                handle_readable server shard conn)
  done;
  Hashtbl.iter
    (fun _ c ->
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      Atomic.decr live_conns)
    shard.conns;
  Hashtbl.reset shard.conns;
  (* Connections accepted but not yet adopted still need closing. *)
  ignore
    (Mpsc_queue.drain shard.inbox (fun fd ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         Atomic.decr live_conns));
  Poller.close shard.poller;
  (try Unix.close shard.wake_rd with Unix.Unix_error _ -> ());
  (try Unix.close shard.wake_wr with Unix.Unix_error _ -> ())

let rec accept_loop server next () =
  match Unix.accept server.lfd with
  | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
  | exception Unix.Unix_error _ ->
      if not (Atomic.get server.stopping) then accept_loop server next ()
  | client_fd, _ ->
      if Atomic.get server.stopping then (try Unix.close client_fd with _ -> ())
      else begin
        (match server.actual with
        | Tcp.Tcp _ -> (
            try Unix.setsockopt client_fd Unix.TCP_NODELAY true
            with Unix.Unix_error _ -> ())
        | Tcp.Unix_sock _ -> ());
        Unix.set_nonblock client_fd;
        let shard = server.shards.(next mod Array.length server.shards) in
        Atomic.incr live_conns;
        Obs.Registry.incr accepts_ctr;
        Mpsc_queue.push shard.inbox client_fd;
        wake shard;
        accept_loop server (next + 1) ()
      end

let start ?(shards = 2) ?(out_budget = 1 lsl 20) listener backend =
  let shards = max 1 shards in
  let mk_shard sid =
    let wake_rd, wake_wr = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock wake_rd;
    Unix.set_nonblock wake_wr;
    {
      sid;
      poller = Poller.create ();
      inbox = Mpsc_queue.create ();
      wake_rd;
      wake_wr;
      conns = Hashtbl.create 64;
      budget = max 4096 out_budget;
    }
  in
  let server =
    {
      lfd = Tcp.listener_fd listener;
      actual = Tcp.listener_addr listener;
      shards = Array.init shards mk_shard;
      stopping = Atomic.make false;
      accept_thread = None;
      domains = [||];
      backend;
      out_budget;
    }
  in
  server.domains <-
    Array.map (fun s -> Domain.spawn (shard_loop server s)) server.shards;
  server.accept_thread <- Some (Thread.create (accept_loop server 0) ());
  server

let serve ?shards ?out_budget ?backlog addr backend =
  start ?shards ?out_budget (Tcp.bind ?backlog addr) backend

let bound_addr t = t.actual

let backend t = Poller.backend_name t.shards.(0).poller

let shutdown t =
  Atomic.set t.stopping true;
  (try Unix.shutdown t.lfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close t.lfd with Unix.Unix_error _ -> ());
  Array.iter wake t.shards;
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  Array.iter Domain.join t.domains;
  match t.actual with
  | Tcp.Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp.Tcp _ -> ()
