(* Network front-end comparison: threaded accept loop vs event-driven
   reactor vs reactor with client pipelining, over loopback TCP and a
   Unix-domain socket.

   Each frame carries a single get so the measurement isolates per-frame
   network cost — exactly what the reactor's batched execution and write
   coalescing attack.  The acceptance bar (ISSUE 3) is reactor+pipelining
   at depth >= 8 reaching at least 2x the threaded frame-at-a-time
   throughput on loopback TCP.  Results land in BENCH_net.json, including
   a steady-state buffer-growth probe: once a connection's netbufs reach
   their working size, further traffic must not allocate. *)

open Bench_util

let depth = 16

type front = FThreaded of Kvserver.Tcp.server | FReactor of Kvserver.Reactor.t

let front_addr = function
  | FThreaded s -> Kvserver.Tcp.bound_addr s
  | FReactor r -> Kvserver.Reactor.bound_addr r

let front_shutdown = function
  | FThreaded s -> Kvserver.Tcp.shutdown s
  | FReactor r -> Kvserver.Reactor.shutdown r

(* One connection's worth of load: [per_client] single-get frames, up to
   [pipeline] in flight.  Returns frames completed. *)
let client_worker scale addr ~pipeline ~per_client ~seed ~deadline =
  let keygen = Workload.Keygen.decimal_1_10 ~range:scale.keys in
  let c = Kvserver.Tcp.connect addr in
  let rng = Xutil.Rng.create seed in
  let sent = ref 0 in
  let continue () =
    !sent < per_client
    && (!sent land 0xFF <> 0 || Int64.compare (Xutil.Clock.now_ns ()) deadline < 0)
  in
  if pipeline <= 1 then
    while continue () do
      ignore
        (Kvserver.Tcp.call c [ Kvserver.Protocol.Get { key = keygen rng; columns = [] } ]);
      incr sent
    done
  else
    while continue () do
      let n = min pipeline (per_client - !sent) in
      let frames =
        List.init n (fun _ ->
            [ Kvserver.Protocol.Get { key = keygen rng; columns = [] } ])
      in
      ignore (Kvserver.Tcp.call_pipelined ~window:pipeline c frames);
      sent := !sent + n
    done;
  Kvserver.Tcp.disconnect c;
  !sent

let measure_pass scale addr ~clients ~pipeline =
  let per_client = max 1 (scale.ops / clients) in
  let counts = Array.make clients 0 in
  let t0 = Xutil.Clock.now_ns () in
  let deadline = Int64.add t0 (Int64.of_float (scale.seconds *. 1e9)) in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            counts.(i) <-
              client_worker scale addr ~pipeline ~per_client
                ~seed:(Int64.of_int (100 + i))
                ~deadline)
          ())
  in
  List.iter Thread.join threads;
  let dt = Xutil.Clock.elapsed_s t0 in
  float_of_int (Array.fold_left ( + ) 0 counts) /. dt

(* Steady-state allocation probe on a single live connection: after a
   warmup lets the connection's netbufs reach their working size, more
   pipelined rounds must not grow any buffer anywhere. *)
let steady_state_grows scale addr =
  let keygen = Workload.Keygen.decimal_1_10 ~range:scale.keys in
  let c = Kvserver.Tcp.connect addr in
  let rng = Xutil.Rng.create 7L in
  let round () =
    let frames =
      List.init depth (fun _ ->
          [ Kvserver.Protocol.Get { key = keygen rng; columns = [] } ])
    in
    ignore (Kvserver.Tcp.call_pipelined ~window:depth c frames)
  in
  for _ = 1 to 3 do round () done;
  let g0 = Kvserver.Netbuf.grows () in
  for _ = 1 to 10 do round () done;
  let g1 = Kvserver.Netbuf.grows () in
  Kvserver.Tcp.disconnect c;
  g1 - g0

let with_front scale kind addr_spec f =
  let store = Kvstore.Store.create () in
  ignore
    (preload_decimal ~keys:scale.keys ~range:scale.keys (fun k ->
         Kvstore.Store.put store k [| "12345678" |]));
  let front =
    match kind with
    | `Threaded -> FThreaded (Kvserver.Tcp.serve addr_spec (Kvserver.Engine.single store))
    | `Reactor -> FReactor (Kvserver.Reactor.serve ~shards:2 addr_spec (Kvserver.Engine.single store))
  in
  let r = f front (front_addr front) in
  front_shutdown front;
  r

let run scale =
  header "netperf: threaded vs reactor vs reactor+pipelining";
  let clients = 4 in
  let sock_base = Filename.temp_file "netperf" ".sock" in
  Sys.remove sock_base;
  let transports =
    [ ("tcp", Kvserver.Tcp.Tcp ("127.0.0.1", 0)); ("unix", Kvserver.Tcp.Unix_sock sock_base) ]
  in
  let results = ref [] in
  let grows = ref 0 in
  let backend = ref "?" in
  List.iter
    (fun (tname, addr_spec) ->
      subheader (Printf.sprintf "transport: %s (%d clients, 1 get/frame)" tname clients);
      let one kind fname pipeline =
        with_front scale kind addr_spec (fun front addr ->
            (match front with
            | FReactor r -> backend := Kvserver.Reactor.backend r
            | FThreaded _ -> ());
            (* warmup *)
            let warm = { scale with ops = max clients (scale.ops / 20) } in
            ignore (measure_pass warm addr ~clients ~pipeline);
            let ops = measure_pass scale addr ~clients ~pipeline in
            row "%-18s pipeline=%-2d  %10.0f ops/s\n" fname pipeline ops;
            if tname = "tcp" && fname = "reactor+pipeline" then
              grows := steady_state_grows scale addr;
            results := (tname, fname, pipeline, ops) :: !results;
            ops)
      in
      let threaded = one `Threaded "threaded" 1 in
      let _reactor = one `Reactor "reactor" 1 in
      let piped = one `Reactor "reactor+pipeline" depth in
      row "speedup reactor+pipeline vs threaded: %.2fx%s\n"
        (piped /. threaded)
        (if tname = "tcp" then
           if piped >= 2.0 *. threaded then "  (acceptance: >= 2x: PASS)"
           else "  (acceptance: >= 2x: FAIL)"
         else ""))
    transports;
  row "steady-state netbuf growths during 10 pipelined rounds: %d (want 0)\n" !grows;
  let results = List.rev !results in
  let find t f =
    match List.find_opt (fun (t', f', _, _) -> t = t' && f = f') results with
    | Some (_, _, _, ops) -> ops
    | None -> 0.0
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"pipeline_depth\": %d,\n" depth);
  Buffer.add_string buf (Printf.sprintf "  \"clients\": %d,\n" clients);
  Buffer.add_string buf (Printf.sprintf "  \"poller_backend\": \"%s\",\n" !backend);
  Buffer.add_string buf "  \"results\": [\n";
  List.iteri
    (fun i (t, f, p, ops) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"transport\": \"%s\", \"front\": \"%s\", \"pipeline\": %d, \
            \"ops_per_sec\": %.0f}%s\n"
           t f p ops
           (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string buf "  ],\n";
  let sp t =
    let th = find t "threaded" in
    if th > 0.0 then find t "reactor+pipeline" /. th else 0.0
  in
  Buffer.add_string buf
    (Printf.sprintf "  \"speedup_tcp\": %.2f,\n  \"speedup_unix\": %.2f,\n" (sp "tcp")
       (sp "unix"));
  Buffer.add_string buf
    (Printf.sprintf "  \"steady_state_buf_grows\": %d\n}\n" !grows);
  write_result ~scale "BENCH_net.json" (Buffer.contents buf)
