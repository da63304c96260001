(* Wire protocol and transports: codec roundtrips, loopback batches,
   real-socket round trips, concurrent clients. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

open Kvserver

let test_codec_roundtrip () =
  let reqs =
    [
      Protocol.Get { key = "k"; columns = [] };
      Protocol.Get { key = "\x00bin\xff"; columns = [ 0; 3; 9 ] };
      Protocol.Put { key = "p"; columns = [| "a"; ""; "\x00" |] };
      Protocol.Put_cols { key = "pc"; updates = [ (2, "x"); (0, "y") ] };
      Protocol.Remove "gone";
      Protocol.Getrange { start = "s"; count = 17; columns = [ 1 ] };
      Protocol.Getrange_rev { start = ""; count = 3; columns = [] };
      Protocol.Stats;
    ]
  in
  check_bool "requests" true (Protocol.decode_requests (Protocol.encode_requests reqs) = reqs);
  let resps =
    [
      Protocol.Value None;
      Protocol.Value (Some [| "a"; "b" |]);
      Protocol.Ok_put;
      Protocol.Removed true;
      Protocol.Removed false;
      Protocol.Range [ ("k1", [| "v" |]); ("k2", [||]) ];
      Protocol.Failed "oops";
      Protocol.Stats_reply Obs.Snapshot.empty;
    ]
  in
  check_bool "responses" true
    (Protocol.decode_responses (Protocol.encode_responses resps) = resps)

let test_codec_rejects_garbage () =
  check_bool "garbage rejected" true
    (match Protocol.decode_requests "\x05\xffgarbage" with
    | _ -> false
    | exception _ -> true)

let test_engine () =
  let s = Kvstore.Store.create () in
  let run r = Engine.execute ~worker:0 (Engine.single s) r in
  check_bool "miss" true (run (Protocol.Get { key = "a"; columns = [] }) = Protocol.Value None);
  check_bool "put" true (run (Protocol.Put { key = "a"; columns = [| "1"; "2" |] }) = Protocol.Ok_put);
  check_bool "hit" true
    (run (Protocol.Get { key = "a"; columns = [] }) = Protocol.Value (Some [| "1"; "2" |]));
  check_bool "subset" true
    (run (Protocol.Get { key = "a"; columns = [ 1 ] }) = Protocol.Value (Some [| "2" |]));
  check_bool "put_cols" true
    (run (Protocol.Put_cols { key = "a"; updates = [ (0, "X") ] }) = Protocol.Ok_put);
  check_bool "merged" true
    (run (Protocol.Get { key = "a"; columns = [] }) = Protocol.Value (Some [| "X"; "2" |]));
  ignore (run (Protocol.Put { key = "b"; columns = [| "bb" |] }));
  (match run (Protocol.Getrange { start = "a"; count = 10; columns = [] }) with
  | Protocol.Range [ ("a", _); ("b", _) ] -> ()
  | _ -> Alcotest.fail "range");
  (match run (Protocol.Getrange_rev { start = ""; count = 2; columns = [] }) with
  | Protocol.Range [ ("b", _); ("a", _) ] -> ()
  | _ -> Alcotest.fail "reverse range");
  check_bool "remove" true (run (Protocol.Remove "a") = Protocol.Removed true);
  check_bool "remove again" true (run (Protocol.Remove "a") = Protocol.Removed false)

let test_loopback () =
  let store = Kvstore.Store.create () in
  let server = Loopback.start ~workers:1 (Engine.single store) in
  let conn = Loopback.connect server in
  (* A batch mixing operation types, like the paper's multi-query client
     messages. *)
  let resps =
    Loopback.call conn
      [
        Protocol.Put { key = "x"; columns = [| "1" |] };
        Protocol.Put { key = "y"; columns = [| "2" |] };
        Protocol.Get { key = "x"; columns = [] };
        Protocol.Getrange { start = ""; count = 10; columns = [] };
      ]
  in
  (match resps with
  | [ Protocol.Ok_put; Protocol.Ok_put; Protocol.Value (Some [| "1" |] ); Protocol.Range items ] ->
      check_int "range size" 2 (List.length items)
  | _ -> Alcotest.fail "unexpected responses");
  Loopback.close_conn conn;
  Loopback.stop server

let test_loopback_concurrent_clients () =
  let store = Kvstore.Store.create () in
  let server = Loopback.start ~workers:2 (Engine.single store) in
  ignore
    (Xutil.Domain_pool.run 3 (fun d ->
         let conn = Loopback.connect server in
         for i = 0 to 199 do
           let k = Printf.sprintf "c%d-%03d" d i in
           match
             Loopback.call conn
               [ Protocol.Put { key = k; columns = [| k |] };
                 Protocol.Get { key = k; columns = [] } ]
           with
           | [ Protocol.Ok_put; Protocol.Value (Some [| v |]) ] when String.equal v k -> ()
           | _ -> failwith "bad loopback response"
         done;
         Loopback.close_conn conn));
  check_int "all stored" 600 (Kvstore.Store.cardinal store);
  Loopback.stop server

let test_unix_socket_server () =
  let store = Kvstore.Store.create () in
  let path = Filename.temp_file "mtsock" ".s" in
  Sys.remove path;
  let server = Tcp.serve (Tcp.Unix_sock path) (Engine.single store) in
  let client = Tcp.connect (Tcp.Unix_sock path) in
  (match Tcp.call client [ Protocol.Put { key = "k"; columns = [| "v" |] } ] with
  | [ Protocol.Ok_put ] -> ()
  | _ -> Alcotest.fail "put over socket");
  (match Tcp.call client [ Protocol.Get { key = "k"; columns = [] } ] with
  | [ Protocol.Value (Some [| "v" |]) ] -> ()
  | _ -> Alcotest.fail "get over socket");
  Tcp.disconnect client;
  Tcp.shutdown server

let test_tcp_server_many_clients () =
  let store = Kvstore.Store.create () in
  let server = Tcp.serve (Tcp.Tcp ("127.0.0.1", 0)) (Engine.single store) in
  let addr = Tcp.bound_addr server in
  let threads =
    List.init 4 (fun d ->
        Thread.create
          (fun () ->
            let c = Tcp.connect addr in
            for i = 0 to 99 do
              let k = Printf.sprintf "t%d-%02d" d i in
              ignore (Tcp.call c [ Protocol.Put { key = k; columns = [| "v" |] } ])
            done;
            Tcp.disconnect c)
          ())
  in
  List.iter Thread.join threads;
  check_int "all stored over tcp" 400 (Kvstore.Store.cardinal store);
  Tcp.shutdown server

let test_server_with_logging () =
  (* Full system path: network -> store -> log -> recovery. *)
  let dir = Xutil.Tmpdir.scoped "mtsrv" in
  let log_path = Filename.concat dir "log0" in
  let logs = [| Persist.Logger.create ~synchronous:true log_path |] in
  let store = Kvstore.Store.create ~logs () in
  let server = Loopback.start (Engine.single store) in
  let conn = Loopback.connect server in
  ignore (Loopback.call conn [ Protocol.Put { key = "durable"; columns = [| "yes" |] } ]);
  Loopback.close_conn conn;
  Loopback.stop server;
  Kvstore.Store.close store;
  match Kvstore.Store.recover ~log_paths:[ log_path ] ~checkpoint_dirs:[] () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (s2, _) ->
      check_bool "network write survived restart" true
        (Kvstore.Store.get s2 "durable" = Some [| "yes" |])

let test_udp_per_core_ports () =
  let store = Kvstore.Store.create () in
  let server = Udp.serve ~host:"127.0.0.1" ~base_port:0 ~workers:2 (Engine.single store) in
  let ports = Udp.ports server in
  check_int "two worker ports" 2 (List.length ports);
  (* Each client targets its own worker's port, like a per-core queue. *)
  List.iteri
    (fun i port ->
      let c = Udp.connect ~host:"127.0.0.1" ~port in
      let k = Printf.sprintf "udp%d" i in
      (match Udp.call c [ Protocol.Put { key = k; columns = [| "v" |] } ] with
      | [ Protocol.Ok_put ] -> ()
      | _ -> Alcotest.fail "udp put");
      (match Udp.call c [ Protocol.Get { key = k; columns = [] } ] with
      | [ Protocol.Value (Some [| "v" |]) ] -> ()
      | _ -> Alcotest.fail "udp get");
      Udp.close c)
    ports;
  (* Cross-port visibility: the store is shared across workers. *)
  let c = Udp.connect ~host:"127.0.0.1" ~port:(List.nth ports 0) in
  (match Udp.call c [ Protocol.Get { key = "udp1"; columns = [] } ] with
  | [ Protocol.Value (Some [| "v" |]) ] -> ()
  | _ -> Alcotest.fail "cross-port visibility");
  Udp.close c;
  Udp.shutdown server

let suite =
  [
    Alcotest.test_case "udp per-core ports" `Quick test_udp_per_core_ports;
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
    Alcotest.test_case "engine" `Quick test_engine;
    Alcotest.test_case "loopback" `Quick test_loopback;
    Alcotest.test_case "loopback concurrent" `Slow test_loopback_concurrent_clients;
    Alcotest.test_case "unix socket server" `Quick test_unix_socket_server;
    Alcotest.test_case "tcp server many clients" `Slow test_tcp_server_many_clients;
    Alcotest.test_case "server with logging" `Quick test_server_with_logging;
  ]
