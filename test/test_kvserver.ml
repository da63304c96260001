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

(* ---- the reply sink against the typed API ---- *)

(* Keys sharing 8- and 16-byte prefixes, so scans cross trie layers and
   suffix keys; "" sorts first. *)
let sink_keys =
  let p8 = "PPPPPPPP" and p16 = "PPPPPPPPQQQQQQQQ" in
  Array.of_list
    ([ ""; "a"; "PPPPPPP"; p8; p8 ^ "\x00"; p8 ^ "x"; p8 ^ "xyz"; p16; p16 ^ "1"; p16 ^ "22" ]
    @ [ p16 ^ "22-longer-suffix"; p8 ^ "QQQQQQQR"; p8 ^ "R"; "PPPPPPPQ"; "z"; "zz\xff" ]
    @ List.init 150 (fun i -> Printf.sprintf "k%03d" i))

let sink_limits = [| 0; 1; 127; 128; 300; max_int |]

type sink_backend = {
  sb_engine : Engine.backend;
  sb_put : string -> string array -> unit;
  sb_remove : string -> unit;
  sb_expired : int64; (* a wire snapshot id whose lease has lapsed *)
  (* typed API: get, get_columns, getrange, getrange_rev *)
  sb_get : string -> int list -> string array option;
  sb_range : rev:bool -> string -> int list -> int -> (string * string array) list;
  (* a typed snapshot opened at the same cut as a wire one *)
  sb_snap : unit -> (string -> int list -> string array option) * (string -> int list -> int -> (string * string array) list) * (unit -> unit);
}

let collect scan =
  let acc = ref [] in
  ignore (scan (fun k v -> acc := (k, v) :: !acc));
  List.rev !acc

let opt_cols = function [] -> None | l -> Some l

let sink_backends =
  lazy
    (let ttl = 1_000_000L in
     let single =
       let s = Kvstore.Store.create () in
       let module S = Kvstore.Store in
       {
         sb_engine = Engine.single ~snap_ttl_us:ttl s;
         sb_put = (fun k v -> S.put ~worker:0 s k v);
         sb_remove = (fun k -> ignore (S.remove ~worker:0 s k));
         sb_expired = 0L;
         sb_get = (fun k -> function [] -> S.get s k | cols -> S.get_columns s k cols);
         sb_range =
           (fun ~rev start cols limit ->
             if rev then
               collect
                 (S.getrange_rev s
                    ?start:(if start = "" then None else Some start)
                    ?columns:(opt_cols cols) ~limit)
             else collect (S.getrange s ~start ?columns:(opt_cols cols) ~limit));
         sb_snap =
           (fun () ->
             let sn = S.Snapshot.open_ s in
             ( (fun k -> function
                 | [] -> S.Snapshot.read sn k
                 | cols -> S.Snapshot.read_columns sn k cols),
               (fun start cols limit ->
                 collect (S.Snapshot.getrange sn ~start ?columns:(opt_cols cols) ~limit)),
               fun () -> S.Snapshot.close sn ));
       }
     in
     let sharded =
       let module R = Shard.Router in
       let r =
         R.create
           ~hot:{ R.default_hot_config with R.hot_slots = 16; sample = 1; refresh_every = 8 }
           (Array.init 2 (fun _ -> Kvstore.Store.create ()))
       in
       {
         sb_engine = Engine.sharded ~snap_ttl_us:ttl r;
         sb_put = (fun k v -> R.put ~worker:0 r k v);
         sb_remove = (fun k -> ignore (R.remove ~worker:0 r k));
         sb_expired = 0L;
         sb_get = (fun k -> function [] -> R.get ~worker:0 r k | cols -> R.get_columns ~worker:0 r k cols);
         sb_range =
           (fun ~rev start cols limit ->
             if rev then
               collect
                 (R.getrange_rev r
                    ?start:(if start = "" then None else Some start)
                    ?columns:(opt_cols cols) ~limit)
             else collect (R.getrange r ~start ?columns:(opt_cols cols) ~limit));
         sb_snap =
           (fun () ->
             let sn = R.Snapshot.open_ r in
             ( (fun k -> function
                 | [] -> R.Snapshot.read sn k
                 | cols -> R.Snapshot.read_columns sn k cols),
               (fun start cols limit ->
                 collect (R.Snapshot.getrange sn ~start ?columns:(opt_cols cols) ~limit)),
               fun () -> R.Snapshot.close sn ));
       }
     in
     (* One wire snapshot per backend left to lapse: its id answers
        [Snap_failed Snap_expired] from then on. *)
     let open_snap b =
       match Engine.execute ~worker:0 b.sb_engine Protocol.Snap_open with
       | Protocol.Snap_opened id -> id
       | _ -> Alcotest.fail "snap open"
     in
     (* Every key present to start with, so a scan can fill a reply
        past 127 items (a two-byte count). *)
     let seed b = Array.iter (fun k -> b.sb_put k [| k; "v" |]) sink_keys in
     seed single;
     seed sharded;
     let single = { single with sb_expired = open_snap single } in
     let sharded = { sharded with sb_expired = open_snap sharded } in
     Unix.sleepf (Int64.to_float ttl /. 1e6 +. 0.1);
     [| single; sharded |])

type sink_op =
  | Write of int * int (* key, columns (0 = remove) *)
  | Read of int * int * int * int list (* kind, key, limit, columns *)

let sink_op_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map2 (fun k n -> Write (k, n)) (int_bound (Array.length sink_keys - 1)) (int_bound 4));
        ( 5,
          map
            (fun (kind, key, lim, cols) -> Read (kind, key, lim, cols))
            (quad (int_bound 6) (int_bound (Array.length sink_keys))
               (int_bound (Array.length sink_limits - 1))
               (oneof [ return []; list_size (1 -- 4) (int_bound 6) ])) );
      ])

let prop_sink_matches_typed =
  QCheck.Test.make ~name:"reply sink decodes to the typed API" ~count:80
    QCheck.(
      make
        ~print:(fun (b, pre, post) ->
          Printf.sprintf "backend %d, %d writes, %d ops" b (List.length pre) (List.length post))
        Gen.(triple (int_bound 1) (list_size (0 -- 30) sink_op_gen) (list_size (1 -- 12) sink_op_gen)))
    (fun (which, pre, ops) ->
      let b = (Lazy.force sink_backends).(which) in
      let write = function
        | Write (k, 0) -> b.sb_remove sink_keys.(k)
        | Write (k, n) ->
            b.sb_put sink_keys.(k) (Array.init n (fun j -> Printf.sprintf "%s/%d/%d" sink_keys.(k) n j))
        | Read _ -> ()
      in
      List.iter write pre;
      (* A wire snapshot and a typed one at the same cut, then writes
         under them: removes leave tombstones the snapshots still see
         through. *)
      let wire =
        match Engine.execute ~worker:0 b.sb_engine Protocol.Snap_open with
        | Protocol.Snap_opened id -> id
        | _ -> Alcotest.fail "snap open"
      in
      let snap_read, snap_range, snap_close = b.sb_snap () in
      List.iter write ops;
      let key i = if i >= Array.length sink_keys then "" else sink_keys.(i) in
      let reqs =
        List.filter_map
          (function
            | Write _ -> None
            | Read (kind, k, lim, columns) -> (
                let count = sink_limits.(lim) and start = key k in
                let snap = match lim mod 3 with 0 -> wire | 1 -> b.sb_expired | _ -> 987_654L in
                match kind with
                | 0 | 1 -> Some (Protocol.Get { key = key k; columns })
                | 2 -> Some (Protocol.Getrange { start; count; columns })
                | 3 -> Some (Protocol.Getrange_rev { start; count; columns })
                | 4 -> Some (Protocol.Snap_read { snap; key = key k; columns })
                | 5 -> Some (Protocol.Snap_range { snap; start; count; columns })
                | _ -> Some (Protocol.Get { key = key k; columns = [] })))
          ops
      in
      let expected =
        List.map
          (function
            | Protocol.Get { key; columns } -> Protocol.Value (b.sb_get key columns)
            | Protocol.Getrange { start; count; columns } ->
                Protocol.Range (b.sb_range ~rev:false start columns count)
            | Protocol.Getrange_rev { start; count; columns } ->
                Protocol.Range (b.sb_range ~rev:true start columns count)
            | Protocol.Snap_read { snap; key; columns } ->
                if snap = wire then Protocol.Value (snap_read key columns)
                else if snap = b.sb_expired then Protocol.Snap_failed Protocol.Snap_expired
                else Protocol.Snap_failed Protocol.Snap_unknown
            | Protocol.Snap_range { snap; start; count; columns } ->
                if snap = wire then Protocol.Range (snap_range start columns count)
                else if snap = b.sb_expired then Protocol.Snap_failed Protocol.Snap_expired
                else Protocol.Snap_failed Protocol.Snap_unknown
            | _ -> assert false)
          reqs
      in
      let got =
        Protocol.decode_responses
          (Engine.handle_frame ~worker:0 b.sb_engine (Protocol.encode_requests reqs))
      in
      snap_close ();
      ignore (Engine.execute ~worker:0 b.sb_engine (Protocol.Snap_close wire));
      got = expected)

(* The padded count: a limit of 300 reserves two bytes, so five items
   answer with [0x85 0x00] where the typed encoder writes [0x05]; both
   decode alike. *)
let test_padded_range_count () =
  let s = Kvstore.Store.create () in
  for i = 0 to 4 do
    Kvstore.Store.put ~worker:0 s (Printf.sprintf "k%d" i) [| "v" |]
  done;
  let b = Engine.single s in
  let body =
    Engine.handle_frame ~worker:0 b
      (Protocol.encode_requests [ Protocol.Getrange { start = ""; count = 300; columns = [] } ])
  in
  check_bool "count padded to the limit's width" true
    (String.sub body 0 4 = "\x01\x05\x85\x00");
  match Protocol.decode_responses body with
  | [ Protocol.Range items ] -> check_int "items" 5 (List.length items)
  | _ -> Alcotest.fail "range reply"

let suite =
  [
    Alcotest.test_case "udp per-core ports" `Quick test_udp_per_core_ports;
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
    Alcotest.test_case "engine" `Quick test_engine;
    QCheck_alcotest.to_alcotest prop_sink_matches_typed;
    Alcotest.test_case "padded range count" `Quick test_padded_range_count;
    Alcotest.test_case "loopback" `Quick test_loopback;
    Alcotest.test_case "loopback concurrent" `Slow test_loopback_concurrent_clients;
    Alcotest.test_case "unix socket server" `Quick test_unix_socket_server;
    Alcotest.test_case "tcp server many clients" `Slow test_tcp_server_many_clients;
    Alcotest.test_case "server with logging" `Quick test_server_with_logging;
  ]
