open Xutil

type request =
  | Get of { key : string; columns : int list }
  | Put of { key : string; columns : string array }
  | Put_cols of { key : string; updates : (int * string) list }
  | Remove of string
  | Getrange of { start : string; count : int; columns : int list }
  | Getrange_rev of { start : string; count : int; columns : int list }
  | Stats
  | Snap_open
  | Snap_read of { snap : int64; key : string; columns : int list }
  | Snap_range of { snap : int64; start : string; count : int; columns : int list }
  | Snap_close of int64
  | Repl_open
  | Repl_batch of { session : int64; max_bytes : int }
  | Repl_ack of { session : int64; applied : int64 array }
  | Repl_status
  | Repl_promote
  | Repl_read of { key : string; columns : int list; floor : int64 }

type repl_phase = Repl_snapshot | Repl_tail | Repl_restart

type repl_peer = {
  peer_session : int64;
  peer_lag : int;
  peer_applied : int64 array;
}

type repl_status = {
  repl_role : string;
  repl_applied : int64 array;
  repl_horizon : int array;
  repl_retained : int;
  repl_peers : repl_peer list;
}

(* Why a snapshot id stopped working: [Snap_expired] = the lease existed
   and timed out (reopen and retry); [Snap_unknown] = this server never
   granted it — notably any id from before a restart (snapshots don't
   survive restarts; the client gets a clean typed error, never a torn
   cut). *)
type snap_error = Snap_unknown | Snap_expired

let snap_error_to_string = function
  | Snap_unknown -> "unknown snapshot"
  | Snap_expired -> "snapshot lease expired"

type response =
  | Value of string array option
  | Ok_put
  | Removed of bool
  | Range of (string * string array) list
  | Failed of string
  | Stats_reply of Obs.Snapshot.t
  | Snap_opened of int64
  | Snap_closed
  | Snap_failed of snap_error
  | Repl_opened of { session : int64; versions : int64 array }
  | Repl_records of { phase : repl_phase; frames : string list; done_ : bool }
  | Repl_acked
  | Repl_status_reply of repl_status
  | Repl_promoted of { versions : int64 array }
  | Repl_stale of { applied : int64 }

let write_int_list w l =
  Binio.write_varint w (List.length l);
  List.iter (Binio.write_varint w) l

let read_int_list r =
  let n = Binio.read_varint r in
  List.init n (fun _ -> Binio.read_varint r)

let write_cols w a =
  Binio.write_varint w (Array.length a);
  Array.iter (Binio.write_string w) a

let read_cols r =
  let n = Binio.read_varint r in
  if n > 1 lsl 20 then raise Binio.Truncated;
  Array.init n (fun _ -> Binio.read_string r)

let write_u64_array w a =
  Binio.write_varint w (Array.length a);
  Array.iter (Binio.write_u64 w) a

let read_u64_array r =
  let n = Binio.read_varint r in
  if n > 1 lsl 16 then raise Binio.Truncated;
  Array.init n (fun _ -> Binio.read_u64 r)

let write_string_list w l =
  Binio.write_varint w (List.length l);
  List.iter (Binio.write_string w) l

let read_string_list r =
  let n = Binio.read_varint r in
  if n > 1 lsl 20 then raise Binio.Truncated;
  List.init n (fun _ -> Binio.read_string r)

let encode_request w = function
  | Get { key; columns } ->
      Binio.write_u8 w 1;
      Binio.write_string w key;
      write_int_list w columns
  | Put { key; columns } ->
      Binio.write_u8 w 2;
      Binio.write_string w key;
      write_cols w columns
  | Put_cols { key; updates } ->
      Binio.write_u8 w 3;
      Binio.write_string w key;
      Binio.write_varint w (List.length updates);
      List.iter
        (fun (i, c) ->
          Binio.write_varint w i;
          Binio.write_string w c)
        updates
  | Remove key ->
      Binio.write_u8 w 4;
      Binio.write_string w key
  | Getrange { start; count; columns } ->
      Binio.write_u8 w 5;
      Binio.write_string w start;
      Binio.write_varint w count;
      write_int_list w columns
  | Getrange_rev { start; count; columns } ->
      Binio.write_u8 w 6;
      Binio.write_string w start;
      Binio.write_varint w count;
      write_int_list w columns
  | Stats -> Binio.write_u8 w 7
  | Snap_open -> Binio.write_u8 w 8
  | Snap_read { snap; key; columns } ->
      Binio.write_u8 w 9;
      Binio.write_u64 w snap;
      Binio.write_string w key;
      write_int_list w columns
  | Snap_range { snap; start; count; columns } ->
      Binio.write_u8 w 10;
      Binio.write_u64 w snap;
      Binio.write_string w start;
      Binio.write_varint w count;
      write_int_list w columns
  | Snap_close snap ->
      Binio.write_u8 w 11;
      Binio.write_u64 w snap
  | Repl_open -> Binio.write_u8 w 12
  | Repl_batch { session; max_bytes } ->
      Binio.write_u8 w 13;
      Binio.write_u64 w session;
      Binio.write_varint w max_bytes
  | Repl_ack { session; applied } ->
      Binio.write_u8 w 14;
      Binio.write_u64 w session;
      write_u64_array w applied
  | Repl_status -> Binio.write_u8 w 15
  | Repl_promote -> Binio.write_u8 w 16
  | Repl_read { key; columns; floor } ->
      Binio.write_u8 w 17;
      Binio.write_string w key;
      write_int_list w columns;
      Binio.write_u64 w floor

let decode_request r =
  match Binio.read_u8 r with
  | 1 ->
      let key = Binio.read_string r in
      Get { key; columns = read_int_list r }
  | 2 ->
      let key = Binio.read_string r in
      Put { key; columns = read_cols r }
  | 3 ->
      let key = Binio.read_string r in
      let n = Binio.read_varint r in
      let updates =
        List.init n (fun _ ->
            let i = Binio.read_varint r in
            let c = Binio.read_string r in
            (i, c))
      in
      Put_cols { key; updates }
  | 4 -> Remove (Binio.read_string r)
  | 5 ->
      let start = Binio.read_string r in
      let count = Binio.read_varint r in
      Getrange { start; count; columns = read_int_list r }
  | 6 ->
      let start = Binio.read_string r in
      let count = Binio.read_varint r in
      Getrange_rev { start; count; columns = read_int_list r }
  | 7 -> Stats
  | 8 -> Snap_open
  | 9 ->
      let snap = Binio.read_u64 r in
      let key = Binio.read_string r in
      Snap_read { snap; key; columns = read_int_list r }
  | 10 ->
      let snap = Binio.read_u64 r in
      let start = Binio.read_string r in
      let count = Binio.read_varint r in
      Snap_range { snap; start; count; columns = read_int_list r }
  | 11 -> Snap_close (Binio.read_u64 r)
  | 12 -> Repl_open
  | 13 ->
      let session = Binio.read_u64 r in
      Repl_batch { session; max_bytes = Binio.read_varint r }
  | 14 ->
      let session = Binio.read_u64 r in
      Repl_ack { session; applied = read_u64_array r }
  | 15 -> Repl_status
  | 16 -> Repl_promote
  | 17 ->
      let key = Binio.read_string r in
      let columns = read_int_list r in
      Repl_read { key; columns; floor = Binio.read_u64 r }
  | _ -> raise Binio.Truncated

let encode_response w = function
  | Value None -> Binio.write_u8 w 1
  | Value (Some cols) ->
      Binio.write_u8 w 2;
      write_cols w cols
  | Ok_put -> Binio.write_u8 w 3
  | Removed b ->
      Binio.write_u8 w 4;
      Binio.write_u8 w (if b then 1 else 0)
  | Range items ->
      Binio.write_u8 w 5;
      Binio.write_varint w (List.length items);
      List.iter
        (fun (k, cols) ->
          Binio.write_string w k;
          write_cols w cols)
        items
  | Failed msg ->
      Binio.write_u8 w 6;
      Binio.write_string w msg
  | Stats_reply snap ->
      Binio.write_u8 w 7;
      Obs.Snapshot.write w snap
  | Snap_opened id ->
      Binio.write_u8 w 8;
      Binio.write_u64 w id
  | Snap_closed -> Binio.write_u8 w 9
  | Snap_failed e ->
      Binio.write_u8 w 10;
      Binio.write_u8 w (match e with Snap_unknown -> 0 | Snap_expired -> 1)
  | Repl_opened { session; versions } ->
      Binio.write_u8 w 11;
      Binio.write_u64 w session;
      write_u64_array w versions
  | Repl_records { phase; frames; done_ } ->
      Binio.write_u8 w 12;
      Binio.write_u8 w
        (match phase with Repl_snapshot -> 0 | Repl_tail -> 1 | Repl_restart -> 2);
      write_string_list w frames;
      Binio.write_u8 w (if done_ then 1 else 0)
  | Repl_acked -> Binio.write_u8 w 13
  | Repl_status_reply s ->
      Binio.write_u8 w 14;
      Binio.write_string w s.repl_role;
      write_u64_array w s.repl_applied;
      write_int_list w (Array.to_list s.repl_horizon);
      Binio.write_varint w s.repl_retained;
      Binio.write_varint w (List.length s.repl_peers);
      List.iter
        (fun p ->
          Binio.write_u64 w p.peer_session;
          Binio.write_varint w p.peer_lag;
          write_u64_array w p.peer_applied)
        s.repl_peers
  | Repl_promoted { versions } ->
      Binio.write_u8 w 15;
      write_u64_array w versions
  | Repl_stale { applied } ->
      Binio.write_u8 w 16;
      Binio.write_u64 w applied

(* ---- reply sink: a response written piece by piece ---- *)

let write_absent w = Binio.write_u8 w 1

let begin_value w = Binio.write_u8 w 2

let write_value w = function
  | None -> write_absent w
  | Some cols ->
      begin_value w;
      write_cols w cols

let begin_range w ~limit =
  Binio.write_u8 w 5;
  Binio.reserve w (Binio.varint_size (Int.max 0 limit))

let end_range w pos ~limit n = Binio.patch_varint w ~pos ~width:(Binio.varint_size (Int.max 0 limit)) n

let write_key w b len =
  Binio.write_varint w len;
  Binio.write_bytes w b 0 len

let write_failed w msg = encode_response w (Failed msg)

let decode_response r =
  match Binio.read_u8 r with
  | 1 -> Value None
  | 2 -> Value (Some (read_cols r))
  | 3 -> Ok_put
  | 4 -> Removed (Binio.read_u8 r = 1)
  | 5 ->
      let n = Binio.read_varint r in
      Range
        (List.init n (fun _ ->
             let k = Binio.read_string r in
             (k, read_cols r)))
  | 6 -> Failed (Binio.read_string r)
  | 7 -> Stats_reply (Obs.Snapshot.read r)
  | 8 -> Snap_opened (Binio.read_u64 r)
  | 9 -> Snap_closed
  | 10 -> (
      match Binio.read_u8 r with
      | 0 -> Snap_failed Snap_unknown
      | 1 -> Snap_failed Snap_expired
      | _ -> raise Binio.Truncated)
  | 11 ->
      let session = Binio.read_u64 r in
      Repl_opened { session; versions = read_u64_array r }
  | 12 ->
      let phase =
        match Binio.read_u8 r with
        | 0 -> Repl_snapshot
        | 1 -> Repl_tail
        | 2 -> Repl_restart
        | _ -> raise Binio.Truncated
      in
      let frames = read_string_list r in
      Repl_records { phase; frames; done_ = Binio.read_u8 r = 1 }
  | 13 -> Repl_acked
  | 14 ->
      let repl_role = Binio.read_string r in
      let repl_applied = read_u64_array r in
      let repl_horizon = Array.of_list (read_int_list r) in
      let repl_retained = Binio.read_varint r in
      let npeers = Binio.read_varint r in
      if npeers > 1 lsl 16 then raise Binio.Truncated;
      let repl_peers =
        List.init npeers (fun _ ->
            let peer_session = Binio.read_u64 r in
            let peer_lag = Binio.read_varint r in
            { peer_session; peer_lag; peer_applied = read_u64_array r })
      in
      Repl_status_reply { repl_role; repl_applied; repl_horizon; repl_retained; repl_peers }
  | 15 -> Repl_promoted { versions = read_u64_array r }
  | 16 -> Repl_stale { applied = Binio.read_u64 r }
  | _ -> raise Binio.Truncated

let encode_batch encode items =
  let w = Binio.writer () in
  Binio.write_varint w (List.length items);
  List.iter (encode w) items;
  Binio.contents w

let decode_batch decode body =
  let r = Binio.reader body in
  let n = Binio.read_varint r in
  List.init n (fun _ -> decode r)

let encode_requests = encode_batch encode_request

let encode_responses = encode_batch encode_response

let decode_requests = decode_batch decode_request

let decode_responses = decode_batch decode_response

let encode_responses_into w resps =
  Binio.write_varint w (List.length resps);
  List.iter (encode_response w) resps

(* Decode a frame body that lives inside a larger receive buffer, without
   copying it out first.  The reader can physically see bytes past the
   frame (the next pipelined frame), so a malformed body could decode
   "successfully" by straying into them — the final cursor check catches
   that: the cursor only moves forward, so [pos > stop] at any point
   implies [pos > stop] at the end. *)
let decode_requests_sub buf ~pos ~len =
  let r = Binio.reader ~pos buf in
  let stop = pos + len in
  if stop > String.length buf then raise Binio.Truncated;
  let n = Binio.read_varint r in
  if n > len then raise Binio.Truncated;
  let reqs = List.init n (fun _ -> decode_request r) in
  if r.Binio.pos > stop then raise Binio.Truncated;
  reqs

(* ---- frame IO over fds ---- *)

let really_write fd b off len =
  let rec go off len =
    if len > 0 then begin
      let n = Unix.write fd b off len in
      go (off + n) (len - n)
    end
  in
  go off len

let really_read fd b off len =
  let rec go off len =
    if len = 0 then true
    else begin
      match Unix.read fd b off len with
      | 0 -> false
      | n -> go (off + n) (len - n)
    end
  in
  go off len

let write_frame fd body =
  let len = String.length body in
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.blit_string body 0 b 4 len;
  really_write fd b 0 (4 + len)

let write_frames fd bodies =
  let total = List.fold_left (fun a b -> a + 4 + String.length b) 0 bodies in
  let buf = Bytes.create total in
  let pos = ref 0 in
  List.iter
    (fun body ->
      let len = String.length body in
      Bytes.set_int32_le buf !pos (Int32.of_int len);
      Bytes.blit_string body 0 buf (!pos + 4) len;
      pos := !pos + 4 + len)
    bodies;
  really_write fd buf 0 total

let read_frame fd =
  let hdr = Bytes.create 4 in
  if not (really_read fd hdr 0 4) then None
  else begin
    let len = Int32.to_int (Bytes.get_int32_le hdr 0) in
    if len < 0 || len > 64 * 1024 * 1024 then None
    else begin
      let body = Bytes.create len in
      if really_read fd body 0 len then Some (Bytes.unsafe_to_string body) else None
    end
  end

let pp_request fmt = function
  | Get { key; _ } -> Format.fprintf fmt "get %S" key
  | Put { key; _ } -> Format.fprintf fmt "put %S" key
  | Put_cols { key; updates } -> Format.fprintf fmt "putc %S (%d cols)" key (List.length updates)
  | Remove key -> Format.fprintf fmt "remove %S" key
  | Getrange { start; count; _ } -> Format.fprintf fmt "getrange %S %d" start count
  | Getrange_rev { start; count; _ } -> Format.fprintf fmt "getrange_rev %S %d" start count
  | Stats -> Format.fprintf fmt "stats"
  | Snap_open -> Format.fprintf fmt "snap_open"
  | Snap_read { snap; key; _ } -> Format.fprintf fmt "snap_read #%Ld %S" snap key
  | Snap_range { snap; start; count; _ } ->
      Format.fprintf fmt "snap_range #%Ld %S %d" snap start count
  | Snap_close snap -> Format.fprintf fmt "snap_close #%Ld" snap
  | Repl_open -> Format.fprintf fmt "repl_open"
  | Repl_batch { session; max_bytes } ->
      Format.fprintf fmt "repl_batch #%Ld %d" session max_bytes
  | Repl_ack { session; _ } -> Format.fprintf fmt "repl_ack #%Ld" session
  | Repl_status -> Format.fprintf fmt "repl_status"
  | Repl_promote -> Format.fprintf fmt "repl_promote"
  | Repl_read { key; floor; _ } -> Format.fprintf fmt "repl_read %S @%Ld" key floor
