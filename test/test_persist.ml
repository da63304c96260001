(* Persistence: record framing, corruption detection, group commit,
   checkpoint roundtrips, recovery cutoff semantics, crash injection. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tmpdir () = Xutil.Tmpdir.scoped "mtree"

let mkrec ?(ts = 100L) ?(ver = 1L) ?(cols = [| "a"; "b" |]) key =
  Persist.Logrec.Put { key; version = ver; timestamp = ts; columns = cols }

(* Rotation seals the outgoing file, so segment record counts must skip
   the control records (Marker/Seal) to see just the data. *)
let data_records =
  List.filter (function
    | Persist.Logrec.Put _ | Persist.Logrec.Remove _ -> true
    | Persist.Logrec.Marker _ | Persist.Logrec.Seal _ -> false)

let test_record_roundtrip () =
  let records =
    [
      mkrec "hello";
      mkrec ~cols:[||] "empty-cols";
      mkrec ~cols:[| ""; "\x00\xff"; String.make 300 'x' |] "binary";
      Persist.Logrec.Remove { key = "gone"; version = 9L; timestamp = 5L };
      mkrec "";
    ]
  in
  let w = Xutil.Binio.writer () in
  List.iter (Persist.Logrec.encode w) records;
  let decoded, ending = Persist.Logrec.decode_all (Xutil.Binio.contents w) in
  check_bool "clean" true (ending = `Clean);
  check_bool "all records" true (decoded = records)

let test_truncated_tail () =
  let data = Persist.Logrec.encode_string (mkrec "first") ^ Persist.Logrec.encode_string (mkrec "second") in
  (* Chop mid-second-record. *)
  let cut = String.sub data 0 (String.length data - 5) in
  let decoded, ending = Persist.Logrec.decode_all cut in
  check_bool "truncated" true (ending = `Truncated);
  check_int "good prefix" 1 (List.length decoded)

let test_corrupt_record () =
  let data = Persist.Logrec.encode_string (mkrec "first") ^ Persist.Logrec.encode_string (mkrec "second") in
  let b = Bytes.of_string data in
  (* Flip a byte inside the second record's payload. *)
  let off = String.length (Persist.Logrec.encode_string (mkrec "first")) + 12 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xFF));
  let decoded, ending = Persist.Logrec.decode_all (Bytes.to_string b) in
  check_bool "corrupt" true (ending = `Corrupt);
  check_int "good prefix survives" 1 (List.length decoded)

let test_logger_writes_and_reads () =
  let dir = tmpdir () in
  let path = Filename.concat dir "log0" in
  let l = Persist.Logger.create ~synchronous:true path in
  for i = 1 to 50 do
    Persist.Logger.append l (mkrec ~ver:(Int64.of_int i) (string_of_int i))
  done;
  check_int "appended" 50 (Persist.Logger.appended l);
  Persist.Logger.close l;
  let records, ending = Persist.Logger.read_records path in
  check_bool "clean read" true (ending = `Clean);
  check_int "all back" 50 (List.length records)

let test_logger_background_flush () =
  let dir = tmpdir () in
  let path = Filename.concat dir "log-bg" in
  let l = Persist.Logger.create ~sync_interval_s:0.05 path in
  for i = 1 to 20 do
    Persist.Logger.append l (mkrec (string_of_int i))
  done;
  (* The group-commit thread must flush within the interval without an
     explicit sync. *)
  Thread.delay 0.3;
  check_bool "bytes hit disk in background" true (Persist.Logger.synced_bytes l > 0);
  Persist.Logger.close l;
  let records, _ = Persist.Logger.read_records path in
  check_int "durable" 20 (List.length records)

let test_logger_concurrent_appends () =
  let dir = tmpdir () in
  let path = Filename.concat dir "log-conc" in
  let l = Persist.Logger.create path in
  ignore
    (Xutil.Domain_pool.run 4 (fun d ->
         for i = 1 to 500 do
           Persist.Logger.append l (mkrec (Printf.sprintf "%d-%d" d i))
         done));
  Persist.Logger.close l;
  let records, ending = Persist.Logger.read_records path in
  check_bool "clean" true (ending = `Clean);
  check_int "no lost records" 2000 (List.length records)

let test_logger_rotate () =
  let dir = tmpdir () in
  let p1 = Filename.concat dir "seg1" and p2 = Filename.concat dir "seg2" in
  let l = Persist.Logger.create ~synchronous:true p1 in
  for i = 1 to 10 do
    Persist.Logger.append l (mkrec ~ver:(Int64.of_int i) ("a" ^ string_of_int i))
  done;
  Persist.Logger.rotate l p2;
  check_bool "path switched" true (String.equal (Persist.Logger.path l) p2);
  for i = 11 to 20 do
    Persist.Logger.append l (mkrec ~ver:(Int64.of_int i) ("b" ^ string_of_int i))
  done;
  Persist.Logger.close l;
  let r1, e1 = Persist.Logger.read_records p1 in
  let r2, e2 = Persist.Logger.read_records p2 in
  check_bool "both clean" true (e1 = `Clean && e2 = `Clean);
  check_int "first segment" 10 (List.length (data_records r1));
  check_int "second segment" 10 (List.length (data_records r2));
  (* The rotated-away segment must end in a seal (it is complete and
     must not constrain the recovery cutoff). *)
  check_bool "rotated segment sealed" true
    (match List.rev r1 with Persist.Logrec.Seal _ :: _ -> true | _ -> false)

let test_logger_rotate_concurrent () =
  (* Appends racing a rotation must all land in exactly one segment. *)
  let dir = tmpdir () in
  let seg i = Filename.concat dir (Printf.sprintf "seg%d" i) in
  let l = Persist.Logger.create (seg 0) in
  let total = 4000 in
  ignore
    (Xutil.Domain_pool.run 2 (fun who ->
         if who = 0 then
           for i = 1 to total do
             Persist.Logger.append l (mkrec (string_of_int i));
             if i mod 500 = 0 then Persist.Logger.rotate l (seg (i / 500))
           done
         else
           for i = 1 to total do
             Persist.Logger.append l (mkrec ("x" ^ string_of_int i))
           done));
  Persist.Logger.close l;
  let count = ref 0 in
  for i = 0 to 8 do
    if Sys.file_exists (seg i) then begin
      let rs, ending = Persist.Logger.read_records (seg i) in
      check_bool "segment clean" true (ending = `Clean);
      count := !count + List.length (data_records rs)
    end
  done;
  check_int "no record lost or duplicated across segments" (2 * total) !count

let test_cutoff () =
  let r ts = mkrec ~ts (Printf.sprintf "k%Ld" ts) in
  check_bool "cutoff = min of maxes" true
    (Persist.Recovery.cutoff_of_logs [ [ r 5L; r 9L ]; [ r 3L; r 7L ] ] = 7L);
  (* An empty log never had a synced record, so it must not constrain the
     cutoff (the crash-before-first-flush data-loss hazard). *)
  check_bool "empty log is ignored" true
    (Persist.Recovery.cutoff_of_logs [ [ r 9L ]; [] ] = 9L);
  (* A sealed log is complete: it cannot be missing a suffix, so it does
     not constrain the cutoff either. *)
  check_bool "sealed log is ignored" true
    (Persist.Recovery.cutoff_of_logs
       [ [ r 9L ]; [ r 3L; Persist.Logrec.Seal { timestamp = 4L } ] ]
    = 9L);
  check_bool "unsealed idle log still constrains" true
    (Persist.Recovery.cutoff_of_logs
       [ [ r 9L ]; [ r 3L; Persist.Logrec.Marker { timestamp = 4L } ] ]
    = 4L);
  check_bool "no logs: unbounded" true
    (Persist.Recovery.cutoff_of_logs [] = Int64.max_int);
  check_bool "all logs empty or sealed: unbounded" true
    (Persist.Recovery.cutoff_of_logs [ []; [ Persist.Logrec.Seal { timestamp = 4L } ] ]
    = Int64.max_int)

let test_checkpoint_roundtrip () =
  let dir = tmpdir () in
  let entries =
    List.init 500 (fun i ->
        {
          Persist.Checkpoint.key = Printf.sprintf "key%04d" i;
          version = Int64.of_int i;
          columns = [| string_of_int i; "col2" |];
        })
  in
  let remaining = ref entries in
  let lock = Xutil.Spinlock.create () in
  let next () =
    Xutil.Spinlock.with_lock lock (fun () ->
        match !remaining with
        | [] -> None
        | e :: r ->
            remaining := r;
            Some e)
  in
  (match Persist.Checkpoint.write ~dir ~writers:3 ~began_us:42L next with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "write: %s" e);
  match Persist.Checkpoint.load ~dir () with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok (m, loaded) ->
      check_bool "began preserved" true (m.began = 42L);
      check_int "parts" 3 (List.length m.parts);
      check_int "entries" 500 (List.length loaded);
      let sorted l =
        List.sort compare (List.map (fun (e : Persist.Checkpoint.entry) -> e.key) l)
      in
      check_bool "same keys" true (sorted loaded = sorted entries)

let test_checkpoint_missing_manifest () =
  let dir = tmpdir () in
  check_bool "no manifest" true
    (match Persist.Checkpoint.read_manifest ~dir () with Error _ -> true | Ok _ -> false)

let test_checkpoint_corrupt_part () =
  let dir = tmpdir () in
  let remaining = ref [ { Persist.Checkpoint.key = "k"; version = 1L; columns = [| "v" |] } ] in
  let next () =
    match !remaining with
    | [] -> None
    | e :: r ->
        remaining := r;
        Some e
  in
  (match Persist.Checkpoint.write ~dir ~writers:1 ~began_us:1L next with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "write: %s" e);
  (* Corrupt the part. *)
  let part = Filename.concat dir "part-000" in
  let fd = Unix.openfile part [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd 10 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xde\xad") 0 2);
  Unix.close fd;
  check_bool "corruption detected" true
    (match Persist.Checkpoint.load ~dir () with Error _ -> true | Ok _ -> false)

let suite =
  [
    Alcotest.test_case "record roundtrip" `Quick test_record_roundtrip;
    Alcotest.test_case "truncated tail" `Quick test_truncated_tail;
    Alcotest.test_case "corrupt record" `Quick test_corrupt_record;
    Alcotest.test_case "logger writes/reads" `Quick test_logger_writes_and_reads;
    Alcotest.test_case "logger background flush" `Quick test_logger_background_flush;
    Alcotest.test_case "logger concurrent appends" `Quick test_logger_concurrent_appends;
    Alcotest.test_case "logger rotate" `Quick test_logger_rotate;
    Alcotest.test_case "logger rotate concurrent" `Slow test_logger_rotate_concurrent;
    Alcotest.test_case "recovery cutoff" `Quick test_cutoff;
    Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint missing manifest" `Quick test_checkpoint_missing_manifest;
    Alcotest.test_case "checkpoint corrupt part" `Quick test_checkpoint_corrupt_part;
  ]
