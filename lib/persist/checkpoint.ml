open Xutil

type entry = { key : string; version : int64; columns : string array }

let manifest_file = "MANIFEST"

type manifest = { began : int64; finished : int64; parts : string list }

let part_magic = 0x4D545054 (* "MTPT" *)

(* Crash windows (lib/faultsim): the part-writer path runs in worker
   threads, the manifest path in the caller.  A crash before
   [ckpt.manifest.begin] leaves a directory with no manifest, which
   recovery ignores — the paper's "latest checkpoint that completed"
   rule. *)
let fp_begin = Faultsim.Failpoint.define "ckpt.begin"
let fp_part_open = Faultsim.Failpoint.define "ckpt.part.open"
let fp_part_write_chunk = Faultsim.Failpoint.define "ckpt.part.write_chunk"
let fp_part_after_write = Faultsim.Failpoint.define "ckpt.part.after_write"
let fp_part_after_fsync = Faultsim.Failpoint.define "ckpt.part.after_fsync"
let fp_manifest_begin = Faultsim.Failpoint.define "ckpt.manifest.begin"
let fp_manifest_after_write = Faultsim.Failpoint.define "ckpt.manifest.after_write"
let fp_manifest_after_fsync = Faultsim.Failpoint.define "ckpt.manifest.after_fsync"

let write_entry w e =
  Binio.write_u64 w e.version;
  Binio.write_string w e.key;
  Binio.write_varint w (Array.length e.columns);
  Array.iter (Binio.write_string w) e.columns

let encode_entry w e = Logrec.frame w write_entry e

let write ?(vfs = Faultsim.Vfs.real) ~dir ~writers ~began_us next =
  assert (writers >= 1);
  vfs.Faultsim.Vfs.mkdir dir;
  Faultsim.Failpoint.hit fp_begin;
  let part_name i = Printf.sprintf "part-%03d" i in
  let errors = Atomic.make None in
  let worker i () =
    try
      let path = Filename.concat dir (part_name i) in
      let file = vfs.Faultsim.Vfs.open_out path in
      Faultsim.Failpoint.hit fp_part_open;
      let w = Binio.writer ~capacity:(1 lsl 16) () in
      Binio.write_u32 w part_magic;
      let rec drain () =
        match next () with
        | None -> ()
        | Some e ->
            encode_entry w e;
            if Binio.length w > 1 lsl 20 then begin
              let data = Binio.contents w in
              Binio.reset w;
              Faultsim.Failpoint.hit fp_part_write_chunk;
              Faultsim.Vfs.write_all file data
            end;
            drain ()
      in
      drain ();
      Faultsim.Vfs.write_all file (Binio.contents w);
      Faultsim.Failpoint.hit fp_part_after_write;
      file.Faultsim.Vfs.fsync ();
      Faultsim.Failpoint.hit fp_part_after_fsync;
      file.Faultsim.Vfs.close ()
    with e -> ignore (Atomic.compare_and_set errors None (Some (Printexc.to_string e)))
  in
  let threads = List.init writers (fun i -> Thread.create (worker i) ()) in
  List.iter Thread.join threads;
  match Atomic.get errors with
  | Some e -> Error e
  | None ->
      (* All parts durable: publish the manifest. *)
      Faultsim.Failpoint.hit fp_manifest_begin;
      let finished = Clock.wall_us () in
      let fw = Binio.writer () in
      Logrec.frame fw
        (fun w () ->
          Binio.write_u64 w began_us;
          Binio.write_u64 w finished;
          Binio.write_varint w writers;
          for i = 0 to writers - 1 do
            Binio.write_string w (part_name i)
          done)
        ();
      let mpath = Filename.concat dir manifest_file in
      let file = vfs.Faultsim.Vfs.open_out mpath in
      Faultsim.Vfs.write_all file (Binio.contents fw);
      Faultsim.Failpoint.hit fp_manifest_after_write;
      file.Faultsim.Vfs.fsync ();
      Faultsim.Failpoint.hit fp_manifest_after_fsync;
      file.Faultsim.Vfs.close ();
      Ok mpath

let read_manifest ?(vfs = Faultsim.Vfs.real) ~dir () =
  let mpath = Filename.concat dir manifest_file in
  if not (vfs.Faultsim.Vfs.exists mpath) then Error "no manifest"
  else begin
    match vfs.Faultsim.Vfs.read_file mpath with
    | exception e -> Error (Printexc.to_string e)
    | data -> (
        if String.length data < 8 then Error "manifest too short"
        else begin
          let r = Binio.reader data in
          match
            let crc = Int32.of_int (Binio.read_u32 r) in
            let len = Binio.read_u32 r in
            let payload = Binio.read_raw r len in
            if not (Int32.equal (Crc32c.unmask crc) (Crc32c.digest_string payload)) then
              Error "manifest crc mismatch"
            else begin
              let pr = Binio.reader payload in
              let began = Binio.read_u64 pr in
              let finished = Binio.read_u64 pr in
              let n = Binio.read_varint pr in
              let parts = List.init n (fun _ -> Binio.read_string pr) in
              Ok { began; finished; parts }
            end
          with
          | result -> result
          | exception Binio.Truncated -> Error "manifest truncated"
        end)
  end

(* The entries of a part file's contents [data] from byte [pos] (just
   past the magic), each CRC-checked where it lies. *)
let iter_part data ~pos f =
  let rec go pos n =
    if pos >= String.length data then Ok n
    else if String.length data - pos < 8 then Error "truncated part"
    else begin
      let r = Binio.reader ~pos data in
      let crc = Int32.of_int (Binio.read_u32 r) in
      let len = Binio.read_u32 r in
      if String.length data - pos - 8 < len then Error "truncated part"
      else if not (Logrec.crc_ok data ~crc ~pos:(pos + 8) ~len) then Error "part crc mismatch"
      else begin
        match
          let version = Binio.read_u64 r in
          let key = Binio.read_string r in
          let ncols = Binio.read_varint r in
          let columns = Array.init ncols (fun _ -> Binio.read_string r) in
          { key; version; columns }
        with
        | e when r.Binio.pos <= pos + 8 + len ->
            f e;
            go (pos + 8 + len) (n + 1)
        | _ | (exception Binio.Truncated) -> Error "bad part payload"
      end
    end
  in
  go pos 0

let iter_entries ?(vfs = Faultsim.Vfs.real) ~dir m f =
  let rec go parts n =
    match parts with
    | [] -> Ok n
    | p :: rest -> (
        match vfs.Faultsim.Vfs.read_file (Filename.concat dir p) with
        | exception e -> Error (Printexc.to_string e)
        | data ->
            if String.length data < 4 then Error "part too short"
            else begin
              let r = Binio.reader data in
              let magic = Binio.read_u32 r in
              if magic <> part_magic then Error "bad part magic"
              else begin
                match iter_part data ~pos:4 f with
                | Ok k -> go rest (n + k)
                | Error e -> Error e
              end
            end)
  in
  go m.parts 0

let read_entries ?vfs ~dir m =
  let es = ref [] in
  match iter_entries ?vfs ~dir m (fun e -> es := e :: !es) with
  | Ok _ -> Ok (List.rev !es)
  | Error e -> Error e

let load ?vfs ~dir () =
  match read_manifest ?vfs ~dir () with
  | Error e -> Error e
  | Ok m -> (
      match read_entries ?vfs ~dir m with Ok es -> Ok (m, es) | Error e -> Error e)
