(* Shipping tail: a bounded ring of encoded record frames retained after
   they enter the log buffer, so replication cursors can stream the live
   log without re-reading the file.  Frames keep their CRC framing —
   replicas re-verify with [Logrec.decode].  Sequence numbers are
   per-logger and monotonic; when retention evicts frames a cursor has
   not consumed yet, reads below [base_seq] report [`Gone] and the
   subscriber must re-bootstrap. *)
type tail_ring = {
  frames : string Queue.t; (* oldest first; seq of front = base_seq *)
  mutable base_seq : int;
  mutable next_seq : int;
  mutable ring_bytes : int;
  cap_bytes : int;
}

type t = {
  vfs : Faultsim.Vfs.t;
  mutable lpath : string;
  mutable file : Faultsim.Vfs.file;
  io_lock : Mutex.t; (* serializes file writes/fsync with rotation *)
  lock : Xutil.Spinlock.t;
  buf : Xutil.Binio.writer; (* framed records, appended in place under [lock] *)
  mutable nappended : int;
  mutable nsynced_bytes : int;
  mutable nflushes : int;
  mutable oldest_us : int64; (* wall time of the first append in [buf]; 0 = empty *)
  sync_interval_s : float;
  buffer_limit : int;
  synchronous : bool;
  idle_markers : bool;
  stop : bool Atomic.t;
  flush_request : bool Atomic.t;
  mutable flusher : Thread.t option;
  mutable tail_ring : tail_ring option; (* under [lock] *)
}

(* Process-wide log telemetry (lib/obs): shared names, so a store's whole
   logger set aggregates naturally.  Per-logger figures stay available
   through the accessors below. *)
let flushes_c = Obs.Registry.counter Obs.Registry.global "log.flushes"
let flushed_bytes_c = Obs.Registry.counter Obs.Registry.global "log.flushed_bytes"
let fsync_h = Obs.Registry.histogram Obs.Registry.global "log.fsync_us"

(* Group-commit lag: first buffered append -> durable on disk.  The
   paper's safety story bounds this by the 200 ms sync interval; the
   histogram shows where it actually sits. *)
let lag_h = Obs.Registry.histogram Obs.Registry.global "log.commit_lag_us"

(* Crash windows (lib/faultsim).  Disarmed these cost one atomic
   increment; the torture harness arms them to die mid-flush or
   mid-rotation. *)
let fp_append = Faultsim.Failpoint.define "log.append"
let fp_flush_begin = Faultsim.Failpoint.define "log.flush.begin"
let fp_flush_after_write = Faultsim.Failpoint.define "log.flush.after_write"
let fp_flush_after_fsync = Faultsim.Failpoint.define "log.flush.after_fsync"
let fp_rotate_begin = Faultsim.Failpoint.define "log.rotate.begin"
let fp_rotate_after_drain = Faultsim.Failpoint.define "log.rotate.after_drain"
let fp_rotate_after_fsync = Faultsim.Failpoint.define "log.rotate.after_fsync"
let fp_rotate_after_open = Faultsim.Failpoint.define "log.rotate.after_open"

(* Swap the buffer out under the lock, write + fsync outside it so
   appenders are never blocked on the disk. *)
let flush_now t =
  let data =
    Xutil.Spinlock.with_lock t.lock (fun () ->
        if Xutil.Binio.length t.buf = 0 then None
        else begin
          let d = Xutil.Binio.contents t.buf in
          Xutil.Binio.reset t.buf;
          let oldest = t.oldest_us in
          t.oldest_us <- 0L;
          Some (d, oldest)
        end)
  in
  match data with
  | None -> ()
  | Some (d, oldest) ->
      Mutex.lock t.io_lock;
      let fsync_us =
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.io_lock)
          (fun () ->
            Faultsim.Failpoint.hit fp_flush_begin;
            Faultsim.Vfs.write_all t.file d;
            Faultsim.Failpoint.hit fp_flush_after_write;
            let s = Xutil.Clock.now_ns () in
            t.file.Faultsim.Vfs.fsync ();
            Faultsim.Failpoint.hit fp_flush_after_fsync;
            Int64.to_int (Int64.sub (Xutil.Clock.now_ns ()) s) / 1000)
      in
      t.nsynced_bytes <- t.nsynced_bytes + String.length d;
      t.nflushes <- t.nflushes + 1;
      Obs.Registry.incr flushes_c;
      Obs.Registry.add flushed_bytes_c (String.length d);
      Obs.Registry.observe fsync_h fsync_us;
      if oldest <> 0L then
        Obs.Registry.observe lag_h
          (max 0 (Int64.to_int (Int64.sub (Xutil.Clock.wall_us ()) oldest)))

let tail_push r encoded =
  Queue.push encoded r.frames;
  r.next_seq <- r.next_seq + 1;
  r.ring_bytes <- r.ring_bytes + String.length encoded;
  while r.ring_bytes > r.cap_bytes && Queue.length r.frames > 1 do
    let dropped = Queue.pop r.frames in
    r.ring_bytes <- r.ring_bytes - String.length dropped;
    r.base_seq <- r.base_seq + 1
  done

(* The record is framed straight into the shared buffer under the lock:
   no per-record writer, and no copy unless the shipping tail keeps one.
   (A per-domain scratch writer would not be safe here — systhreads
   share a domain, and the flusher's idle markers, the checkpoint
   thread's marks and a threaded front end all append from one.) *)
let append_record t record =
  Xutil.Spinlock.with_lock t.lock (fun () ->
      let start = Xutil.Binio.length t.buf in
      if start = 0 then t.oldest_us <- Xutil.Clock.wall_us ();
      Logrec.encode t.buf record;
      t.nappended <- t.nappended + 1;
      (match t.tail_ring with
      | Some r ->
          tail_push r
            (Bytes.sub_string (Xutil.Binio.unsafe_bytes t.buf) start
               (Xutil.Binio.length t.buf - start))
      | None -> ());
      Xutil.Binio.length t.buf >= t.buffer_limit)

let flusher_loop t () =
  let tick = min 0.01 (t.sync_interval_s /. 4.0) in
  let last_sync = ref (Unix.gettimeofday ()) in
  while not (Atomic.get t.stop) do
    Thread.delay tick;
    let now = Unix.gettimeofday () in
    let due = now -. !last_sync >= t.sync_interval_s in
    if due || Atomic.get t.flush_request then begin
      Atomic.set t.flush_request false;
      (* An idle log regresses the recovery cutoff: its last record's
         timestamp falls further and further behind the other logs,
         and the min-over-logs cutoff would discard their newer durable
         updates.  When enabled, write a sync marker instead of skipping
         the flush, so every log's durable horizon keeps advancing. *)
      if t.idle_markers && Xutil.Binio.length t.buf = 0 then
        ignore (append_record t (Logrec.Marker { timestamp = Xutil.Clock.wall_us () }));
      flush_now t;
      last_sync := now
    end
  done;
  flush_now t

let create ?(vfs = Faultsim.Vfs.real) ?(buffer_limit = 1 lsl 20)
    ?(sync_interval_s = 0.2) ?(synchronous = false) ?(manual = false)
    ?(idle_markers = false) path =
  let file = vfs.Faultsim.Vfs.open_out path in
  let t =
    {
      vfs;
      lpath = path;
      file;
      io_lock = Mutex.create ();
      lock = Xutil.Spinlock.create ();
      buf = Xutil.Binio.writer ~capacity:4096 ();
      nappended = 0;
      nsynced_bytes = 0;
      nflushes = 0;
      oldest_us = 0L;
      sync_interval_s;
      buffer_limit;
      synchronous;
      idle_markers;
      stop = Atomic.make false;
      flush_request = Atomic.make false;
      flusher = None;
      tail_ring = None;
    }
  in
  if not (synchronous || manual) then
    t.flusher <- Some (Thread.create (flusher_loop t) ());
  t

let append t record =
  Faultsim.Failpoint.hit fp_append;
  let over = append_record t record in
  if t.synchronous then flush_now t
  else if over then Atomic.set t.flush_request true

let sync t = flush_now t

let mark t =
  append t (Logrec.Marker { timestamp = Xutil.Clock.wall_us () });
  flush_now t

let rotate t new_path =
  (* The buffer lock stops appends from slipping between draining the old
     file and switching to the new one; the io lock waits out any
     in-flight background flush against the old file. *)
  Xutil.Spinlock.with_lock t.lock (fun () ->
      Mutex.lock t.io_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.io_lock)
        (fun () ->
          Faultsim.Failpoint.hit fp_rotate_begin;
          if Xutil.Binio.length t.buf > 0 then begin
            let d = Xutil.Binio.contents t.buf in
            Xutil.Binio.reset t.buf;
            Faultsim.Vfs.write_all t.file d;
            t.nsynced_bytes <- t.nsynced_bytes + String.length d
          end;
          Faultsim.Failpoint.hit fp_rotate_after_drain;
          (* Seal the outgoing file: nothing can ever be appended to it
             again (appends racing this rotation land in the new file),
             so it is complete and recovery must exempt it from the
             cutoff.  Without this, a crash that interrupts deleting
             rotated-away files leaves them pinning the cutoff below the
             checkpoint that superseded them, and recovery falls back to
             an older checkpoint — resurrecting removes whose records
             sat in an already-deleted sibling log. *)
          let s =
            Logrec.encode_string (Logrec.Seal { timestamp = Xutil.Clock.wall_us () })
          in
          Faultsim.Vfs.write_all t.file s;
          t.nsynced_bytes <- t.nsynced_bytes + String.length s;
          t.file.Faultsim.Vfs.fsync ();
          Faultsim.Failpoint.hit fp_rotate_after_fsync;
          t.file.Faultsim.Vfs.close ();
          t.file <- t.vfs.Faultsim.Vfs.open_out new_path;
          t.lpath <- new_path;
          Faultsim.Failpoint.hit fp_rotate_after_open))

let seal t =
  append t (Logrec.Seal { timestamp = Xutil.Clock.wall_us () });
  flush_now t

let close t =
  Atomic.set t.stop true;
  (match t.flusher with Some th -> Thread.join th | None -> ());
  flush_now t;
  t.file.Faultsim.Vfs.close ()

let path t = t.lpath

let appended t = t.nappended

let synced_bytes t = t.nsynced_bytes

let flushes t = t.nflushes

(* Racy by design: sampled by an obs gauge while appenders run. *)
let buffered_bytes t = Xutil.Binio.length t.buf

(* {1 Shipping tail} *)

let enable_tail ?(cap_bytes = 1 lsl 24) t =
  Xutil.Spinlock.with_lock t.lock (fun () ->
      match t.tail_ring with
      | Some _ -> ()
      | None ->
          t.tail_ring <-
            Some
              {
                frames = Queue.create ();
                base_seq = 0;
                next_seq = 0;
                ring_bytes = 0;
                cap_bytes = max 4096 cap_bytes;
              })

let tail_next_seq t =
  Xutil.Spinlock.with_lock t.lock (fun () ->
      match t.tail_ring with None -> 0 | Some r -> r.next_seq)

let read_tail t ~from ~max_bytes =
  Xutil.Spinlock.with_lock t.lock (fun () ->
      match t.tail_ring with
      | None -> `Gone
      | Some r ->
          if from < r.base_seq then `Gone
          else if from >= r.next_seq then `Ok ([], from)
          else begin
            (* Walk from the ring's front, skipping the consumed prefix. *)
            let skip = from - r.base_seq in
            let out = ref [] and taken = ref 0 and bytes = ref 0 and i = ref 0 in
            (try
               Queue.iter
                 (fun frame ->
                   if !i >= skip then begin
                     if !bytes > 0 && !bytes + String.length frame > max_bytes then
                       raise Exit;
                     out := frame :: !out;
                     bytes := !bytes + String.length frame;
                     incr taken
                   end;
                   incr i)
                 r.frames
             with Exit -> ());
            `Ok (List.rev !out, from + !taken)
          end)

let trim_tail t ~below =
  Xutil.Spinlock.with_lock t.lock (fun () ->
      match t.tail_ring with
      | None -> ()
      | Some r ->
          while r.base_seq < below && not (Queue.is_empty r.frames) do
            let dropped = Queue.pop r.frames in
            r.ring_bytes <- r.ring_bytes - String.length dropped;
            r.base_seq <- r.base_seq + 1
          done)

let tail_bytes t =
  Xutil.Spinlock.with_lock t.lock (fun () ->
      match t.tail_ring with None -> 0 | Some r -> r.ring_bytes)

type tail = { ending : [ `Clean | `Truncated | `Corrupt ]; skipped_bytes : int }

let read_records_full ?(vfs = Faultsim.Vfs.real) path =
  let data = vfs.Faultsim.Vfs.read_file path in
  let records, ending, consumed = Logrec.decode_all_counted data in
  (records, { ending; skipped_bytes = String.length data - consumed })

let read_records ?vfs path =
  let records, tail = read_records_full ?vfs path in
  (records, tail.ending)
