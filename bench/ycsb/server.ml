(* The mtd process under test: spawn on port 0, parse the port it
   reports, stop it gracefully, and never leave one behind.  Every live
   pid is killed from an [at_exit] handler, and the kernel kills mtd if
   the benchmark itself is killed, so no path out of the benchmark
   orphans a server that holds a port or a data directory. *)

type t = {
  pid : int;
  out : Unix.file_descr; (* mtd's stdout; kept open so its shutdown line never hits EPIPE *)
  port : int;
  data : string;
}

let live : int list ref = ref []

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !live;
      live := [])

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Read [fd] until a line starting with [prefix] arrives; the rest of
   that line.  Gives up after [timeout] seconds or at EOF. *)
let await_line fd ~prefix ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let rec scan () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
        let line = String.sub s 0 i in
        Buffer.clear buf;
        Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
        if String.starts_with ~prefix line then
          String.sub line (String.length prefix) (String.length line - String.length prefix)
        else scan ()
    | None ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then failwith ("mtd did not print: " ^ prefix);
        (match Unix.select [ fd ] [] [] left with
        | [], _, _ -> ()
        | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> failwith ("mtd exited before printing: " ^ prefix)
            | n -> Buffer.add_subbytes buf chunk 0 n));
        scan ()
  in
  scan ()

external allowed_cpus : unit -> int array = "ycsb_allowed_cpus"

external set_cpus : int array -> bool = "ycsb_set_cpus"

external spawn_on : string array -> Unix.file_descr -> Unix.file_descr -> int array -> int = "ycsb_spawn"

(* With two or more CPUs, the client keeps the first and mtd gets the
   rest, so the load generator never competes with the server for a
   CPU (the paper's clients ran on other machines). *)
let all_cpus = allowed_cpus ()

let client_cpus, server_cpus =
  let n = Array.length all_cpus in
  if n < 2 then (all_cpus, all_cpus) else ([| all_cpus.(0) |], Array.sub all_cpus 1 (n - 1))

let () = ignore (set_cpus client_cpus)

let cpu_list a = String.concat "," (Array.to_list (Array.map string_of_int a))

let spawn ~mtd ~data ~flags =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile (data ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let args =
    Array.of_list
      ((mtd :: "--listen" :: "127.0.0.1:0" :: "--data" :: data :: "-v" :: Spec.base_flags) @ flags)
  in
  let pid = spawn_on args wr err server_cpus in
  live := pid :: !live;
  Unix.close wr;
  Unix.close err;
  let addr = await_line rd ~prefix:"mtd listening on " ~timeout:120.0 in
  let port = int_of_string (String.sub addr (String.rindex addr ':' + 1) (String.length addr - String.rindex addr ':' - 1)) in
  { pid; out = rd; port; data }

(* SIGTERM is mtd's graceful path: it joins its threads and seals and
   syncs every log, so every acknowledged write is on disk afterwards. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap t.pid;
          failwith "mtd ignored SIGTERM"
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) t.pid) !live;
  Unix.close t.out

(* Peak resident set of the server, from the kernel's accounting. *)
let hwm_mib t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> nan
      in
      find ())

(* The poller backend mtd chose: the word before "poller" in its
   verbose log. *)
let poller t =
  let rec find = function a :: "poller" :: _ -> a | _ :: rest -> find rest | [] -> "unknown" in
  match In_channel.with_open_text (t.data ^ ".log") In_channel.input_all with
  | log -> find (String.split_on_char ' ' (String.map (fun c -> if c = '\n' then ' ' else c) log))
  | exception Sys_error _ -> "unknown"
