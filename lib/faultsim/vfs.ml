type file = {
  write : bytes -> int -> int -> int;
  fsync : unit -> unit;
  close : unit -> unit;
}

type t = {
  open_out : string -> file;
  read_file : string -> string;
  exists : string -> bool;
  mkdir : string -> unit;
  readdir : string -> string array;
  remove : string -> unit;
  rename : string -> string -> unit;
}

let real =
  {
    open_out =
      (fun path ->
        let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
        {
          write = (fun buf off len -> Unix.write fd buf off len);
          fsync = (fun () -> Unix.fsync fd);
          close = (fun () -> Unix.close fd);
        });
    read_file =
      (fun path ->
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic)));
    exists = Sys.file_exists;
    mkdir =
      (fun path ->
        try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    readdir = Sys.readdir;
    remove = (fun path -> if Sys.is_directory path then Unix.rmdir path else Sys.remove path);
    rename = Sys.rename;
  }

let write_all file s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then begin
      let n = file.write b off (len - off) in
      go (off + n)
    end
  in
  go 0
