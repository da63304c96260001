let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> () (* path doesn't exist: rm -rf semantics *)

let fresh prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let scoped prefix =
  let d = fresh prefix in
  at_exit (fun () -> try rm_rf d with Sys_error _ | Unix.Unix_error _ -> ());
  d
