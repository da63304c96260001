(** Scratch data directories for tests, benches and stress runs. *)

val rm_rf : string -> unit
(** [rm_rf path] removes [path] and, for a directory, everything under
    it; a missing [path] is not an error. *)

val fresh : string -> string
(** [fresh prefix] creates a new empty directory named [prefix] plus a
    random suffix under [Filename.get_temp_dir_name ()] ([$TMPDIR]) and
    returns its path.  The caller removes it. *)

val scoped : string -> string
(** Like {!fresh}, but the directory (and whatever was written into it)
    is removed when the process exits through [exit] or the end of the
    program. *)
