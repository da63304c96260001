(** Abstract file I/O for the persist stack.

    Everything in [lib/persist] that touches the disk goes through one of
    these records, so the same code runs against {!real} (a thin [Unix]
    wrapper — the default everywhere, production behavior unchanged) or
    against {!Sim} (an in-memory disk model that distinguishes durable
    from volatile bytes and can lose or tear un-synced writes at a
    simulated crash).  The indirection is one closure call per I/O
    operation, which is noise next to the syscall it wraps. *)

type file = {
  write : bytes -> int -> int -> int;
      (** [write buf off len] appends up to [len] bytes at the current
          position and returns how many were written (callers must loop —
          see {!write_all}). *)
  fsync : unit -> unit;  (** Make everything written so far durable. *)
  close : unit -> unit;
}

type t = {
  open_out : string -> file;
      (** Open for writing, creating or truncating ([O_WRONLY|O_CREAT|O_TRUNC]). *)
  read_file : string -> string;
      (** Whole-file contents.  Raises [Sys_error] if the file does not exist. *)
  exists : string -> bool;
  mkdir : string -> unit;  (** Create a directory; succeeds if it already exists. *)
  readdir : string -> string array;  (** Entry basenames, like [Sys.readdir]. *)
  remove : string -> unit;  (** Delete a file or an empty directory. *)
  rename : string -> string -> unit;
}

val real : t
(** The production implementation: direct [Unix]/[Sys] calls with the
    exact flag set the persist stack has always used. *)

val write_all : file -> string -> unit
(** Loop [file.write] until the whole string is written. *)
