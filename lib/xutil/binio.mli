(** Little-endian binary encoding helpers shared by the persistence log
    format and the network wire protocol.

    A {!writer} is an auto-growing byte buffer; readers operate on a string
    with an explicit cursor and raise {!Truncated} instead of returning
    partial values, so both the log-recovery path and the protocol decoder
    can treat short input uniformly. *)

exception Truncated
(** Raised by all [read_*] functions when fewer bytes remain than needed. *)

type writer

val writer : ?capacity:int -> unit -> writer
val length : writer -> int
val contents : writer -> string
val reset : writer -> unit

val write_u8 : writer -> int -> unit
val write_u16 : writer -> int -> unit
val write_u32 : writer -> int -> unit

val write_u64 : writer -> int64 -> unit

val write_varint : writer -> int -> unit
(** [write_varint w n] writes a non-negative integer LEB128-style. *)

val write_string : writer -> string -> unit
(** [write_string w s] writes a varint length then the raw bytes. *)

val write_raw : writer -> string -> unit
(** [write_raw w s] writes the bytes of [s] with no length prefix. *)

val write_sub : writer -> string -> int -> int -> unit
(** [write_sub w s pos n] writes [s]'s bytes [pos .. pos+n) with no
    length prefix. *)

val write_bytes : writer -> Bytes.t -> int -> int -> unit
(** [write_bytes w b pos n]: {!write_sub} from a [Bytes.t]. *)

val varint_size : int -> int
(** Bytes {!write_varint} takes for a non-negative int. *)

val reserve : writer -> int -> int
(** [reserve w n] appends [n] unspecified bytes and returns their
    position, for a later {!patch_varint} or {!patch_u32}. *)

val patch_varint : writer -> pos:int -> width:int -> int -> unit
(** [patch_varint w ~pos ~width n] overwrites the [width] reserved bytes
    at [pos] with [n] as a LEB128 varint padded to exactly [width] bytes
    ([width >= varint_size n], at most 9): a count back-patched once it
    is known.  {!read_varint} reads it as [n]. *)

val truncate : writer -> int -> unit
(** [truncate w n] drops every byte written after the first [n]: rewinds
    a half-written reply. *)

val blit_to_bytes : writer -> Bytes.t -> int -> unit
(** [blit_to_bytes w dst pos] copies the accumulated bytes into [dst]. *)

val patch_u32 : writer -> pos:int -> int -> unit
(** [patch_u32 w ~pos v] overwrites 4 already-written bytes at [pos] with
    [v] little-endian — back-patching a length prefix reserved earlier
    (network frame headers reserve 4 bytes, encode the body, then patch). *)

val unsafe_bytes : writer -> Bytes.t
(** The writer's current underlying buffer; only indexes below {!length}
    are meaningful.  The reference is invalidated by any subsequent write
    (growth may reallocate).  Exists so the network stack can hand
    accumulated output straight to [Unix.write] without copying. *)

val drop_prefix : writer -> int -> unit
(** [drop_prefix w n] discards the first [n] accumulated bytes, sliding
    the remainder down in place.  Used by connection output buffers after
    a partial socket write. *)

type reader = { buf : string; mutable pos : int }

val reader : ?pos:int -> string -> reader
val remaining : reader -> int
val read_u8 : reader -> int
val read_u16 : reader -> int
val read_u32 : reader -> int
val read_u64 : reader -> int64
val read_varint : reader -> int
(** Reads what {!write_varint} wrote.  Raises {!Truncated} on a short
    buffer or on an encoding longer than 9 bytes (which would overflow
    the int). *)

val read_string : reader -> string
val read_raw : reader -> int -> string
