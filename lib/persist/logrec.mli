(** Log record format (§5).

    Each update is logged with a wall-clock timestamp and the value's
    version number; recovery sorts out cross-log ordering from these (the
    per-key version order is authoritative, timestamps define the global
    cutoff).  Records are framed with a masked CRC-32C and a length so a
    torn tail or corrupted record is detected and recovery stops at the
    last good prefix of each log.

    {v
    frame   := u32 masked-crc(payload) | u32 length | payload
    payload := u8 kind | u64 timestamp_us | u64 version
               | varint keylen | key
               | kind=put: varint ncols | ncols * (varint len | bytes)
    v} *)

type t =
  | Put of { key : string; version : int64; timestamp : int64; columns : string array }
  | Remove of { key : string; version : int64; timestamp : int64 }
  | Marker of { timestamp : int64 }
      (** Sync marker: carries no update, only advances the log's last
          timestamp, so an idle log does not pin the recovery cutoff in
          the past and discard other logs' durable updates. *)
  | Seal of { timestamp : int64 }
      (** Terminal marker written on clean close.  A log whose last valid
          record is a seal is {e complete} — nothing was ever appended
          after it — so recovery exempts it from the cutoff computation
          entirely instead of constraining the cutoff at its seal time. *)

val timestamp : t -> int64
val version : t -> int64
(** 0 for markers and seals. *)

val key : t -> string
(** "" for markers and seals. *)

val encode : Xutil.Binio.writer -> t -> unit
(** [encode w r] appends the framed record to [w], in place: no
    intermediate payload buffer. *)

val frame : Xutil.Binio.writer -> (Xutil.Binio.writer -> 'a -> unit) -> 'a -> unit
(** [frame w write_payload x] appends [u32 masked-crc | u32 length |
    payload] to [w], where [write_payload w x] writes the payload straight
    into [w] behind the reserved header, which is back-patched — the
    framing the log and the checkpoint parts share. *)

val crc_ok : string -> crc:int32 -> pos:int -> len:int -> bool
(** [crc_ok buf ~crc ~pos ~len]: does the masked [crc] match the
    [len]-byte payload at [pos] of [buf]?  Checked in place. *)

val encode_string : t -> string

type decode_result =
  | Record of t * int (** record and the number of bytes consumed *)
  | Need_more (** clean truncation: fewer bytes than one frame *)
  | Corrupt (** framing present but CRC or payload invalid *)

val decode : string -> pos:int -> decode_result
(** [decode buf ~pos] reads one framed record at [pos]. *)

val decode_all : string -> t list * [ `Clean | `Truncated | `Corrupt ]
(** [decode_all buf] reads records until the end of buffer, a truncated
    tail, or corruption; returns the good prefix and how it ended. *)

val decode_all_counted :
  string -> t list * [ `Clean | `Truncated | `Corrupt ] * int
(** Like {!decode_all} but also returns how many bytes of valid prefix
    were consumed, so callers can report how much of a torn tail was
    skipped. *)
