(** CRC-32C (Castagnoli polynomial, reflected 0x82F63B78).

    Used to frame and verify persistence log records and checkpoint parts so
    that recovery can detect torn or corrupted tails.  Slicing-by-8 over
    immediate ints: eight bytes per table step, and nothing allocated but
    the boxed [int32] result. *)

val mask : int32 -> int32
(** [mask c] is the masked CRC (rotate + offset, as used by LevelDB et al.)
    so that CRCs stored alongside CRC-covered data do not feed back into
    themselves. *)

val unmask : int32 -> int32

val digest : ?crc:int32 -> Bytes.t -> pos:int -> len:int -> int32
(** [digest ~crc b ~pos ~len] extends [crc] (default: fresh) over
    [b.[pos..pos+len-1]]. *)

val digest_string : ?crc:int32 -> string -> int32
(** [digest_string s] is the CRC-32C of all of [s]. *)
