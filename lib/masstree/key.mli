(** Variable-length binary keys and their 8-byte slices.

    A Masstree is a trie with fanout 2^64: layer [h] of the trie indexes
    keys by bytes [8h .. 8h+7].  Each slice is encoded big-endian into an
    [int64] so that {e unsigned} integer comparison gives the same order as
    lexicographic byte-string comparison — the paper's most valuable coding
    trick (§4.2, "+IntCmp", worth 13–19% on their hardware).  Short slices
    are padded with zero bytes; the separately stored slice {e length}
    disambiguates keys like ["ABCDEFG"] vs ["ABCDEFG\x00"], which share a
    slice encoding. *)

type t = string
(** Keys are arbitrary byte strings, embedded NULs included. *)

val slice : t -> off:int -> int64
(** [slice k ~off] is the big-endian encoding of bytes [off..off+7] of [k],
    zero-padded when fewer than 8 bytes remain.  [off] may be ≥ the key
    length (yielding [0L]). *)

val slice_hi : t -> off:int -> int
(** [slice_hi k ~off] is the big-endian encoding of bytes [off..off+3] as
    an immediate int in [0, 2^32).  The pooled node layout stores slices
    as (hi, lo) int pairs: int-kind Bigarray reads are allocation-free
    where int64-kind reads would box on every read. *)

val slice_lo : t -> off:int -> int
(** Bytes [off+4..off+7], same encoding. *)

val compare_parts : int -> int -> int -> int -> int
(** [compare_parts h1 l1 h2 l2] orders two (hi, lo) slice pairs; equal to
    {!compare_slices} on the corresponding [int64]s. *)

val parts_to_slice : int -> int -> int64
(** Reassemble a slice from its halves (cold paths: printing, checks). *)

val slice_hi64 : int64 -> int
val slice_lo64 : int64 -> int
(** Split an [int64] slice into its halves. *)

val slice_len : t -> off:int -> int
(** [slice_len k ~off] is how many real key bytes the slice at [off]
    covers: [min 8 (max 0 (length k - off))]. *)

val has_suffix : t -> off:int -> bool
(** [has_suffix k ~off] is true when more than 8 bytes of [k] remain at
    [off], i.e. the key continues past this slice. *)

val suffix : t -> off:int -> string
(** [suffix k ~off] is the remainder of [k] after the slice at [off]
    (bytes [off+8 ..]).  Requires [has_suffix k ~off]. *)

val compare_slices : int64 -> int64 -> int
(** Unsigned 64-bit comparison; equals lexicographic comparison of the
    8 padded bytes. *)

val slice_to_string : int64 -> len:int -> string
(** [slice_to_string s ~len] decodes the first [len] bytes of slice [s]
    back into a string ([0 <= len <= 8]).  Inverse of {!slice} for keys of
    length ≤ 8. *)

val pp_slice : Format.formatter -> int64 -> unit
(** Debug printer: the 8 slice bytes with non-printable bytes escaped. *)
