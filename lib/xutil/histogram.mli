(** Log-bucketed latency/size histogram with percentile queries.

    Benchmarks record per-operation latencies here; buckets grow
    geometrically so the structure is a fixed few thousand words
    regardless of sample count, and recording is allocation-free after
    the first sample.  The bucket array is allocated lazily, by the first
    {!add} (or a {!merge_into} of a non-empty source): an empty histogram
    is a few words. *)

type t

val create : unit -> t
(** [create ()] covers values from 1 to ~10^12 with ~1% resolution. *)

val add : t -> int -> unit
(** [add h v] records sample [v] (clamped to the covered range). *)

val count : t -> int
val total : t -> int
val mean : t -> float

val percentile : t -> float -> int
(** [percentile h p] is an upper bound on the [p]-quantile sample
    ([p] in \[0,100\]): the upper edge of the bucket holding that
    quantile, clamped into \[[min_value h], [max_value h]\].  The result
    therefore never exceeds the largest sample and never undershoots the
    smallest — in particular, on a single-sample histogram every
    percentile is exactly that sample, even when the sample landed in the
    overflow bucket.  Returns 0 when empty. *)

val max_value : t -> int

val min_value : t -> int
(** [min_value h] is the smallest recorded sample (after clamping
    negatives to 0); 0 when empty. *)

val merge_into : dst:t -> t -> unit
(** [merge_into ~dst src] adds [src]'s samples into [dst]. *)

val clear : t -> unit

val allocated : t -> bool
(** Whether the bucket array exists yet (false until the first sample). *)
