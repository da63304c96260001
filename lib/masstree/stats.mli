(** Per-tree operation counters.

    Cheap enough to leave on, and invisible to other domains' caches:
    each domain counts in its own domain-local array with plain stores —
    a read-only operation writes no shared memory (§4.5) — and {!read}
    sums the domains' arrays.  These drive the retry-rate
    experiment (§6.2's "less than 1 insert in 10^6 had to retry from the
    root") and give tests visibility into which code paths fired. *)

type t

type counter =
  | Gets
  | Puts
  | Removes
  | Scans
  | Splits_border
  | Splits_interior
  | Layer_creates
  | Root_retries (* reader restarted from the root: concurrent split/delete *)
  | Local_retries (* reader retried within one node: concurrent insert *)
  | Node_deletes (* border deleted: emptied, or absorbed by a merge *)
  | Layer_collapses
  | Slot_reuses (* removed slot reused by an insert: the §4.6.5 hazard *)
  | Leaf_merges (* underfull border absorbed its right sibling *)
  | Pipeline_restarts (* pipelined group-get re-entered from a root in-pipeline *)

val create : unit -> t

val incr : t -> counter -> unit

val add : t -> counter -> int -> unit
(** [add t c n] bumps [c] by [n] in one store (batch front ends). *)

val read : t -> counter -> int
(** The sum over every domain that has counted, exited ones included. *)

val to_list : t -> (counter * int) list
(** Every counter with its current value, in declaration order — lets a
    metrics registry (or a test) enumerate the set without matching each
    variant at the call site. *)

val name : counter -> string
(** Stable snake_case identifier, e.g. ["root_retries"]. *)

val all : counter list

val reset : t -> unit

val pp : Format.formatter -> t -> unit
(** One line per nonzero counter. *)
