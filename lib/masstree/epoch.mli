(** Epoch-based reclamation and deferred maintenance (§4.6.1, §4.6.5).

    The paper frees removed values and deleted nodes only after all readers
    that could still observe them have finished, using epoch-based
    reclamation, and schedules cleanup of empty or pathologically-shaped
    trie layers as background "reclamation tasks".

    In OCaml the garbage collector already guarantees memory safety, so
    epochs here serve the two remaining purposes the algorithm needs:

    - {e deferred logical destruction}: retired objects (deleted nodes,
      replaced values) are only handed to their [free] callback — which may
      recycle or account for them — once no pinned reader can hold them;
    - {e scheduled maintenance}: tasks such as collapsing an emptied trie
      layer run only at a safe point, outside any reader's critical
      section.

    The implementation is the classic three-epoch scheme: a global epoch
    [E] advances only when every registered participant that is currently
    pinned has observed [E]; objects retired in epoch [E] are freed when
    the global epoch reaches [E+2]. *)

type manager

type handle
(** A participant (one per worker domain). *)

val manager : unit -> manager

val register : manager -> handle
(** [register m] adds a participant.  Handles are not thread-safe: each
    belongs to the domain that uses it. *)

val unregister : handle -> unit
(** Removes the participant; it must not be pinned. *)

val pin : handle -> (unit -> 'a) -> 'a
(** [pin h f] runs [f] inside a read-side critical section: objects the
    reader can reach will not be freed until [f] returns.  Reentrant pins
    nest. *)

val enter : handle -> unit
(** Allocation-free [pin]: begins the critical section without the
    closure.  Every [enter] must be paired with a [leave] on all exits,
    exceptional ones included; pairs nest like reentrant pins.  This is
    what the tree's point-operation hot paths use so a get allocates
    nothing. *)

val leave : handle -> unit
(** Ends a critical section begun by {!enter}. *)

val retire : handle -> (unit -> unit) -> unit
(** [retire h free] defers [free] until two epoch advances from now, i.e.
    until all concurrently pinned sections have exited. *)

val schedule : manager -> (unit -> unit) -> unit
(** [schedule m task] enqueues a maintenance task; it runs during some
    later {!quiesce} or {!tick}, outside all critical sections. *)

val run_tasks : manager -> unit
(** Run the scheduled maintenance tasks now, unless another runner holds
    them, without waiting for any epoch: a domain with nothing pinned
    does this from {!tick} while other domains stay pinned.  lib/schedsim
    calls it to run a layer collapse under a pinned scan. *)

val tick : handle -> unit
(** [tick h] opportunistically tries to advance the global epoch, frees
    anything that became safe, and runs due maintenance tasks.  Cheap when
    there is nothing to do; workers call it between operations. *)

val quiesce : manager -> unit
(** [quiesce m] advances epochs until everything retired before the call
    is freed and all scheduled maintenance has run, repeating while that
    maintenance retires storage or schedules more, so on return nothing
    is pending.  Spins while other participants are pinned and waits out
    a concurrent task runner; call from a quiescent coordinator (tests,
    shutdown, checkpointer) — with writers still retiring, it runs until
    it catches them with nothing pending. *)

val pending : manager -> int
(** Number of retired-but-not-yet-freed objects (for tests/stats). *)

val global_epoch : manager -> int
