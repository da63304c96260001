(* Three-epoch reclamation.  Participants publish (epoch, pinned) in one
   atomic word: bit 0 = pinned, remaining bits = the epoch the participant
   last observed.  The global epoch advances from E to E+1 only when every
   pinned participant has observed E, so anything retired in epoch E-1 is
   unreachable once the epoch hits E+1: freed objects were unlinked before
   retirement, and any reader that could still see them pinned at most at
   epoch E-1. *)

type slot = {
  state : int Atomic.t; (* epoch lsl 1 lor pinned *)
  mutable pin_depth : int;
  mutable active : bool;
  limbo : (int * (unit -> unit)) Queue.t; (* retired_epoch, free *)
  limbo_lock : Xutil.Spinlock.t; (* quiesce may collect another slot's limbo *)
  mgr : manager_rec;
}

and manager_rec = {
  epoch : int Atomic.t;
  slots : slot list Atomic.t;
  tasks : (unit -> unit) Xutil.Mpsc_queue.t;
  task_lock : Xutil.Spinlock.t; (* single runner for maintenance tasks *)
  pending_count : int Atomic.t;
}

type manager = manager_rec
type handle = slot

let manager () =
  {
    epoch = Atomic.make 2;
    slots = Atomic.make [];
    tasks = Xutil.Mpsc_queue.create ();
    task_lock = Xutil.Spinlock.create ();
    pending_count = Atomic.make 0;
  }

let register mgr =
  let s =
    {
      state = Atomic.make (Atomic.get mgr.epoch lsl 1);
      pin_depth = 0;
      active = true;
      limbo = Queue.create ();
      limbo_lock = Xutil.Spinlock.create ();
      mgr;
    }
  in
  let rec add () =
    let old = Atomic.get mgr.slots in
    if not (Atomic.compare_and_set mgr.slots old (s :: old)) then add ()
  in
  add ();
  s

let unregister s =
  assert (s.pin_depth = 0);
  s.active <- false;
  (* Hand any un-freed limbo objects to the manager as tasks so they are
     not lost; they are already safe or will be by the time tasks run. *)
  Xutil.Spinlock.with_lock s.limbo_lock (fun () ->
      Queue.iter
        (fun (_, free) ->
          Xutil.Mpsc_queue.push s.mgr.tasks (fun () ->
              Atomic.decr s.mgr.pending_count;
              free ()))
        s.limbo;
      Queue.clear s.limbo);
  let rec remove () =
    let old = Atomic.get s.mgr.slots in
    let updated = List.filter (fun x -> x != s) old in
    if not (Atomic.compare_and_set s.mgr.slots old updated) then remove ()
  in
  remove ()

(* Free limbo entries retired at least two epochs ago. *)
let collect s =
  let ge = Atomic.get s.mgr.epoch in
  (* Pop safe entries under the lock, run the callbacks outside it. *)
  let ready = ref [] in
  Xutil.Spinlock.with_lock s.limbo_lock (fun () ->
      let rec go () =
        match Queue.peek_opt s.limbo with
        | Some (e, free) when ge - e >= 2 ->
            ignore (Queue.pop s.limbo);
            ready := free :: !ready;
            go ()
        | _ -> ()
      in
      go ());
  List.iter
    (fun free ->
      Atomic.decr s.mgr.pending_count;
      free ())
    (List.rev !ready)

let try_advance mgr =
  let ge = Atomic.get mgr.epoch in
  let all_observed =
    List.for_all
      (fun s ->
        let st = Atomic.get s.state in
        (st land 1 = 0) || st lsr 1 = ge)
      (Atomic.get mgr.slots)
  in
  if all_observed then ignore (Atomic.compare_and_set mgr.epoch ge (ge + 1));
  all_observed

let drain_tasks mgr =
  Fun.protect
    ~finally:(fun () -> Xutil.Spinlock.unlock mgr.task_lock)
    (fun () -> ignore (Xutil.Mpsc_queue.drain mgr.tasks (fun task -> task ())))

let run_tasks mgr = if Xutil.Spinlock.try_lock mgr.task_lock then drain_tasks mgr

(* [enter]/[leave] are the allocation-free spelling of [pin]: the tree's
   point-operation hot paths call them directly so a get costs no
   [Fun.protect] closures.  Callers must pair them on every path,
   exceptional ones included. *)
let enter s =
  if s.pin_depth > 0 then s.pin_depth <- s.pin_depth + 1
  else begin
    let ge = Atomic.get s.mgr.epoch in
    Atomic.set s.state ((ge lsl 1) lor 1);
    s.pin_depth <- 1
  end

let leave s =
  let d = s.pin_depth - 1 in
  s.pin_depth <- d;
  if d = 0 then Atomic.set s.state (Atomic.get s.state land lnot 1)

let pin s f =
  enter s;
  match f () with
  | r ->
      leave s;
      r
  | exception e ->
      leave s;
      raise e

let retire s free =
  let ge = Atomic.get s.mgr.epoch in
  Xutil.Spinlock.with_lock s.limbo_lock (fun () -> Queue.push (ge, free) s.limbo);
  Atomic.incr s.mgr.pending_count

let schedule mgr task = Xutil.Mpsc_queue.push mgr.tasks task

let tick s =
  ignore (try_advance s.mgr);
  collect s;
  if s.pin_depth = 0 then run_tasks s.mgr

(* Schedule point: quiesce can only proceed once concurrently pinned
   readers exit, so under the deterministic scheduler this wait must
   yield (lib/schedsim would otherwise never run the pinned tasks). *)
let sp_quiesce_spin = Schedpoint.define "epoch.quiesce.spin"

let quiesce mgr =
  (* Advance at least two epochs past every current retirement, free it,
     and run the scheduled tasks — then again while a task retired
     storage or scheduled another task, so nothing retired before the
     call, or by its tasks, is left deferred.  Spins while other
     participants stay pinned, and waits for the task lock: a runner
     that holds it may be mid-way through a task that retires. *)
  let b = Xutil.Backoff.create () in
  let rec round () =
    let target = Atomic.get mgr.epoch + 3 in
    while Atomic.get mgr.epoch < target do
      if not (try_advance mgr) then begin
        Schedpoint.spin sp_quiesce_spin;
        Xutil.Backoff.once b
      end
    done;
    List.iter (fun s -> if s.active then collect s) (Atomic.get mgr.slots);
    while not (Xutil.Spinlock.try_lock mgr.task_lock) do
      Schedpoint.spin sp_quiesce_spin;
      Xutil.Backoff.once b
    done;
    drain_tasks mgr;
    if Atomic.get mgr.pending_count > 0 || not (Xutil.Mpsc_queue.is_empty mgr.tasks) then
      round ()
  in
  round ()

let pending mgr = Atomic.get mgr.pending_count

let global_epoch mgr = Atomic.get mgr.epoch
