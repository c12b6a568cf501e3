(** Discrete-event simulation engine.

    The engine owns the clock and the pending-event set. Simulated components
    schedule thunks at future instants; [run_until]/[run_all] drain events in
    time order. Within one instant, events fire in scheduling order, so a
    simulation driven by a fixed {!Prng} seed is fully deterministic. *)

type t

type handle = Event_queue.handle
(** Cancellation token for a scheduled event. *)

val create : unit -> t

val now : t -> Sim_time.t
(** Current simulated instant. *)

val pending : t -> int
(** Number of live scheduled events. *)

val events_fired : t -> int
(** Total events executed so far. *)

val set_observer : t -> (time:Sim_time.t -> pending:int -> unit) option -> unit
(** [set_observer t (Some f)] calls [f] after each fired event with the
    instant it ran at and the remaining queue depth — the engine-level
    observability hook. [None] (the default) removes it; the per-event cost
    is then a single match. The observer must not assume it runs before or
    after other same-instant events. *)

val observer : t -> (time:Sim_time.t -> pending:int -> unit) option
(** The currently installed observer, so a later installer (e.g. the
    simulation sanitizer) can chain to it instead of silently replacing
    it. *)

val set_batch_observer : t -> (size:int -> unit) option -> unit
(** [set_batch_observer t (Some f)] calls [f] after each dispatched batch
    ({!run_all}/{!run_until} drain same-instant events as one batch, see
    {!Event_queue.drain_batch}) with the number of events it fired — the
    hook behind the [engine.batch_size] series. Runs {e between} batches,
    never inside a dispatch. [None] (the default) removes it; the
    per-batch cost is then a single match. *)

val schedule : t -> after:Sim_time.t -> (unit -> unit) -> handle
(** [schedule t ~after f] runs [f] at [now t + after]. [after] must not be
    negative. *)

val at : t -> time:Sim_time.t -> (unit -> unit) -> handle
(** [at t ~time f] runs [f] at the absolute instant [time], which must not be
    in the past. *)

val cancel : t -> handle -> unit

val is_live : t -> handle -> bool
(** [is_live t h] is [true] until the event fires or is cancelled. Handles
    are immediate slot/generation pairs, so liveness is resolved against
    the engine's queue rather than carried in the handle itself. *)

val every :
  t -> period:Sim_time.t -> ?start:Sim_time.t -> (unit -> unit) -> handle ref
(** [every t ~period f] runs [f] at [start] (default [now + period]) and then
    every [period]. The returned ref always holds the handle of the next
    occurrence; cancel it to stop the recurrence. Raises [Invalid_argument]
    if [start] is in the past. The recurrence reuses one re-arming closure
    and the queue stores payloads unwrapped, so a warmed-up recurrence
    allocates nothing per occurrence: each re-arm is one heap push (a
    regression test pins the whole path at <= 2 words/event). *)

val run_until : t -> Sim_time.t -> unit
(** Fire all events up to and including the given instant; the clock ends at
    exactly that instant even if the queue empties earlier. *)

type outcome =
  | Drained  (** the queue emptied *)
  | Limit_hit  (** [limit] events fired with work still pending *)

val run_all : t -> ?limit:int -> unit -> outcome
(** Drain the whole queue (bounded by [limit] events, default 100M, to guard
    against runaway self-rescheduling). Returns {!Limit_hit} when the bound
    stopped the drain with events still pending — a silent truncation here
    previously masked runaway simulations. *)

val step : t -> bool
(** Fire the single earliest event. Returns [false] if the queue is empty. *)

val invariant_violations : t -> string list
(** Structural self-check of the engine's own state (clock sanity plus the
    {!Event_queue.invariant_violations} of the pending set); empty when
    healthy. Sampled by the simulation sanitizer. *)

module Unsafe : sig
  (** Fault-injection hooks for the sanitizer's own tests: deliberately
      corrupt engine state so a test can prove the corruption is caught.
      Never call these from simulation code. *)

  val set_clock : t -> Sim_time.t -> unit
  (** Force the clock to an arbitrary instant (e.g. a rewind). *)

  val skew_live : t -> int -> unit
  (** Corrupt the pending-event live count by a delta. *)
end

exception Schedule_in_past
