(** Rich OS CPU scheduler.

    A per-core run-queue scheduler modelling the two Linux scheduling classes
    the paper's attack relies on:

    - SCHED_FIFO real-time tasks always preempt CFS tasks the moment they
      wake, run until they sleep, and among themselves are ordered by static
      priority (FIFO within a priority). KProber-II registers its probe
      threads at priority 99 so nothing in the normal world can delay them
      (§III-C2).
    - CFS tasks share the core by virtual runtime with a latency-target
      slice, wakeup preemption, and tick-driven rebalancing — enough fidelity
      that the user-level prober of §III-B1 sees realistic scheduling delays
      when it competes with other fair tasks.

    Tasks pinned with an affinity never migrate. Unpinned tasks are placed on
    the least-loaded core at spawn and migrate at wake-up if their core is
    currently held by the secure world — exactly why the paper's probers must
    pin their threads.

    When a core enters the secure world its current task is preempted and
    parked; nothing runs there until the core returns. *)

type t

val create : Satin_hw.Platform.t -> t
(** Builds run queues for every core and subscribes to world changes. *)

val spawn : t -> Task.t -> unit
(** Places the task (affinity or least-loaded core) and makes it runnable.
    Raises [Invalid_argument] if the affinity names an unknown core or the
    task was already spawned. *)

val wake : t -> Task.t -> unit
(** Makes a blocked/sleeping task runnable; no-op if it is not sleeping. *)

val scheduler_tick : t -> core:int -> unit
(** Tick-driven fairness check; called by the timer interrupt handler. *)

val current : t -> core:int -> Task.t option

val has_work : t -> core:int -> bool
(** True if the core has a running or queued task (drives NO_HZ_IDLE). *)

val on_enqueue : t -> (core:int -> unit) -> unit
(** Hook fired whenever a task becomes runnable on a core — the tick
    machinery uses it to restart a stopped idle tick. *)

val context_switches : t -> int
(** Total dispatches across all cores. *)

val invariant_violations : t -> string list
(** Structural self-check, sampled by the simulation sanitizer; empty when
    healthy. Checks per core: a secure-held core has no current task; the
    current task is [Running] and queued tasks are [Ready]; [rt_queue] is in
    descending static priority and [cfs_queue] in ascending vruntime; no
    task appears on two queues (or both current and queued). *)

val exited : Task.t -> bool

(** Scheduling parameters (Linux-flavoured defaults). *)
module Params : sig
  val sched_latency : Satin_engine.Sim_time.t (** 6 ms *)

  val min_granularity : Satin_engine.Sim_time.t (** 0.75 ms *)

  val wakeup_granularity : Satin_engine.Sim_time.t (** 1 ms *)
end
