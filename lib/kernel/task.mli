(** Kernel tasks (threads).

    A task's behaviour is a [body] callback invoked each time the scheduler
    dispatches it. The body declares how much CPU the next step needs; when
    that CPU has been fully consumed (possibly across several preempted
    slices), the [after] continuation runs — at the simulated instant the
    work completes — performing the task's side effects and telling the
    scheduler what comes next.

    Scheduling policies mirror Linux: [Cfs] tasks share the core fairly by
    virtual runtime; [Rt_fifo] tasks (SCHED_FIFO) always preempt CFS tasks
    and run until they sleep, higher [priority] first — the property
    KProber-II builds on (§III-C2). *)

type policy = Cfs | Rt_fifo of int  (** priority in 1..99, higher wins *)

val rt_priority_max : int
(** 99, as [sched_get_priority_max(SCHED_FIFO)]. *)

type state = Ready | Running | Sleeping | Exited

(** What a task does once its current CPU demand is satisfied. *)
type after =
  | Reenter  (** call [body] again immediately (CPU-bound loop) *)
  | Sleep of Satin_engine.Sim_time.t  (** sleep, then become ready again *)
  | Block  (** wait until explicitly woken *)
  | Exit

type step = { cpu : Satin_engine.Sim_time.t; after : unit -> after }
(** One step: consume [cpu] (may be zero), then run [after]. *)

type t

val create :
  name:string ->
  policy:policy ->
  ?affinity:int ->
  body:(t -> step) ->
  unit ->
  t
(** [affinity] pins the task to one core forever (the probers rely on this:
    a pinned task cannot be migrated away from a core that entered the
    secure world). Unpinned tasks are placed once at spawn time. *)

val id : t -> int
val name : t -> string
val policy : t -> policy
val affinity : t -> int option
val state : t -> state

val cpu_time : t -> Satin_engine.Sim_time.t
(** Total CPU consumed so far. *)

val vruntime : t -> float
(** CFS virtual runtime, seconds. *)

val dispatches : t -> int
(** Number of times the scheduler put this task on a core. *)

val pp : Format.formatter -> t -> unit

(**/**)

(* Scheduler-internal state; exposed for Sched, not for clients. *)

val set_state : t -> state -> unit
val set_vruntime : t -> float -> unit
val add_cpu_time : t -> Satin_engine.Sim_time.t -> unit
val incr_dispatches : t -> unit
val body : t -> t -> step
val assigned_core : t -> int option
val set_assigned_core : t -> int option -> unit
val remaining : t -> step option
val set_remaining : t -> step option -> unit

val sleep_epoch : t -> int
(** Invalidation counter for pending sleep-expiry timers: a timer armed for
    an earlier epoch must not wake the task (it was woken externally and may
    be sleeping again for a different reason). *)

val bump_sleep_epoch : t -> unit

val rt_enqueued_at : t -> Satin_engine.Sim_time.t
(** The instant an RT task was last queued by a wake-up and not yet
    dispatched since, for the RT dispatch-latency metric; negative when
    none is pending. Kept only while metrics are recorded. *)

val set_rt_enqueued_at : t -> Satin_engine.Sim_time.t -> unit
