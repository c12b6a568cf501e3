(** Scheduling-clock tick (timer interrupt) machinery.

    Each core's non-secure generic timer is programmed to fire at
    [CONFIG_HZ]; the handler runs the registered tick hooks, drives
    {!Sched.scheduler_tick}, and re-arms the timer. Linux's
    [CONFIG_NO_HZ_IDLE] is modelled: a core with no runnable work lets its
    tick die and it is restarted when a task is enqueued — which is why
    KProber-I keeps a spinner thread on every core (§III-C1).

    Tick hooks are the injection point KProber-I abuses after hijacking the
    IRQ exception vector: a hook runs in interrupt context on every tick
    delivered to its core, before the scheduler work. *)

type t

type hook = core:int -> unit

val create :
  platform:Satin_hw.Platform.t -> sched:Sched.t -> hz:int -> t
(** Registers the GIC handler for {!Satin_hw.Platform.tick_irq} and
    subscribes to scheduler enqueues for tick restart. Does not start
    ticking until {!start}. *)

val start : t -> unit
(** Arms the first tick on every core. *)

type hook_id

val add_hook : t -> hook -> hook_id
(** Appends a tick hook (runs on every core's tick, in order). *)

val remove_hook : t -> hook_id -> unit
(** Removes one hook (a rootkit cleaning its own injection must not clobber
    anyone else's). Idempotent. *)

val hz : t -> int
val period : t -> Satin_engine.Sim_time.t

val ticks_delivered : t -> core:int -> int

val tick_alive : t -> core:int -> bool
(** Whether the core's tick is currently programmed (false when NO_HZ idle
    has stopped it). *)
