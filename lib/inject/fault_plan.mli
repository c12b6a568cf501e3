(** Deterministic fault plans.

    A plan names one family of perturbations the {!Injector} applies to a
    scenario: every stochastic choice inside a plan flows from the
    injector's derived PRNG, so a faulted campaign is exactly as
    reproducible — and as parallelizable under the runner — as a clean one.

    The families map onto the hazards a real SATIN deployment faces:

    - {e timer faults} ([Drop_timer_irqs], [Delay_timer_irqs]): the secure
      timer's compare write is swallowed or its deadline slips — a flaky
      interrupt path degrades the self-activation module (§V-C);
    - {e switch spikes} ([Spike_world_switch]): [Ts_switch] episodes far
      above the calibrated triple (cold caches, SMC contention) stretch the
      race window of §IV-C;
    - {e memory corruption} ([Flip_kernel_bits]): bits flip inside enrolled
      kernel areas; the checker's alarm path must catch them when the scan
      front passes;
    - {e scheduling pressure} ([Starve_rt_probers], [Cfs_storm]): SCHED_FIFO
      hogs at prober priority and CFS task storms stress the normal-world
      substrate the attacks (and any normal-world agent) depend on —
      secure-world rounds must ride through unaffected. *)

type t =
  | Control  (** no perturbation — the campaign baseline *)
  | Drop_timer_irqs of { prob : float }
      (** each secure-timer arm is swallowed with probability [prob]; a
          dropped arm means that core's next wake-up never comes *)
  | Delay_timer_irqs of { prob : float; max_delay : Satin_engine.Sim_time.t }
      (** each secure-timer arm slips by a uniform extra in
          [\[0, max_delay)] with probability [prob] *)
  | Spike_world_switch of { prob : float; factor : float }
      (** each sampled world-switch cost is multiplied by [factor] with
          probability [prob] *)
  | Flip_kernel_bits of { period : Satin_engine.Sim_time.t; flips : int }
      (** every [period], flip [flips] random bit(s) at random offsets of
          random enrolled areas *)
  | Starve_rt_probers of {
      priority : int;
      burst : Satin_engine.Sim_time.t;
      duty : float;
    }
      (** one SCHED_FIFO hog per core at [priority], running [burst] then
          sleeping to hold the given duty cycle *)
  | Cfs_storm of {
      tasks_per_core : int;
      burst : Satin_engine.Sim_time.t;
      duty : float;
    }  (** [tasks_per_core] periodic CFS loads per core *)

val name : t -> string
(** Short stable identifier (["drop-timer"], ["cfs-storm"], ...) used in
    reports and JSON summaries. *)

val to_string : t -> string
(** Human-readable description including the severity parameters. *)

val pp : Format.formatter -> t -> unit

val validate : t -> unit
(** Raises [Invalid_argument] on out-of-range parameters (probabilities
    outside [0,1], non-positive periods/bursts, duty outside (0,1]...). *)

val catalogue : t list
(** The default campaign: [Control] plus one representative plan per fault
    family. *)
