(** EL3 secure monitor (ARM Trusted Firmware model).

    The monitor performs world switches: it saves the normal-world context,
    transfers the core to S-EL1 for a payload of known simulated duration,
    and restores the normal world afterwards. The entry latency is the
    paper's [Ts_switch] (§IV-B1); while the switch and payload run, the core
    is in the secure world, its pinned normal tasks stall, and non-secure
    interrupts pend in the {!Gic}. *)

type t

val create :
  engine:Satin_engine.Engine.t ->
  gic:Gic.t ->
  cycle:Cycle_model.t ->
  prng:Satin_engine.Prng.t ->
  ncores:int ->
  t

val enter_secure :
  t ->
  cpu:Cpu.t ->
  payload:(unit -> Satin_engine.Sim_time.t) ->
  ?on_exit:(unit -> unit) ->
  unit ->
  unit
(** [enter_secure t ~cpu ~payload ()] starts a world switch now:

    - the core leaves the normal world immediately (context save);
    - after a sampled [Ts_switch], [payload] runs. It performs its secure
      work as instantaneous OCaml side effects and returns the simulated
      duration that work occupies the core;
    - after that duration plus a sampled return-switch cost the core
      re-enters the normal world, pended non-secure interrupts are flushed,
      and [on_exit] (if any) runs.

    Raises [Invalid_argument] if the core is already in the secure world. *)

val payload_start_delay : t -> cpu:Cpu.t -> Satin_engine.Sim_time.t
(** Sample the entry latency [Ts_switch] for this core without switching —
    the §IV-B1 measurement campaign. *)

val switches : t -> int
(** Completed world round-trips. *)

val set_switch_fault :
  t -> (Satin_engine.Sim_time.t -> Satin_engine.Sim_time.t) option -> unit
(** [set_switch_fault t (Some f)] transforms every sampled world-switch cost
    through [f] — the [satin_inject] layer uses it to spike [Ts_switch]
    (e.g. a cold-cache or SMC-contention episode). The transformed cost must
    stay non-negative or the next sample raises [Invalid_argument]. [None]
    (the default) restores the bare cycle model. *)
