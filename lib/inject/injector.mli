(** Applies a {!Fault_plan} to a built scenario.

    [install] perturbs the platform and kernel through the dedicated fault
    hooks — {!Satin_hw.Timer.set_fault_hook},
    {!Satin_hw.Monitor.set_switch_fault}, a periodic bit-flip event, or
    spawned hog tasks — and returns a handle whose counters the experiments
    read back. All randomness comes from a PRNG created from [seed], so an
    injected campaign stays deterministic and parallelizable.

    Install the injector {e before} starting the defense so the very first
    secure-timer arms already pass through the fault hook; bit flips only
    begin one period in, safely after trusted-boot enrollment at t = 0. *)

type t

val install :
  plan:Fault_plan.t ->
  seed:int ->
  platform:Satin_hw.Platform.t ->
  kernel:Satin_kernel.Kernel.t ->
  areas:Satin_introspect.Area.t list ->
  t
(** Raises [Invalid_argument] on an invalid plan (see
    {!Fault_plan.validate}) or an empty [areas] list with
    [Flip_kernel_bits]. *)

val plan : t -> Fault_plan.t

val timer_drops : t -> int
(** Secure-timer arms swallowed so far (summed over all cores). *)

val timer_delays : t -> int
(** Secure-timer arms postponed so far. *)

val switch_spikes : t -> int
(** World-switch cost samples that were spiked. *)

val flip_sites : t -> (int * Satin_engine.Sim_time.t) list
(** [(address, instant)] of every injected bit flip, oldest first. *)

val fault_events : t -> int
(** Total perturbations applied: drops + delays + spikes + flips. *)
