(** Full-system scenario builder.

    One call assembles the paper's evaluation platform: the simulated Juno
    r1, a booted rich OS with the lsk-4.4-style kernel image, the secure
    world (TSP + secure memory carve-out), and an integrity checker. Defense
    and attack components are then installed on top by the experiments (or
    by library users). *)

type t = {
  platform : Satin_hw.Platform.t;
  kernel : Satin_kernel.Kernel.t;
  tsp : Satin_tz.Tsp.t;
  secure_memory : Satin_tz.Secure_memory.t;
  checker : Satin_introspect.Checker.t;
  sanitizer : Satin_inject.Sanitizer.t option;
      (** present iff {!Satin_inject.Sanitizer.check_mode} was on at
          creation ([--check]): an invariant sanitizer chained onto the
          engine observer, validating engine/queue/scheduler state on a
          sampled cadence *)
}

val create :
  ?seed:int ->
  ?cycle:Satin_hw.Cycle_model.t ->
  ?cache:Satin_cache.Cache.config ->
  ?layout:Satin_kernel.Layout.t ->
  unit ->
  t
(** Defaults: seed 42, Juno r1 calibration, the default cache geometry
    ({!Satin_cache.Cache.default_config}) and the paper kernel layout. The
    32 MiB of simulated DRAM alias the shared zero page and the process's
    one kernel image until written ({!Satin_hw.Memory}), so a build
    allocates its page table and the pages it writes, not 32 MiB. The
    scenario lives as long as anything references it; the GC frees it. *)

val with_ :
  ?seed:int ->
  ?cycle:Satin_hw.Cycle_model.t ->
  ?cache:Satin_cache.Cache.config ->
  ?layout:Satin_kernel.Layout.t ->
  (t -> 'a) ->
  'a
(** [with_ … f] builds a scenario as {!create} does, applies [f] to it and
    releases it ({!Satin_hw.Memory.release}), also when [f] raises. Nothing
    is reused: release drops the memory's page table, so its written pages
    become garbage even if the scenario leaks. [f] must take everything it
    needs out of the scenario before returning: afterwards every memory
    access, and {!run_for}/{!run_until}, raise
    {!Satin_hw.Memory.Released}. *)

val run_for : t -> Satin_engine.Sim_time.t -> unit
(** Advance the simulation by a duration. Under [--check], every
    [run_for]/[run_until] ends with one full sanitizer sweep, so even a
    scenario too short to reach the sampled cadence gets validated.
    Raises {!Satin_hw.Memory.Released} on a scenario released by
    {!with_}. *)

val run_until : t -> Satin_engine.Sim_time.t -> unit

val now : t -> Satin_engine.Sim_time.t

val engine : t -> Satin_engine.Engine.t

val install_satin :
  t -> ?config:Satin_introspect.Satin.config -> unit -> Satin_introspect.Satin.t
(** Installs and starts SATIN with its default (or given) configuration. *)

val install_baseline :
  t -> Satin_introspect.Baseline.config -> Satin_introspect.Baseline.t
(** Installs and starts a PKM-style baseline defense. *)
