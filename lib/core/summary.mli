(** Machine-readable summaries of experiment results.

    One function per {!Experiment} result type, each producing a
    {!Satin_obs.Json.t} mirroring the fields the [print_*] renderers show —
    the structured counterpart of the paper-shaped tables. {!Registry}
    pairs each experiment with its encoder; [satin_cli --json FILE] writes
    the encoded results with {!write_document}, as [bench/main.exe --json]
    does for the micro-benchmarks. {!stats} is the shared shape for sample
    sets: count/mean/min/max plus exact p50/p90/p99. *)

module Json = Satin_obs.Json

val identity : unit -> Json.t
(** [{"fingerprint": ..., "config_hash": ...}] — the producing binary's
    {!Satin_store.Fingerprint} and a digest of the ambient key context.
    Embedded into [--json] documents and (via
    {!Satin_obs.Obs.set_identity}) metrics exports, so telemetry consumers
    can refuse to compare documents from different campaign setups. *)

val stats : Satin_engine.Stats.t -> Json.t
(** [Null]-safe: an empty sample set renders as [{"count": 0}]. *)

val e1 : Experiment.e1_result -> Json.t
val table1 : Experiment.table1_result -> Json.t
val e3 : Experiment.e3_result -> Json.t
val uprober : Experiment.uprober_result -> Json.t
val table2 : Experiment.table2_result -> Json.t
val e6 : Experiment.e6_result -> Json.t
val e7 : Experiment.e7_result -> Json.t
val e8 : Experiment.e8_result -> Json.t
val e9 : Experiment.e9_result -> Json.t
val e10 : Experiment.e10_result -> Json.t
val fig7 : Experiment.fig7_result -> Json.t
val ablation : Experiment.ablation_result -> Json.t
val e13 : Experiment.e13_result -> Json.t
val e14 : Experiment.e14_result -> Json.t
val cache_fidelity : Experiment.cache_fidelity_result -> Json.t
val sweep : Experiment.sweep_result -> Json.t
val inject : Experiment.inject_result -> Json.t
val degrade : Experiment.degrade_result -> Json.t
val fleet : Experiment.fleet_result -> Json.t
val timeline : Race.params -> Json.t

val write_document :
  string -> subcommands:string list -> (string * Json.t) list -> unit
(** Write the [satin-bench/v1] document to a file: schema tag, {!identity}
    (call it inside the run's key context), the subcommands that ran, and
    the named results. *)
