(** The machine-readable side of a run: the [satin-bench/v1] document
    [satin_cli --json FILE] writes with {!write_document} (as
    [bench/main.exe --json] does for the micro-benchmarks), the
    {!identity} it carries, and {!stats}, the shared shape for sample sets:
    count/mean/min/max plus exact p50/p90/p99. Each experiment's own
    encoder sits in its section of {!Experiment}. *)

module Json = Satin_obs.Json

val identity : unit -> Json.t
(** [{"fingerprint": ..., "config_hash": ...}] — the producing binary's
    {!Satin_store.Fingerprint} and a digest of the ambient key context.
    Embedded into [--json] documents and (via
    {!Satin_obs.Obs.set_identity}) metrics exports, so telemetry consumers
    can refuse to compare documents from different campaign setups. *)

val stats : Satin_engine.Stats.t -> Json.t
(** [Null]-safe: an empty sample set renders as [{"count": 0}]. *)

val write_document :
  string -> subcommands:string list -> (string * Json.t) list -> unit
(** Write the [satin-bench/v1] document to a file: schema tag, {!identity}
    (call it inside the run's key context), the subcommands that ran, and
    the named results. *)
