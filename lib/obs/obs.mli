(** Observability facade: the one sink the instrumentation hooks talk to.

    The simulation layers (engine, monitor, scheduler, defenses, attacks)
    are instrumented with calls into this module. With no sink installed —
    the default — every call is a single match on a global and returns
    immediately, so experiments pay nothing for the instrumentation. The
    CLI's [--trace]/[--metrics] flags and the bench harness install a sink
    around a run and export it afterwards.

    The sink is global (like a logging reporter) rather than threaded
    through every constructor: simulated components are built deep inside
    experiment runners, and the timeline of "the current run" is exactly
    what the exports capture. Timestamps are always supplied by the caller
    from its engine clock, so one sink serves any number of scenarios. *)

type t

val create : unit -> t

val metrics : t -> Metrics.t

val wall_metrics : t -> Metrics.t
(** The real-time registry: host wall-clock measurements
    ([runner.batch_wall_s], [experiment.wall_s]) land here, segregated from
    {!metrics} so the deterministic registry — and therefore the
    [--metrics] export — stays byte-stable run to run (DESIGN §7). *)

val tracing : t -> Tracing.t

val install : t -> unit
(** Make [t] the current sink. Replaces any previous sink. *)

val uninstall : unit -> unit

val current : unit -> t option
val enabled : unit -> bool

(** {1 Per-domain capture}

    Capsule capture runs {e beside} the global sink: [with_capture] gives
    the calling domain a private registry that every metrics hook also
    writes to for the duration of [f]. Capture is per-domain state
    (Domain.DLS), so concurrent trials on worker domains each seal their
    own registry; captures nest (the innermost wins) and never touch the
    global sink, tracing, or wall-clock series. With no capture active
    anywhere, the added hook cost is one atomic load.

    A capture registry is bucketed ({!Metrics.create}): each histogram
    sample is added on arrival to the {!Histogram.t} its capsule
    serializes, so a trial's capture holds no sample buffers. *)

val with_capture : (unit -> 'a) -> Metrics.t * 'a
(** Run [f] with a fresh bucketed registry on the current domain; return
    that registry (sealed — no further hooks write to it) with [f]'s
    result. The previous capture, if any, is restored even on raise. *)

val capturing : unit -> bool
(** Whether the {e current domain} is inside {!with_capture}. Scenario
    construction uses this to attach engine observers for capture-only
    runs. *)

val active : unit -> bool
(** [enabled () || capturing ()] — the guard for instrumentation sites
    that build metric samples: a site skipped when only the sink is absent
    would leave capture-only runs (store-backed campaigns) with empty
    capsules. Tracing-only sites may keep guarding on {!enabled}. *)

(** {1 Hook entry points (no-ops when no sink is installed)}

    A metrics hook names its series by {!key}, never by string: intern the
    key once (at module level, or per core or area when a component is
    created) and the hook is one array load and one mutation per live
    registry. *)

type key = Metrics.key

val key : ?labels:Metrics.labels -> string -> key
(** {!Metrics.key}: a metric name plus canonical labels, interned once. *)

val incr : ?by:int -> key -> unit
val set_gauge : key -> float -> unit
val observe : key -> float -> unit
val observe_time : key -> Satin_engine.Sim_time.t -> unit

val observe_wall : key -> float -> unit
(** Record a host wall-clock measurement into {!wall_metrics}. Use this —
    never {!observe} — for [Unix.gettimeofday] deltas and anything else
    nondeterministic, so the deterministic registry stays byte-stable. *)

val span_begin :
  time:Satin_engine.Sim_time.t ->
  track:int ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  string ->
  unit

val span_end : time:Satin_engine.Sim_time.t -> track:int -> unit

val instant :
  time:Satin_engine.Sim_time.t ->
  track:int ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  string ->
  unit

val name_track : int -> string -> unit

val attach_engine : Satin_engine.Engine.t -> unit
(** Register the engine-level observers: every fired event bumps the
    ["engine.events_fired"] counter and updates the ["engine.queue_depth"]
    gauge, and every dispatched batch records its event count into the
    ["engine.batch_size"] histogram — in the sink, the current domain's
    capture registry, or both. All three are deterministic series (batch
    boundaries are a function of the schedule alone), so they flow into
    capsules and [telemetry report], never into wall-metrics. All three
    series are created at attach time, so a registry holds them even for
    an engine that never fires. A no-op (and no observer is installed)
    when neither destination is active, so an un-instrumented run keeps
    the engine's bare step loop. *)

(** {1 Exports} *)

val set_identity : Json.t option -> unit
(** Install the build/config identity object (see [Summary.identity])
    embedded into {!metrics_json} and {!wall_metrics_json} so exported
    snapshots carry the producing binary's fingerprint and config hash —
    telemetry consumers use it to refuse apples-to-oranges comparisons.
    [None] (the default) omits the field. *)

val identity : unit -> Json.t option

val horizon : t -> Satin_engine.Sim_time.t
(** Latest simulated instant any hook reported — the stamp used for the
    final metrics snapshot. *)

val trace_json : t -> Json.t
(** Chrome trace-event document (see {!Tracing.to_chrome_json}). *)

val metrics_json : t -> Json.t
(** [{"schema": ..., "snapshots": [final]}] — one snapshot of the
    registry, stamped at {!horizon}. Deterministic registry only: wall-clock
    measurements never appear here, keeping the export byte-stable. *)

val wall_metrics_json : t -> Json.t
(** The real-time registry as a separate document
    ([{"schema": "satin-wall-metrics/v1", ...}]). Nondeterministic by
    nature; never mixed into {!metrics_json}. *)

val write_trace : t -> string -> unit
(** Write {!trace_json} to a file. *)

val write_metrics : t -> string -> unit
(** Write {!metrics_json} to a file. *)
