(** Observability facade: the one path the instrumentation hooks talk to.

    Every hook writes exactly one place: the {e innermost observer} of the
    calling domain — its open capture ({!with_capture}), else the sink
    that domain installed ({!install}), else nothing. With no observer
    anywhere — the default — a hook is one atomic load, so experiments pay
    nothing for the instrumentation. The CLI's [--trace]/[--metrics] flags
    and the bench harness install a sink around a run and export it.

    Observers are ambient per domain rather than threaded through every
    constructor, since components are built deep inside experiment
    runners. Worker domains never write the sink: each trial records into
    its own capture, which [Satin_store.Memo.map] {!merge}s into the
    submitting domain's observer in submission order, so the sink holds
    what a sequential run would have written, at any [--jobs]. Hooks take
    their timestamps from the caller's engine clock, so one observer
    serves any number of scenarios. *)

type t
(** An observer: a deterministic metrics registry, a wall-clock registry,
    a trace, and the latest simulated instant any hook reported. *)

val create : unit -> t
(** A sink: exact histograms and a trace. *)

val metrics : t -> Metrics.t

val wall_metrics : t -> Metrics.t
(** The real-time registry: host wall-clock measurements
    ([runner.batch_wall_s], [experiment.wall_s]) land here, segregated from
    {!metrics} so the deterministic registry — and therefore the
    [--metrics] export — stays byte-stable run to run (DESIGN §7). *)

val install : t -> unit
(** Make [t] the calling domain's sink, replacing any previous one. Call it
    outside any capture; other domains do not see it. *)

val uninstall : unit -> unit

val current : unit -> t option
(** The calling domain's innermost observer. *)

val active : unit -> bool
(** [current () <> None]: the guard for instrumentation sites that build
    samples or trace arguments before calling a hook. *)

(** {1 Captures} *)

val with_capture : ?like:t -> (unit -> 'a) -> t * 'a
(** Run [f] with a fresh observer as the calling domain's innermost one;
    return it, sealed, with [f]'s result. The previous observer is
    restored even on raise; captures nest. A capture takes the form of
    [like], the observer it will be {!merge}d into: exact histograms and a
    trace, like a sink. Without [like] it is bucketed
    ({!Metrics.create}) and keeps no trace, so a trial's capture holds no
    sample buffers. *)

val merge : into:t -> t -> unit
(** Add a sealed capture to [into]: {!Metrics.merge} on both registries,
    trace events appended in order, the latest reported instant kept.
    Histogram samples and trace events are shared, not copied. A series
    [into] lacks is moved, so the capture must not be used afterwards.
    Raises [Invalid_argument] unless it was taken like [into]. *)

(** {1 Hook entry points (no-ops when no observer is in place)}

    A metrics hook names its series by {!key}, never by string: intern the
    key once (at module level, or per core or area when a component is
    created) and the hook is one array load and one mutation. *)

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
(** Register the engine-level observers with the calling domain's
    innermost observer: every fired event bumps the
    ["engine.events_fired"] counter and updates the ["engine.queue_depth"]
    gauge, and every dispatched batch records its event count into the
    ["engine.batch_size"] histogram. All three are deterministic series
    (batch boundaries are a function of the schedule alone), so they flow
    into capsules and [telemetry report], never into wall-metrics. All
    three series are created at attach time, so a registry holds them even
    for an engine that never fires. With no observer in place it installs
    nothing, so an un-instrumented run keeps the engine's bare step
    loop. *)

(** {1 Exports} *)

val set_identity : Json.t option -> unit
(** Install the build/config identity object (see [Summary.identity])
    embedded into {!metrics_json} and {!wall_metrics_json} so exported
    snapshots carry the producing binary's fingerprint and config hash —
    telemetry consumers use it to refuse apples-to-oranges comparisons.
    [None] (the default) omits the field. *)

val trace_json : t -> Json.t
(** Chrome trace-event document (see {!Tracing.to_chrome_json}); a
    bucketed capture's is empty. *)

val metrics_json : t -> Json.t
(** [{"schema": ..., "snapshots": [final]}] — one snapshot of the
    registry, stamped at the latest simulated instant any hook reported. Deterministic registry only: wall-clock
    measurements never appear here, keeping the export byte-stable. *)

val wall_metrics_json : t -> Json.t
(** The real-time registry as a separate document
    ([{"schema": "satin-wall-metrics/v1", ...}]). Nondeterministic by
    nature; never mixed into {!metrics_json}. *)

val write_trace : t -> string -> unit
(** Write {!trace_json} to a file. *)

val write_metrics : t -> string -> unit
(** Write {!metrics_json} to a file. *)
