(** Span tracing with Chrome trace-event export.

    Spans are begin/end pairs attributed to a {e track} — one lane per
    simulated core, so an exported E10 campaign renders as the paper's
    Figure 3 per-core timeline. Exports target the Chrome trace-event JSON
    format, directly loadable in Perfetto ({:https://ui.perfetto.dev}) or
    [chrome://tracing].

    Spans on one track must nest properly (the begun-last span ends first),
    which the instrumentation sites guarantee by construction: an area
    check lives strictly inside its world-switch span.

    {2 Per-domain track contract}

    A track is a {e single-domain lane while spans are open on it}: the
    domain that begins a span owns the track until its begin stack drains,
    and only then may another domain take it over. {!Obs} never shares a
    [t] between domains (each trial traces into its own capture, which is
    {!append}ed to the sink in submission order), but for a [t] shared
    anyway, {!begin_span} and {!end_span} refuse a call on a track whose
    open spans were begun by a different domain: interleaved begin/end
    pairs would serialize into a corrupt nesting. *)

type phase = Begin | End | Instant

type event = {
  ph : phase;
  time : Satin_engine.Sim_time.t;
  track : int;
  name : string;
  cat : string;
  args : (string * Json.t) list;
}

type t

val create : unit -> t

val begin_span :
  t ->
  time:Satin_engine.Sim_time.t ->
  track:int ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  string ->
  unit

val end_span : t -> time:Satin_engine.Sim_time.t -> track:int -> unit
(** Ends the most recently begun span on [track]. Raises
    [Invalid_argument] if that span was begun on a different domain (see
    the per-domain track contract above). *)

val instant :
  t ->
  time:Satin_engine.Sim_time.t ->
  track:int ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  string ->
  unit

val set_track_name : t -> int -> string -> unit
(** Label a track in the exported view (e.g. ["core 4 (A57)"]). *)

val append : t -> t -> unit
(** [append t src] adds [src]'s events to the end of [t], in order, and
    takes over its track names. *)

val events : t -> event list

val to_chrome_json : ?process_name:string -> t -> Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ns"}] with metadata events
    naming the process (default ["satin"]) and every named track.
    Timestamps are microseconds of simulated time (the format's unit). *)
