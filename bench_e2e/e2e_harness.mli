(** The pure parts of the end-to-end benchmark ([e2e.ml]): the result
    document, the sample-summary rule, and host-time spans with their self
    time. Kept apart from the workloads so [test_harness.ml] can check them
    without running a simulation. *)

module Json = Satin_obs.Json

(** {1 Results} *)

val valid_name : string -> bool
(** A metric name is one or more of [A-Za-z0-9_.-]. *)

type metric = { name : string; unit_ : string; value : float }

type result = {
  correct : bool;  (** [failed = 0] *)
  attempted : int;  (** checks made on the workloads' outputs *)
  failed : int;
  metrics : metric list;
}

val result_to_json : result -> Json.t
(** [{"correct": .., "attempted": .., "failed": .., "metrics": {NAME:
    {"value": .., "unit": ..}, ..}}], the last line the benchmark prints.
    Raises [Invalid_argument] on a metric name {!valid_name} rejects or a
    non-finite value. *)

val result_of_json : Json.t -> (result, string) Stdlib.result
(** Inverse of {!result_to_json}; whole-number values that the emitter
    printed without a fraction come back as floats. *)

(** {1 Sample summaries} *)

val median : float list -> float
(** Linear interpolation between order statistics, as
    {!Satin_engine.Stats.quantile}. Raises [Invalid_argument] when empty. *)

val tail_percentile : int -> float option
(** The highest of p90, p99 and p99.9 that has at least ten of [n] samples
    beyond it, or [None] when there is none, in which case only the median
    is reported. Below 20 samples not even p50 has ten beyond it. *)

val summarize : unit_:string -> float list -> string
(** ["median 1.2 s (n=5)"], with the {!tail_percentile} added when [n]
    allows one: ["median 1.2 s, p90 1.9 s (n=150)"]. *)

(** {1 Host-time spans} *)

type span = {
  id : int;
  parent : int option;  (** the enclosing span, [None] at the root *)
  name : string;
  start_ns : int;  (** monotonic clock *)
  stop_ns : int;
}

val self_ns : span list -> (span * int) list
(** Each span with its self time: its duration minus the part of its
    interval that its direct children cover. Overlapping children count
    once; a child reaching outside its parent counts only inside it. *)

val span_to_json : span -> Json.t
val span_of_json : Json.t -> (span, string) Stdlib.result

val chrome_trace : (string * span list) list -> Json.t
(** Chrome trace-event JSON (complete ["X"] events, host microseconds) with
    one process per named group — a workload — for Perfetto or
    [chrome://tracing]. Each event's args carry its id, parent id and
    workload. *)
