(** Metric capsules: one trial's telemetry as persistable pure data.

    A capsule is the sealed image of the metrics registry a trial filled
    while it ran, stamped with everything needed to aggregate it safely
    later: the experiment id, seed, trial index, the {e code fingerprint}
    of the binary that produced it, and the full config field list
    (ambient context included). Counters stay exact integers, gauges keep
    their final value, and histograms are mergeable {!Histogram.t}s
    (bucketed on arrival by a capture registry) — so capsules from any
    number of trials,
    shards, or resumed campaign runs combine into exact population
    distributions.

    Capsules serialize as canonical JSON (never [Marshal]): a capsule
    written by one build is safely readable by any other, and the
    fingerprint field lets readers {e refuse} cross-build merges instead
    of silently mixing incomparable populations. Equal capsules render
    byte-identically, which is what makes the telemetry reports
    byte-stable at any [--jobs] width, warm or cold. *)

type series =
  | Counter of int
  | Gauge of float
  | Histogram of Histogram.t

type t = {
  experiment : string;
  seed : int;
  trial : int;
  fingerprint : string;
  config : (string * string) list;  (** sorted by field name *)
  series : (string * Metrics.labels * series) list;
      (** sorted by (name, labels) *)
}

val of_metrics :
  experiment:string ->
  seed:int ->
  trial:int ->
  fingerprint:string ->
  config:(string * string) list ->
  Metrics.t ->
  t
(** Seal a live registry. A bucketed registry's histograms are taken as
    they are (the capsule shares them, so seal a registry nobody writes
    any more); an exact registry's are bucketed with {!Histogram.of_stats}.
    Both give the same capsule for the same samples, because bucket counts,
    count, zero, min and max do not depend on the order samples arrived
    in. Raises [Invalid_argument] on a duplicate
    config field name (the same rule as store keys). *)

val to_json : t -> Json.t
(** Canonical: fields in fixed order, config and series sorted. *)

val of_json : Json.t -> (t, string) result

val of_string : string -> (t, string) result
(** Parse a serialized capsule ([Json.parse] + {!of_json}). *)
