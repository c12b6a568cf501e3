(** Metrics registry: counters, gauges, and histograms.

    A series is identified by a metric name plus a canonicalized label set
    (sorted by key, so label order never splits a series). A registry keeps
    its histograms in one of two forms, fixed when it is created:

    - {e exact} (the default): every sample is kept in a
      {!Satin_engine.Stats.t}, giving the exact quantiles the paper's
      latency tables report. Sinks and the captures merged into them are
      exact, so [--metrics] snapshots print exact quantiles.
    - {e bucketed}: each sample is added on arrival to the
      {!Histogram.t} a metric capsule serializes, in fixed memory. Captures
      taken with no sink to merge into ({!Obs.with_capture}) are bucketed.

    Snapshots are stamped with the simulated instant they were taken at, so
    a campaign can be sampled into a time series of registry states. *)

type t

type labels = (string * string) list
(** Label pairs. Keys must be unique: registering a series whose labels
    repeat a key raises [Invalid_argument] (a silent last-wins would merge
    series that the caller believed distinct). Order is irrelevant. *)

val create : ?bucketed:bool -> unit -> t
(** An empty registry; exact unless [~bucketed:true]. *)

(** {1 Series keys}

    A key is a metric name plus canonical labels, interned once per
    process: equal names and label sets give equal keys, whatever the
    label order or the domain that interned them. Every registry caches
    the series of each key it has seen in an array indexed by key, so a
    keyed access is one array load. Intern keys once — at module level, or
    when a component is created — never on a hot path. *)

type key

val key : ?labels:labels -> string -> key
(** Raises [Invalid_argument] on a repeated label key. *)

(** {1 Keyed access}

    Each returns the live storage of the key's series in the registry,
    creating the series on first use. Re-registering an existing name +
    label set with a different kind raises [Invalid_argument]. *)

val counter : t -> key -> int ref
val gauge : t -> key -> float ref

type histogram
(** A histogram series' storage: exact or bucketed, per its registry. *)

val histogram : t -> key -> histogram

val record : histogram -> float -> unit
(** Add one sample. NaN raises [Invalid_argument]. *)

val merge : into:t -> t -> unit
(** Counters sum, gauges take [src]'s value, histogram samples are
    appended in order ({!Satin_engine.Stats.append}, sharing, not copying)
    and bucket counts add. A series [into] lacks is moved, so [src] must
    not be used afterwards. Raises [Invalid_argument] on an exact and a
    bucketed registry, or on a series of another kind in [into]. *)

(** {1 By name}

    The same series as the keyed access above, interning the name on every
    call: for tests and cold paths. *)

val incr : t -> ?labels:labels -> ?by:int -> string -> unit
val set : t -> ?labels:labels -> string -> float -> unit
val observe : t -> ?labels:labels -> string -> float -> unit

val observe_time : t -> ?labels:labels -> string -> Satin_engine.Sim_time.t -> unit
(** Records a duration sample converted to seconds. *)

val series_count : t -> int

val counter_value : t -> ?labels:labels -> string -> int option
val gauge_value : t -> ?labels:labels -> string -> float option

val histogram_stats : t -> ?labels:labels -> string -> Satin_engine.Stats.t option
(** An exact histogram's samples; [None] in a bucketed registry. *)

type view =
  [ `Counter of int
  | `Gauge of float
  | `Histogram of Satin_engine.Stats.t  (** exact registry *)
  | `Buckets of Histogram.t  (** bucketed registry *) ]

val iter_sorted : t -> (string -> labels -> view -> unit) -> unit
(** Visit every series in canonical order (name, then labels) with its
    current value — the extraction point for metric capsules, which must
    serialize equal registries byte-identically. *)

val snapshot : t -> at:Satin_engine.Sim_time.t -> Json.t
(** The full registry state as JSON, stamped with [at] (seconds of
    simulated time). Series are sorted by name then labels, so equal
    registry states render byte-identically. Exact histogram entries carry
    count, total, mean, min, max and the p50/p90/p99 exact quantiles;
    bucketed ones carry their count and {!Histogram.to_json}. *)
