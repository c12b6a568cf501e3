(** Campaign-scale telemetry: aggregate persisted metric capsules into
    percentile reports, export them, and gate regressions.

    {!collect} walks a store's capsule area ({!Store.fold_capsules}) and
    merges every trial's capsule into per-experiment aggregates: counters
    sum exactly (plus a per-trial distribution), gauges become a
    distribution of their final values, and histograms merge bucket-wise
    ({!Satin_obs.Histogram.merge} is exactly associative and commutative),
    so the aggregate is independent of walk order, jobs width, and how many
    runs it took to fill the store. Reports therefore render byte-identical
    for equal capsule populations — the property CI's determinism jobs
    assert.

    A report carries an {e identity}: the binary fingerprint the capsules
    were produced by (a collection spanning several fingerprints must have
    one selected explicitly — mixing builds silently is exactly the
    apples-to-oranges failure this refuses) and a {e config hash} digesting
    the campaign's composition (which experiments, seeds, trials, configs).
    {!gate} compares two exported documents and refuses mismatched config
    hashes; fingerprints are expected to differ across builds and are never
    compared. *)

module Histogram = Satin_obs.Histogram
module Json = Satin_obs.Json
module Labels : sig
  type t = (string * string) list
end

type series_agg =
  | Total of int * Histogram.t
      (** counter: exact campaign total, plus the distribution of per-trial
          values *)
  | Dist of Histogram.t  (** gauge: final values across trials *)
  | Merged of Histogram.t  (** histogram: exact merged sample population *)

type experiment_agg = {
  exp_trials : int;
  exp_config_hash : string;
      (** digest of this experiment's (seed, trial, config) set *)
  series : ((string * Labels.t) * series_agg) list;  (** sorted *)
}

type report = {
  fingerprint : string;
  config_hash : string;  (** digest over all per-experiment hashes *)
  trials : int;
  skipped : int;  (** capsules that failed to parse (logged, not fatal) *)
  experiments : (string * experiment_agg) list;  (** sorted by name *)
}

val collect : ?fingerprint:string -> Store.t -> (report, string) result
(** Aggregate every readable capsule in the store. [Error] when the store
    holds capsules from several fingerprints and [fingerprint] does not
    select one (the message lists them), or when no capsule matches. *)

val print_table : Format.formatter -> report -> unit
(** Human percentile tables, one block per experiment: each series with its
    kind, sample count, exact total (counters), and p50/p90/p99/mean/min/
    max. Byte-stable for equal reports. *)

val to_json : report -> Json.t
(** [{"schema": "satin-telemetry/v1", "identity": {...}, "experiments":
    {...}}] — the machine form consumed by {!gate}. Canonical ordering
    throughout; equal reports render byte-identically. *)

val to_openmetrics : report -> string
(** OpenMetrics text exposition: one metric family per series (names
    mangled to [[a-zA-Z0-9_]], prefixed [satin_]), counters as [_total]
    samples, distributions as summaries with [quantile] labels, every
    sample labelled with its experiment, terminated by [# EOF]. *)

type gate_result = {
  compared : int;  (** numeric paths present on both sides and tracked *)
  regressions : (string * float * float) list;
      (** (path, baseline, current), worst relative change first *)
  missing : string list;
      (** tracked baseline paths absent from the current document *)
}

val gate :
  ?threshold:float -> baseline:Json.t -> current:Json.t -> unit ->
  (gate_result, string) result
(** Compare two telemetry (or bench) JSON documents. Numeric leaves are
    flattened to dotted paths; a path is {e tracked} when its last segment
    has a known direction — lower-is-better ([p50]/[p90]/[p99]/[mean]/
    [ns_per_run]/[words_per_event]/[..._latency]/[..._duration]/[..._cost]/
    [..._pct]) or higher-is-better ([..._per_s]/[..._rate]/[speedup]) — and
    it regresses when it moves the wrong way by more than [threshold]
    (relative, default [0.10]). Identity is enforced, not compared:
    mismatched [identity.config_hash] fields are an [Error] (the documents
    describe different campaigns), and fingerprint fields are ignored.
    [missing] paths are reported but only regressions should fail a CI
    gate. Raises [Invalid_argument] unless [threshold] is finite and
    positive: nothing exceeds a NaN or infinite threshold, so such a gate
    would pass any regression. *)

val gate_threshold_default : float
(** [0.10]. *)
