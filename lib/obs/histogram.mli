(** Fixed-memory, log-bucketed, exactly-mergeable sample histograms.

    The campaign telemetry pipeline needs per-trial latency distributions
    that thousands of shards and trials can combine into one population
    view. {!Satin_engine.Stats.t} (the exact-quantile path the paper's
    tables use) stores every sample, so it neither bounds memory nor
    merges cheaply. This module trades quantile exactness for both:

    - {b fixed memory}: a sample lands in one of a fixed set of
      log-linear buckets (16 sub-buckets per power of two, covering
      2{^-64}..2{^64} with dedicated under/overflow buckets, a zero
      bucket, and a mirrored negative range), so relative quantile error
      is bounded by one sub-bucket (~6%) inside the covered range;
    - {b exact merges}: the state is integer bucket counts plus exact
      min/max folds, so {!merge} is associative and commutative {e to the
      byte} — shard A + shard B equals shard B + shard A, and any
      merge-tree shape over the same trials produces the same histogram.
      (Means and quantiles are derived from bucket counts, never carried
      as floating accumulators, precisely so merging cannot reorder float
      additions.)

    Bucket boundaries come from {!Float.frexp}/{!Float.ldexp} (exact
    powers of two), not transcendental functions, so bucketing is
    deterministic across platforms. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one sample. NaN raises [Invalid_argument] (as in
    {!Satin_engine.Stats.add}); infinities are clamped to
    [±Float.max_float] and land in the outermost buckets. *)

val of_stats : Satin_engine.Stats.t -> t
(** Bucket every sample of an exact-stats accumulator, in insertion
    order — the bridge from an exact registry's histograms to mergeable
    capsules, and the reference that on-arrival bucketing must equal. *)

val count : t -> int
val is_empty : t -> bool

val min : t -> float
(** Exact smallest sample. Raises [Invalid_argument] when empty; likewise
    [max] and the derived statistics below. *)

val max : t -> float

val mean : t -> float
(** Approximate: sum of bucket-midpoint × count over the fixed bucket
    order, so it is a pure function of the (mergeable) state. *)

val quantile : t -> float -> float
(** [quantile t q] with [0 <= q <= 1]: the midpoint of the bucket holding
    the [q]-th order statistic, clamped into [[min t, max t]]. Exact when
    all samples share a bucket; off by at most one sub-bucket otherwise. *)

val merge : t -> t -> t
(** Combine two histograms into a fresh one. Exactly associative and
    commutative: bucket counts add, min/max fold. [merge (of_list a)
    (of_list b)] is structurally equal to [of_list (a @ b)]. *)

val merge_into : t -> t -> unit
(** [merge_into t b] makes [t] [merge t b], in place. *)

val equal : t -> t -> bool
(** Structural equality of the full state (counts, min, max). *)

(** {1 Codec}

    The JSON form is sparse (only occupied buckets appear, in ascending
    index order) and canonical: equal histograms render byte-identically,
    which is what makes capsule files diffable and the telemetry reports
    byte-stable. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
