(** Integrity-checking primitive with faithful race semantics.

    A checker holds the golden (boot-time) content and hashes of enrolled
    kernel ranges and performs timed scans over physical memory. The crucial
    modelling decision: a scan is {e not} an instantaneous hash. Its scan
    front advances linearly at the sampled per-byte rate, and a tampered byte
    is detected iff it still differs from the golden content {e at the
    instant the front passes it} — precisely the TOCTTOU race of §III-B2
    that TZ-Evader exploits and SATIN's area bound defeats. Bytes restored
    before the front arrives are missed; bytes dirtied behind the front are
    missed until the next round (the paper's attacker only cleans, but the
    model handles both directions).

    The checker hashes directly: it streams the live memory through djb2
    ({!Hash}) with no snapshot buffer, at Table I's direct-hash per-byte
    cost — the style the paper recommends over snapshot-then-hash. *)

type t

val create :
  ?cache:Satin_cache.Cache.t ->
  memory:Satin_hw.Memory.t ->
  cycle:Satin_hw.Cycle_model.t ->
  prng:Satin_engine.Prng.t ->
  unit ->
  t
(** With [?cache] (normally the platform's), every scan also drives the
    modeled L1/L2 hierarchy: the front's streaming reads are replayed as
    chunked line fills on the scanning core, pacing the cross-core eviction
    signal the modeled cache probers detect. Without it, scans leave the
    cache untouched (the pre-cache behaviour). *)

val enroll : t -> base:int -> len:int -> int64
(** Capture the golden content and hash of a range (trusted boot). Returns
    the authorized hash. Re-enrolling a range replaces its golden state.
    A range that {!Satin_hw.Memory.image_slice} proves to be unwritten
    image bytes is not copied: its golden content aliases the loaded
    image, and its hash and per-block golden digests come from a
    process-wide table shared by every checker (domain-safe). Any other
    range is copied and hashed. Both give the same hash and verdicts; the
    per-block incremental state is always this checker's own. *)

val enrolled_hash : t -> base:int -> len:int -> int64 option

type verdict = {
  v_base : int;
  v_len : int;
  v_tampered : bool;
  v_offsets : int list; (** offsets (from [v_base]) caught modified, ascending *)
  v_hash_expected : int64;
  v_hash_observed : int64; (** hash of the content at scan completion *)
}

val start_scan :
  t ->
  engine:Satin_engine.Engine.t ->
  core:Satin_hw.Cpu.t ->
  base:int ->
  len:int ->
  on_verdict:(verdict -> unit) ->
  Satin_engine.Sim_time.t
(** Begin scanning now on [core]; returns the scan's total duration (pass
    this to the monitor payload). [on_verdict] fires when the front reaches
    the end of the range. The range must be enrolled. *)

val scans_started : t -> int
val tampered_verdicts : t -> int

val blocks_rehashed : t -> int
(** Cumulative count of page-aligned blocks whose bytes the host actually
    compared/re-hashed across all rounds (both the scan-start dirty sweep
    and the verdict pass). With {!Incremental} enabled, a quiescent rescan
    re-hashes nothing; with it disabled every block counts here. *)

val blocks_cached : t -> int
(** Cumulative count of blocks skipped because their
    {!Satin_hw.Memory.generation} stamp had not advanced since they were
    last proven byte-equal to golden (one int compare instead of a sweep).
    Per-round values are also emitted as [scan.blocks_rehashed] /
    [scan.blocks_cached] counters and the [scan.rehash_fraction] histogram
    when {!Satin_obs.Obs} is active. *)
