(** Calibrated timing model for the simulated Juno r1 board.

    All constants come from the paper's measurements (§IV-B, Table I): per-byte
    introspection costs on Cortex-A53 ("LITTLE") and Cortex-A57 ("big") cores,
    the EL3 world-switch latency, the rootkit's trace-recovery time, and the
    cross-core report-delay tail that drives KProber's probing threshold.

    Measured min/avg/max triples are reproduced by sampling a triangular
    distribution with those bounds and mode chosen so the distribution mean
    matches the reported average — enough to reproduce the paper's 50-round
    avg/max/min tables without pretending to know the silicon's true law. *)

type core_type = A53 | A57

val pp_core_type : Format.formatter -> core_type -> unit
val core_type_to_string : core_type -> string
val equal_core_type : core_type -> core_type -> bool

(** A measured (min, avg, max) timing triple, in seconds. *)
type triple = { t_min : float; t_avg : float; t_max : float }

val triple : min_s:float -> avg_s:float -> max_s:float -> triple
(** Validates [min <= avg <= max]. *)

val sample : Satin_engine.Prng.t -> triple -> float
(** A deviate in [\[t_min, t_max\]] whose mean is [t_avg] (triangular law,
    mode solved from the mean). *)

val sample_time : Satin_engine.Prng.t -> triple -> Satin_engine.Sim_time.t

(** Timing parameters of a platform. *)
type t = {
  hash_1byte : core_type -> triple;
      (** Secure world direct-hash cost per byte (Table I, "Hash 1-Byte"). *)
  snapshot_1byte : core_type -> triple;
      (** Snapshot-then-hash cost per byte (Table I, "Snapshot 1-byte"). *)
  world_switch : core_type -> triple;
      (** EL3 dispatcher cost from secure-timer IRQ to S-EL1 handler
          (§IV-B1: 2.38–3.60 µs, similar on both core types). *)
  recover_8bytes : core_type -> triple;
      (** Rootkit's time to restore its 8-byte syscall-table patch
          (§IV-B2: A53 avg 5.80 ms, A57 avg 4.96 ms). *)
  cross_read_delay : triple;
      (** Common-case cross-core report-read latency component of
          [Tns_threshold]. *)
  cross_read_tail : triple;
      (** Rare abnormal cross-core read delay (§IV-B2: up to ~1.3 ms). *)
  cross_read_tail_rate_hz : float;
      (** Base per-sample probability of a tail event; an additional
          logarithmic term grows it with the probing period so longer
          windows raise the observed average threshold (Table II). Set to
          0 to disable tails entirely. *)
  tick_hz : int;
      (** Rich OS scheduling-clock frequency (CONFIG_HZ; lsk-4.4 arm64
          defaults to 250, within the paper's 100..1000 bound). *)
  rt_sleep : float;
      (** KProber-II thread sleep between probe rounds
          (§IV-A1: [Tsleep] = 2×10⁻⁴ s, taken as [Tns_sched]). *)
  l1_hit : triple;  (** load served by the core's L1 (~4 ns) *)
  l2_hit : triple;  (** load served by the cluster's shared L2 (~20 ns) *)
  cache_miss : triple;  (** load served by DRAM (~140 ns) *)
}

val default : t
(** The Juno r1 calibration described above. *)

val smm_like : t
(** §VII-D portability: SATIN only needs multi-core, a high-privileged mode,
    and a secure timer. This preset models a generic x86-SMM-style TEE:
    identical cores (both "types" share the A57 byte rates) and an
    order-of-magnitude slower privileged-mode entry (~30 µs SMI-style),
    which shrinks — but does not break — the Equation (2) area bound. *)

val load_latency : Satin_engine.Prng.t -> t -> level:int -> float
(** One sampled load-to-use latency, keyed by the cache level that served
    the access as {!Satin_cache.Cache.touch} reports it: [0] L1 hit, [1]
    L2 hit, anything else DRAM. The modeled cache probers time probes with
    this instead of the fixed hit/miss constants of the abstract mode. *)

val per_byte_duration :
  Satin_engine.Prng.t -> triple -> bytes:int -> Satin_engine.Sim_time.t
(** [per_byte_duration prng triple ~bytes] draws one per-byte rate and
    multiplies: a whole introspection round observes a single effective rate,
    matching how the paper derives Table I from whole-region timings. *)

val cross_staleness_mean : period_s:float -> float
(** Mean cross-core report staleness for a given probing period, in seconds.

    §IV-B2 observes the average probing threshold growing with the probing
    period (Table II: 2.61×10⁻⁴ s at 8 s up to 6.61×10⁻⁴ s at 300 s) and
    attributes it to rare large cross-core reading delays whose occurrence
    rises with the period (cold caches, timer coalescing after long sleeps).
    The fit is logarithmic: [2.61e-4 + 1.105e-4 · ln(period/8)], floored at
    6×10⁻⁵ s for sub-second periods such as KProber-II's 200 µs rounds. *)

type staleness_law
(** The staleness distribution of one probing period, with everything that
    depends only on the period and the platform computed once. *)

val staleness_law : t -> period_s:float -> staleness_law
(** The law for probing period [period_s] on platform timing [t]: a
    lognormal spread around {!cross_staleness_mean}, plus — with
    probability growing with the period — an additive tail drawn from
    [cross_read_tail] (the paper's "abnormal large delay ... up to
    1.3×10⁻³ s"). *)

val sample_staleness : Satin_engine.Prng.t -> staleness_law -> float
(** One observed staleness. Each draw takes one gaussian and one bernoulli
    deviate, plus one triangular deviate when the tail fires. *)
