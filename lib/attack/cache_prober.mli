(** Cache-occupancy side-channel prober (the "other side channels" of the
    paper's §VI-C2), at three fidelity levels.

    An introspection pass streams megabytes through the cluster's shared
    L2, evicting whatever an attacker parked there; timing re-accesses
    leaks that the secure world ran. Properties that differ from
    {!Kprober}:

    - {b faster}: no need to wait out the 1.8 ms availability threshold — a
      single probe round after ~100 µs of scanning already sees the
      eviction, so the reaction time is bounded by the probe period;
    - {b cluster-grained}: the L2 is per cluster, so the attacker learns
      the cluster, not the core;
    - {b retrospective}: evictions persist, so even a scan that finished
      between two probes is noticed;
    - {b noisy}: ordinary memory traffic also evicts; the detector carries
      a false-alarm rate.

    The {!fidelity} knob selects how much of that is actually modeled:

    - {!Abstract} keeps the original residency heuristic: an alarm fires
      when any cluster core spent [eviction_lag] in the secure world since
      the last (notional) prime. No cache state involved.
    - {!Prime_probe} primes real eviction sets in the platform's modeled
      L1/L2 hierarchy and times the re-accesses with the calibrated
      per-level load latencies; a round alarms when the full-miss fraction
      exceeds [pp_threshold]. ARMageddon-style, and the mode AutoLock
      defeats: with the inclusive-L2 lock on, the attacker's L1-resident
      eviction sets are pinned against the scanning core, the scan evicts
      nothing, and detection collapses (see the cache_fidelity table).
    - {!Evict_reload} watches lines {e inside the scanned kernel image}:
      flush via eviction set, wait a period, reload — a fast reload means
      the scan front touched the line. Largely AutoLock-proof: a flush only
      fails while the scanning core's (transient) L1 window still holds the
      line. Its weakness is the {!Policy.Rand} policy, where single-pass
      eviction is unreliable and stale hits flood the channel with false
      alarms (the ARMageddon observation).

    Experiment E14 (mode {!Abstract}) shows SATIN still wins against this
    faster channel; the cache_fidelity experiment sweeps mode x replacement
    policy x AutoLock. *)

type fidelity = Abstract | Prime_probe | Evict_reload

val fidelity_to_string : fidelity -> string

type config = {
  fidelity : fidelity;  (** default [Abstract] — existing scenarios as-is *)
  period : Satin_engine.Sim_time.t; (** probe round period (default 200 µs) *)
  eviction_lag : Satin_engine.Sim_time.t;
      (** [Abstract] detector / modeled-mode ground-truth classifier:
          secure-residency time that counts as a real eviction cause
          (default 100 µs) *)
  noise_rate_hz : float;
      (** [Abstract] only: benign-eviction false alarms per cluster per
          second (default 0.02); the modeled modes get their noise from
          actual task-footprint evictions *)
  hit_latency_s : float; (** [Abstract] primed-set re-access (~20 ns) *)
  miss_latency_s : float; (** [Abstract] after eviction (~140 ns) *)
  monitored_sets : int;
      (** modeled modes: eviction sets ([Prime_probe]) or watched kernel
          lines ([Evict_reload]) per cluster (default 8) *)
  pp_threshold : float;
      (** [Prime_probe]: alarm when the round's full-miss fraction exceeds
          this (default 0.5 — above the task-footprint noise floor, below
          a scan's clean sweep) *)
  er_region : (int * int) option;
      (** [Evict_reload]: [(base, len)] window whose lines are watched;
          [None] spreads the targets over the whole kernel image *)
}

val default_config : config

type detection = {
  det_cluster : int;
  det_time : Satin_engine.Sim_time.t;
  det_latency_s : float;
      (** observed mean per-access probe latency (modeled modes sample the
          calibrated per-level load latencies) *)
  det_noise : bool; (** true if no cluster core was secure-resident long
                        enough to explain the alarm (ground truth, for
                        experiment accounting; the attacker cannot tell) *)
}

type t

val deploy : Satin_kernel.Kernel.t -> config -> t
(** One priming/probing RT thread per cluster (on the cluster's first
    core). Probing starts immediately. Clusters come from the platform's
    computed topology, so any core mix works. *)

val on_suspect : t -> (detection -> unit) -> unit
(** Fired on each probe round that crosses the detection threshold
    (edge-triggered: sets are re-primed every probe round, so a long scan
    fires repeatedly at the probe period). *)

val on_clear : t -> (cluster:int -> unit) -> unit
(** Fired when a previously-suspected cluster probes clean again. *)

val suspected : t -> cluster:int -> bool
val detections : t -> detection list
val false_alarms : t -> int

val clusters_of_platform : Satin_hw.Platform.t -> int array array
(** The platform's cluster topology (same as {!Satin_hw.Platform.clusters}). *)

val cluster_of_core : Satin_hw.Platform.t -> core:int -> int
(** The cluster whose shared L2 [core]'s traffic lands in — derived from
    the platform's computed topology (works on any core mix, not just the
    Juno's 4+4 layout). *)

val retire : t -> unit
