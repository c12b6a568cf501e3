(** Every table and figure of the paper's evaluation, one section each.

    Each [run_*] function builds its own scenario(s) from a seed, advances
    the simulation, and returns a result record; each [print_*] renders the
    paper-shaped table or figure to a formatter. A section also holds its
    result's JSON encoder and ends with its {!spec}; {!specs} lists them in
    paper order, and {!Registry} runs them. See DESIGN.md §4 for the
    experiment index and EXPERIMENTS.md for paper-vs-measured numbers. *)

module Stats = Satin_engine.Stats
module Cycle_model = Satin_hw.Cycle_model
module Runner = Satin_runner.Runner

(** {1 The spec every section declares} *)

type kind =
  | Seeded  (** in [all] and the default campaign *)
  | Closed_form  (** seed-independent: in [all] only *)
  | Deployment  (** in neither; run by name *)

(** One experiment: name, doc, kind, a run function of (pool, seed,
    quick) returning a typed result, its printer, its JSON encoder, and
    optional views — further printers on the same result, each its own
    command (Figure 4 is a view of Table II). [quick] selects the
    [satin_cli campaign --quick] scale, otherwise the paper's. *)
type spec =
  | Spec : {
      name : string;
      doc : string;
      kind : kind;
      run : pool:Runner.t -> seed:int -> quick:bool -> 'r;
      print : Format.formatter -> 'r -> unit;
      json : 'r -> Satin_obs.Json.t;
      views : (string * string * (Format.formatter -> 'r -> unit)) list;
    }
      -> spec

(** Every fan-out below is expressed as a pure trial body — a function of the
    experiment seed and a [trial_index] that builds its own scenario/PRNG from
    a derived seed — routed through a {!Runner.t}. [?pool] defaults to
    {!Runner.sequential}; passing a parallel pool changes wall-clock time
    only, never results: trial [i] is seeded identically whichever domain
    runs it and results are merged in submission order. *)

(** {1 E1 — world-switch latency (§IV-B1)} *)

type e1_result = { e1_a53 : Stats.t; e1_a57 : Stats.t; e1_runs : int }

val run_e1 : ?pool:Runner.t -> ?seed:int -> ?runs:int -> unit -> e1_result
val print_e1 : Format.formatter -> e1_result -> unit

(** {1 Table I — secure-world introspection time per byte} *)

type table1_row = {
  t1_core : Cycle_model.core_type;
  t1_hash : Stats.t; (** per-byte direct-hash cost, s *)
  t1_snapshot : Stats.t; (** per-byte snapshot cost, s *)
}

type table1_result = { t1_rows : table1_row list; t1_verified_clean : bool }

val run_table1 :
  ?pool:Runner.t -> ?seed:int -> ?runs:int -> unit -> table1_result

val print_table1 : Format.formatter -> table1_result -> unit

(** {1 E3 — attacker recovery time (§IV-B2)} *)

type e3_result = { e3_a53 : Stats.t; e3_a57 : Stats.t }

val run_e3 : ?pool:Runner.t -> ?seed:int -> ?runs:int -> unit -> e3_result
val print_e3 : Format.formatter -> e3_result -> unit

(** {1 E2b — user-level prober responsiveness (§III-B1)} *)

type uprober_result = {
  up_delays : Stats.t;
      (** seconds from a probing-round boundary (with a kernel check already
          holding a core) to the user-level prober's report; the paper
          measures [Tns_delay] < 5.97×10⁻³ s at 8 s rounds *)
  up_trials : int;
  up_detected : int;
  up_check_duration_s : float;
      (** one full-kernel integrity check on an A57 core — the paper's
          8.04×10⁻² s comparison point *)
}

val run_uprober :
  ?pool:Runner.t -> ?seed:int -> ?trials:int -> unit -> uprober_result

val print_uprober : Format.formatter -> uprober_result -> unit

(** {1 Table II / Figure 4 — probing threshold vs probing period} *)

type table2_row = { t2_period_s : float; t2_thresholds : Stats.t }

type table2_result = { t2_rows : table2_row list; t2_rounds : int }

val run_table2 :
  ?pool:Runner.t ->
  ?seed:int ->
  ?rounds:int ->
  ?periods_s:float list ->
  unit ->
  table2_result

val print_table2 : Format.formatter -> table2_result -> unit
val print_fig4 : Format.formatter -> table2_result -> unit

(** {1 E6 — single-core vs all-core probing} *)

type e6_result = {
  e6_all_avg : float;
  e6_single_avg : float;
  e6_ratio : float; (** single / all (paper: ≈ 1/4) *)
}

val run_e6 : ?pool:Runner.t -> ?seed:int -> ?rounds:int -> unit -> e6_result
val print_e6 : Format.formatter -> e6_result -> unit

(** {1 E7 — race-condition analysis (§IV-C)} *)

type e7_result = {
  e7_params : Race.params;
  e7_s_bound : int;
  e7_kernel_size : int;
  e7_unprotected : float;
}

val run_e7 : unit -> e7_result
val print_e7 : Format.formatter -> e7_result -> unit

(** {1 E8 — TZ-Evader vs existing (PKM-style) introspection} *)

type e8_campaign = {
  e8_rounds : int; (** full-kernel scans performed *)
  e8_detections : int;
  e8_evasions : int; (** completed hides *)
  e8_uptime_fraction : float; (** attack collection time / wall time *)
  e8_reaction : Stats.t; (** world-entry → hide-complete, s *)
}

type e8_result = {
  e8_deep : e8_campaign; (** GETTID, ~45% into the image — evades *)
  e8_shallow : e8_campaign; (** IRQ vector, start of image — caught *)
}

val run_e8 :
  ?pool:Runner.t -> ?seed:int -> ?duration_s:int -> unit -> e8_result

val print_e8 : Format.formatter -> e8_result -> unit

(** {1 E9 — area partition (§VI-A2)} *)

type e9_result = {
  e9_count : int;
  e9_total : int;
  e9_max : int;
  e9_min : int;
  e9_bound : int;
  e9_all_below_bound : bool;
  e9_greedy_count : int; (** areas produced by the general greedy partition *)
  e9_syscall_area : int; (** canonical area holding sys_call_table (paper: 14) *)
}

val run_e9 : unit -> e9_result
val print_e9 : Format.formatter -> e9_result -> unit

(** {1 E10 — SATIN defeating TZ-Evader (§VI-B1)} *)

type e10_result = {
  e10_rounds : int; (** analysed rounds (paper: 190) *)
  e10_full_passes : int; (** paper: 10 *)
  e10_area14_checks : int; (** paper: 10 *)
  e10_area14_detections : int; (** paper: 10 — every check catches it *)
  e10_area14_gap_mean_s : float; (** paper: ~141 s *)
  e10_full_pass_time_s : float; (** paper: ~152 s *)
  e10_prober_reported : int; (** rounds the attacker's prober noticed *)
  e10_false_negatives : int; (** rounds missed by the prober *)
  e10_false_positives : int; (** probe alarms with no secure entry *)
  e10_evasions_attempted : int;
  e10_evasions_succeeded : int; (** hides completing before the scan front *)
}

val run_e10 :
  ?seed:int ->
  ?target_rounds:int ->
  ?probe_period_us:int ->
  unit ->
  e10_result
(** [probe_period_us] defaults to 500 (paper: 200). It must stay well below
    the smallest area's scan time (~2.9 ms on an A57) or short rounds can
    fall inside the prober's blind spot and produce attacker-side false
    negatives — an artifact of slowing the prober down for simulation
    speed, not of the defense. *)

val print_e10 : Format.formatter -> e10_result -> unit

(** {1 Figure 7 — SATIN overhead on UnixBench} *)

type fig7_row = {
  f7_program : string;
  f7_deg_1task : float; (** percent degradation, 1 copy *)
  f7_deg_6task : float; (** percent degradation, 6 copies *)
}

type fig7_result = {
  f7_rows : fig7_row list;
  f7_avg_1task : float;
  f7_avg_6task : float;
}

val run_fig7 :
  ?pool:Runner.t -> ?seed:int -> ?window_s:int -> unit -> fig7_result

val print_fig7 : Format.formatter -> fig7_result -> unit

(** {1 E12 — the Figure 3 race timeline} *)

val print_timeline : Format.formatter -> Race.params -> unit

(** {1 Ablation — which SATIN randomization defeats which attacker} *)

type ablation_row = {
  ab_label : string;
  ab_area14_checks : int;
  ab_area14_detections : int;
  ab_attack_uptime : float; (** fraction of wall time the hijack is live *)
}

type ablation_result = { ab_rows : ablation_row list }

val run_ablation :
  ?pool:Runner.t -> ?seed:int -> ?passes:int -> unit -> ablation_result

val print_ablation : Format.formatter -> ablation_result -> unit

(** {1 E13 — cross-view detection of DKOM hiding (beyond the paper)} *)

type e13_result = {
  e13_checks : int; (** cross-view passes performed *)
  e13_detections : int; (** passes that saw the hidden process *)
  e13_relinks : int;
      (** attacker's evasive relinks — expect 0: the whole secure residency
          of a cross-view pass is far below the probing threshold, so the
          CPU side channel never fires *)
  e13_walk_cost : Stats.t; (** walk durations, s *)
  e13_hidden_fraction : float;
      (** fraction of wall time the process stayed hidden from tasks-list
          tools — the attack still "works" against userland, only the
          introspection sees through it *)
}

val run_e13 : ?seed:int -> ?checks:int -> unit -> e13_result
val print_e13 : Format.formatter -> e13_result -> unit

(** {1 E14 — SATIN vs the cache-occupancy side channel (§VI-C2)} *)

type e14_result = {
  e14_rounds : int;
  e14_area14_checks : int;
  e14_area14_detections : int; (** expect all of them, as with KProber *)
  e14_reaction : Stats.t;
      (** entry→hidden, s — roughly 3× faster than the availability channel
          (no 1.8 ms threshold to wait out), yet still slower than the scan
          front's ~2–3 ms to the tampered bytes *)
  e14_false_alarms : int; (** benign evictions the channel cannot filter *)
  e14_wasted_hides : int; (** hides spent chasing noise *)
  e14_uptime_fraction : float;
}

val run_e14 : ?seed:int -> ?passes:int -> unit -> e14_result
val print_e14 : Format.formatter -> e14_result -> unit

(** {1 Tgoal sweep — the coverage/overhead tradeoff (beyond the paper)} *)

type sweep_row = {
  sw_tp_s : float; (** round period tp *)
  sw_tgoal_s : float; (** full-coverage horizon m·tp *)
  sw_detect_latency : Stats.t;
      (** seconds from arming the evading rootkit to SATIN's first alarm *)
  sw_overhead_pct : float;
      (** file-copy-256 (worst-case workload) degradation at this cadence *)
}

type sweep_result = { sw_rows : sweep_row list }

val run_tgoal_sweep :
  ?pool:Runner.t ->
  ?seed:int ->
  ?trials:int ->
  ?tps_s:float list ->
  unit ->
  sweep_result
(** For each tp, measures mean time-to-first-alarm against a TZ-Evader-
    protected rootkit armed at t = 0, and the worst-case workload overhead
    at the same cadence. Defaults: 4 trials, tp ∈ {0.5, 1, 2, 4} s. *)

val print_tgoal_sweep : Format.formatter -> sweep_result -> unit

(** {1 Fault injection — detection rate per fault plan (beyond the paper)} *)

type fault_trial = {
  ft_detected : bool;
  ft_latency_s : float option;
      (** rootkit arm → first alarmed round's wake-up, seconds *)
  ft_rounds : int; (** rounds SATIN completed inside the window *)
  ft_faults : int; (** perturbations applied: drops+delays+spikes+flips *)
}

val fault_campaign_trial :
  seed:int -> window_s:int -> Satin_inject.Fault_plan.t -> fault_trial
(** One campaign: injector installed first (so the very first secure-timer
    arms pass the fault hooks), SATIN at [tp] = 1 s, a persistent GETTID
    rootkit armed after enrollment, [window_s] simulated seconds. *)

(** One row per plan, [trials] campaigns each. *)
type 'k fault_row = {
  fp_key : 'k;
      (** the plan: itself for [inject], its timer-drop probability for
          [degrade] *)
  fp_trials : int;
  fp_detected : int; (** trials in which SATIN raised at least one alarm *)
  fp_latency : Stats.t; (** time to first alarm, s, over detected trials *)
  fp_rounds : float; (** mean rounds completed *)
  fp_faults : float;
      (** mean perturbations applied ([degrade]: secure-timer arms
          swallowed) *)
}

type 'k fault_result = { fp_rows : 'k fault_row list; fp_window_s : int }
type inject_result = Satin_inject.Fault_plan.t fault_result

val run_inject :
  ?pool:Runner.t ->
  ?seed:int ->
  ?trials:int ->
  ?window_s:int ->
  ?plans:Satin_inject.Fault_plan.t list ->
  unit ->
  inject_result
(** Defaults: 4 trials per plan, 30 s window,
    {!Satin_inject.Fault_plan.catalogue}. *)

val print_inject : Format.formatter -> inject_result -> unit

(** {1 Graceful degradation — detection vs timer-drop severity} *)

type degrade_result = float fault_result

val run_degrade :
  ?pool:Runner.t ->
  ?seed:int ->
  ?trials:int ->
  ?window_s:int ->
  ?drop_probs:float list ->
  unit ->
  degrade_result
(** Defaults: 4 trials per severity, 30 s window, drop probabilities
    [0.0; 0.2; 0.4; 0.6]; probability 0 runs the clean control plan. *)

val print_degrade : Format.formatter -> degrade_result -> unit

(** {1 Fleet — per-device detection/overhead sweep}

    A deployment-scale campaign: [devices] simulated Junos, each with its
    own PRNG stream, running SATIN under one of eight classes (probing
    cadence 0.5/1/2/4 s × randomizations all-on/all-off) against a
    persistent rootkit and the worst-case UnixBench workload. Device [i]'s
    class is [i mod 8] and its seed [derive seed i] — the population is a
    pure function of the index, so growing the fleet (or sweeping it with
    [campaign --shard]) only appends devices and reuses every stored
    per-device record. *)

type fleet_row = {
  fr_tp_s : float;
  fr_randomized : bool;
  fr_devices : int;
  fr_detected : int;
  fr_latency : Stats.t;
  fr_rounds : float; (** mean rounds completed per device *)
  fr_overhead_pct : float; (** vs the fleet-wide no-SATIN baseline *)
}

type fleet_result = {
  fl_rows : fleet_row list;
  fl_devices : int;
  fl_window_s : int;
  fl_baseline : float; (** mean no-SATIN workload score *)
  fl_detected : int; (** devices that alarmed, fleet-wide *)
  fl_latency : Stats.t; (** fleet-wide time to first alarm *)
}

val run_fleet :
  ?pool:Runner.t ->
  ?seed:int ->
  ?devices:int ->
  ?window_s:int ->
  unit ->
  fleet_result
(** Defaults: 240 devices, 20 s window. [devices] is not part of the trial
    keys — only the per-device class and window are — so any two fleets
    of the same seed/window share their common prefix of records. *)

val print_fleet : Format.formatter -> fleet_result -> unit

(** {1 Cache fidelity — prober mode x replacement policy x AutoLock}

    The side-channel grid over the modeled L1/L2 hierarchy
    ({!Satin_cache.Cache}): every combination of prober fidelity
    ({!Satin_attack.Cache_prober.fidelity}), replacement policy and the
    AutoLock toggle runs the full stack — a scan driver streaming a 2 MiB
    kernel range through core 1 at randomized intervals, per-core CFS
    spinners for benign footprint noise, and the prober watching from the
    cluster's first core. Ground truth comes from the driver's own scan
    intervals. Plus a cachetrace-style hit-rate validation table for the
    hierarchy itself. *)

type cache_row = {
  cr_fidelity : Satin_attack.Cache_prober.fidelity;
  cr_policy : Satin_cache.Policy.kind;
  cr_autolock : bool;
  cr_trials : int;
  cr_scans : int;
  cr_detected : int;
  cr_alarms : int;
  cr_false_alarms : int;
}

type cache_validation_row = {
  cv_name : string;
  cv_bytes : int;
  cv_l1_rate : float; (** steady-state fraction of accesses served by L1 *)
  cv_l2_rate : float;
  cv_mem_rate : float;
}

type cache_fidelity_result = {
  cf_rows : cache_row list;
  cf_validation : cache_validation_row list;
  cf_trials : int;
  cf_window_s : int;
}

val run_cache_fidelity :
  ?pool:Runner.t ->
  ?seed:int ->
  ?trials:int ->
  ?window_s:int ->
  unit ->
  cache_fidelity_result
(** Defaults: 2 trials per cell, 10 s windows. The cell's fidelity mode and
    full cache configuration are part of every trial's store key. *)

val print_cache_fidelity : Format.formatter -> cache_fidelity_result -> unit

(** {1 The specs} *)

val specs : spec list
(** Every section's spec, in paper (campaign) order: the order of
    [satin_cli all] and of [satin_cli --help]'s commands. *)
