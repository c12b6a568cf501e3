module Prng = Satin_engine.Prng
module Sim_time = Satin_engine.Sim_time

type core_type = A53 | A57

let core_type_to_string = function A53 -> "A53" | A57 -> "A57"
let pp_core_type fmt c = Format.pp_print_string fmt (core_type_to_string c)

let equal_core_type a b =
  match a, b with
  | A53, A53 | A57, A57 -> true
  | A53, A57 | A57, A53 -> false

type triple = { t_min : float; t_avg : float; t_max : float }

let triple ~min_s ~avg_s ~max_s =
  if not (min_s <= avg_s && avg_s <= max_s) then
    invalid_arg "Cycle_model.triple: need min <= avg <= max";
  { t_min = min_s; t_avg = avg_s; t_max = max_s }

(* Triangular distribution on [t_min, t_max] with mode solved from the mean:
   mean = (min + mode + max) / 3, hence mode = 3*avg - min - max, clamped to
   the support when the reported triple is too skewed for a triangular law. *)
let mode_of t =
  Float.min t.t_max (Float.max t.t_min ((3.0 *. t.t_avg) -. t.t_min -. t.t_max))

let sample prng t =
  if t.t_max = t.t_min then t.t_avg
  else Prng.triangular prng ~low:t.t_min ~mode:(mode_of t) ~high:t.t_max

let sample_time prng t = Sim_time.of_sec_f (sample prng t)

type t = {
  hash_1byte : core_type -> triple;
  snapshot_1byte : core_type -> triple;
  world_switch : core_type -> triple;
  recover_8bytes : core_type -> triple;
  cross_read_delay : triple;
  cross_read_tail : triple;
  cross_read_tail_rate_hz : float;
  tick_hz : int;
  rt_sleep : float;
  l1_hit : triple;
  l2_hit : triple;
  cache_miss : triple;
}

let hash_a53 = triple ~min_s:9.23e-9 ~avg_s:1.07e-8 ~max_s:1.14e-8
let hash_a57 = triple ~min_s:6.67e-9 ~avg_s:6.71e-9 ~max_s:7.50e-9
let snap_a53 = triple ~min_s:9.24e-9 ~avg_s:1.08e-8 ~max_s:1.57e-8
let snap_a57 = triple ~min_s:6.67e-9 ~avg_s:6.75e-9 ~max_s:7.83e-9

(* §IV-B1: dispatcher latency 2.38–3.60 µs, "similar" on A53 and A57. *)
let switch_any = triple ~min_s:2.38e-6 ~avg_s:2.95e-6 ~max_s:3.60e-6

(* §IV-B2: average recovery 5.80 ms (A53) / 4.96 ms (A57); §IV-C uses
   6.13 ms as the worst observed case. *)
let recover_a53 = triple ~min_s:5.42e-3 ~avg_s:5.80e-3 ~max_s:6.13e-3
let recover_a57 = triple ~min_s:4.58e-3 ~avg_s:4.96e-3 ~max_s:5.34e-3

let default =
  {
    hash_1byte = (function A53 -> hash_a53 | A57 -> hash_a57);
    snapshot_1byte = (function A53 -> snap_a53 | A57 -> snap_a57);
    world_switch = (fun _ -> switch_any);
    recover_8bytes = (function A53 -> recover_a53 | A57 -> recover_a57);
    (* Common-case cross-core gap: sub-tick skew, ~1e-4 s scale (Table II's
       8 s-period minimum is 1.07e-4 s). *)
    cross_read_delay = triple ~min_s:0.9e-4 ~avg_s:1.9e-4 ~max_s:3.6e-4;
    (* Rare abnormal delay, observed up to ~1.3e-3 s and up to 1.77e-3 s in
       the combined threshold. *)
    cross_read_tail = triple ~min_s:4.0e-4 ~avg_s:9.0e-4 ~max_s:1.45e-3;
    cross_read_tail_rate_hz = 0.004;
    tick_hz = 250;
    rt_sleep = 2.0e-4;
    (* Load-to-use latencies by serving level, ARMageddon-scale: ~4 ns for
       an L1 hit, ~20 ns for an L2 hit, ~140 ns for DRAM — the same 20/140
       split the abstract cache prober already thresholds on. *)
    l1_hit = triple ~min_s:3.0e-9 ~avg_s:4.0e-9 ~max_s:6.0e-9;
    l2_hit = triple ~min_s:1.6e-8 ~avg_s:2.0e-8 ~max_s:2.6e-8;
    cache_miss = triple ~min_s:1.1e-7 ~avg_s:1.4e-7 ~max_s:1.8e-7;
  }

let load_latency prng t ~level =
  sample prng
    (match level with
    | 0 -> t.l1_hit
    | 1 -> t.l2_hit
    | _ -> t.cache_miss)

let smm_switch = triple ~min_s:2.4e-5 ~avg_s:3.0e-5 ~max_s:3.6e-5

let smm_like =
  {
    default with
    hash_1byte = (fun _ -> hash_a57);
    snapshot_1byte = (fun _ -> snap_a57);
    world_switch = (fun _ -> smm_switch);
    recover_8bytes = (fun _ -> recover_a57);
  }

let cross_staleness_mean ~period_s =
  let base = 2.61e-4 and slope = 1.105e-4 in
  Float.max 6e-5 (base +. (slope *. log (period_s /. 8.0)))

(* The prober's per-round threshold is the max over one staleness sample per
   reported core (the board caches one draw per target per round); dividing
   the target mean by an empirical max-of-n factor keeps the observed
   average of round maxima on Table II's curve. *)
let max_of_n_adjust = 2.0

type staleness_law = { median : float; p_tail : float; tail : triple }

let staleness_law t ~period_s =
  {
    median = cross_staleness_mean ~period_s /. max_of_n_adjust;
    p_tail =
      Float.min 0.02
        (t.cross_read_tail_rate_hz
        +. (0.002 *. log (Float.max 1.0 (period_s /. 8.0))));
    tail = t.cross_read_tail;
  }

let sample_staleness prng law =
  let common = law.median *. Prng.lognormal prng ~mu:0.0 ~sigma:0.55 in
  if Prng.bernoulli prng law.p_tail then common +. sample prng law.tail
  else common

let per_byte_duration prng t ~bytes =
  if bytes < 0 then invalid_arg "Cycle_model.per_byte_duration: negative size";
  let rate = sample prng t in
  Sim_time.of_sec_f (rate *. float_of_int bytes)
