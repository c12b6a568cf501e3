open Satin_hw
open Satin_engine

let cycle = Cycle_model.default

let test_triple_validation () =
  (try
     ignore (Cycle_model.triple ~min_s:2.0 ~avg_s:1.0 ~max_s:3.0);
     Alcotest.fail "expected rejection"
   with Invalid_argument _ -> ());
  let t = Cycle_model.triple ~min_s:1.0 ~avg_s:2.0 ~max_s:3.0 in
  Alcotest.(check (float 0.0)) "avg kept" 2.0 t.Cycle_model.t_avg

let test_sample_within_support () =
  let prng = Prng.create 1 in
  let t = cycle.Cycle_model.hash_1byte Cycle_model.A53 in
  for _ = 1 to 10_000 do
    let x = Cycle_model.sample prng t in
    if x < t.Cycle_model.t_min || x > t.Cycle_model.t_max then
      Alcotest.failf "sample out of support: %g" x
  done

let test_sample_mean_matches_avg () =
  let prng = Prng.create 2 in
  let t = cycle.Cycle_model.recover_8bytes Cycle_model.A53 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Cycle_model.sample prng t
  done;
  let mean = !sum /. float_of_int n in
  let rel = Float.abs (mean -. t.Cycle_model.t_avg) /. t.Cycle_model.t_avg in
  if rel > 0.02 then Alcotest.failf "mean off by %.1f%%" (100.0 *. rel)

let test_degenerate_triple () =
  let prng = Prng.create 3 in
  let t = Cycle_model.triple ~min_s:5.0 ~avg_s:5.0 ~max_s:5.0 in
  Alcotest.(check (float 0.0)) "constant" 5.0 (Cycle_model.sample prng t)

let test_calibration_constants () =
  (* Spot-check the Table I / §IV-B calibration points. *)
  let h53 = cycle.Cycle_model.hash_1byte Cycle_model.A53 in
  Alcotest.(check (float 1e-12)) "A53 hash avg" 1.07e-8 h53.Cycle_model.t_avg;
  let h57 = cycle.Cycle_model.hash_1byte Cycle_model.A57 in
  Alcotest.(check (float 1e-12)) "A57 hash min" 6.67e-9 h57.Cycle_model.t_min;
  let sw = cycle.Cycle_model.world_switch Cycle_model.A53 in
  Alcotest.(check (float 1e-12)) "switch min" 2.38e-6 sw.Cycle_model.t_min;
  Alcotest.(check (float 1e-12)) "switch max" 3.60e-6 sw.Cycle_model.t_max;
  let r53 = cycle.Cycle_model.recover_8bytes Cycle_model.A53 in
  Alcotest.(check (float 1e-12)) "A53 recover avg" 5.80e-3 r53.Cycle_model.t_avg;
  Alcotest.(check (float 1e-12)) "A53 recover worst" 6.13e-3 r53.Cycle_model.t_max;
  Alcotest.(check int) "HZ within Linux range" 250 cycle.Cycle_model.tick_hz;
  Alcotest.(check (float 1e-12)) "Tsleep" 2.0e-4 cycle.Cycle_model.rt_sleep

let test_a57_faster_than_a53 () =
  let h53 = cycle.Cycle_model.hash_1byte Cycle_model.A53 in
  let h57 = cycle.Cycle_model.hash_1byte Cycle_model.A57 in
  Alcotest.(check bool) "big core faster" true
    (h57.Cycle_model.t_avg < h53.Cycle_model.t_avg)

let test_snapshot_dearer_than_hash () =
  List.iter
    (fun core ->
      let h = cycle.Cycle_model.hash_1byte core in
      let s = cycle.Cycle_model.snapshot_1byte core in
      Alcotest.(check bool) "snapshot >= hash on average" true
        (s.Cycle_model.t_avg >= h.Cycle_model.t_avg))
    [ Cycle_model.A53; Cycle_model.A57 ]

let test_per_byte_duration_scales () =
  let prng = Prng.create 4 in
  let t = cycle.Cycle_model.hash_1byte Cycle_model.A57 in
  let d = Cycle_model.per_byte_duration prng t ~bytes:1_000_000 in
  let s = Sim_time.to_sec_f d in
  if s < 1_000_000.0 *. t.Cycle_model.t_min || s > 1_000_000.0 *. t.Cycle_model.t_max
  then Alcotest.failf "duration out of range: %g" s;
  Alcotest.(check int) "zero bytes" 0
    (Cycle_model.per_byte_duration prng t ~bytes:0)

let test_staleness_mean_monotone_in_period () =
  let m8 = Cycle_model.cross_staleness_mean ~period_s:8.0 in
  let m30 = Cycle_model.cross_staleness_mean ~period_s:30.0 in
  let m300 = Cycle_model.cross_staleness_mean ~period_s:300.0 in
  Alcotest.(check bool) "monotone" true (m8 < m30 && m30 < m300);
  Alcotest.(check (float 1e-9)) "calibration point at 8s" 2.61e-4 m8;
  (* floor for very short periods *)
  Alcotest.(check (float 1e-9)) "floored" 6e-5
    (Cycle_model.cross_staleness_mean ~period_s:2e-4)

let test_staleness_samples_positive () =
  let prng = Prng.create 5 in
  let law = Cycle_model.staleness_law cycle ~period_s:8.0 in
  for _ = 1 to 10_000 do
    let x = Cycle_model.sample_staleness prng law in
    if x <= 0.0 then Alcotest.failf "non-positive staleness %g" x;
    if x > 3e-3 then Alcotest.failf "staleness beyond physical tail: %g" x
  done

let test_tail_rate_knob () =
  (* Setting the documented knob to zero suppresses the tail at short
     periods entirely. *)
  let quiet = { cycle with Cycle_model.cross_read_tail_rate_hz = 0.0 } in
  let law = Cycle_model.staleness_law quiet ~period_s:1.0 in
  let prng = Prng.create 6 in
  for _ = 1 to 20_000 do
    let x = Cycle_model.sample_staleness prng law in
    if x > 4.0e-4 then Alcotest.failf "tail fired with rate 0: %g" x
  done;
  (* A raised knob produces visibly more tails than the default. *)
  let count rate =
    let prng = Prng.create 7 in
    let c = { cycle with Cycle_model.cross_read_tail_rate_hz = rate } in
    let law = Cycle_model.staleness_law c ~period_s:1.0 in
    let n = ref 0 in
    for _ = 1 to 20_000 do
      if Cycle_model.sample_staleness prng law > 4.0e-4 then incr n
    done;
    !n
  in
  Alcotest.(check bool) "knob raises tail frequency" true (count 0.02 > count 0.004 * 2)

(* The per-draw formula as it stood before the law was hoisted out of the
   draw: the mean, the median and the tail probability recomputed each
   time. [tails] counts the draws that took the tail branch. *)
let reference_staleness prng (t : Cycle_model.t) ~period_s ~tails =
  let mean = Float.max 6e-5 (2.61e-4 +. (1.105e-4 *. log (period_s /. 8.0))) in
  let median = mean /. 2.0 in
  let common = median *. Prng.lognormal prng ~mu:0.0 ~sigma:0.55 in
  let p_tail =
    Float.min 0.02
      (t.Cycle_model.cross_read_tail_rate_hz
      +. (0.002 *. log (Float.max 1.0 (period_s /. 8.0))))
  in
  if Prng.bernoulli prng p_tail then begin
    incr tails;
    common +. Cycle_model.sample prng t.Cycle_model.cross_read_tail
  end
  else common

let test_staleness_law_matches_per_draw_formula () =
  let tail_heavy = { cycle with Cycle_model.cross_read_tail_rate_hz = 0.5 } in
  List.iter
    (fun (name, t, period_s) ->
      let law = Cycle_model.staleness_law t ~period_s in
      let prng = Prng.create 8 in
      let ref_prng = Prng.copy prng in
      let tails = ref 0 in
      for i = 1 to 20_000 do
        let got = Cycle_model.sample_staleness prng law in
        let want = reference_staleness ref_prng t ~period_s ~tails in
        if not (Float.equal got want) then
          Alcotest.failf "%s, draw %d: %h <> %h" name i got want
      done;
      if !tails = 0 then Alcotest.failf "%s: the tail branch never ran" name;
      Alcotest.(check int64)
        (name ^ ": streams stay in step")
        (Prng.next_int64 ref_prng) (Prng.next_int64 prng))
    [
      ("200 us", cycle, 2e-4);
      ("500 us", cycle, 5e-4);
      ("8 s", cycle, 8.0);
      ("120 s", cycle, 120.0);
      ("300 s", cycle, 300.0);
      ("200 us, tail rate capped at 0.02", tail_heavy, 2e-4);
    ]

let test_core_type_helpers () =
  Alcotest.(check string) "A53" "A53" (Cycle_model.core_type_to_string Cycle_model.A53);
  Alcotest.(check bool) "equal" true
    (Cycle_model.equal_core_type Cycle_model.A57 Cycle_model.A57);
  Alcotest.(check bool) "not equal" false
    (Cycle_model.equal_core_type Cycle_model.A57 Cycle_model.A53)

let suite =
  [
    Alcotest.test_case "triple validation" `Quick test_triple_validation;
    Alcotest.test_case "sample within support" `Quick test_sample_within_support;
    Alcotest.test_case "sample mean ~ avg" `Slow test_sample_mean_matches_avg;
    Alcotest.test_case "degenerate triple" `Quick test_degenerate_triple;
    Alcotest.test_case "calibration constants" `Quick test_calibration_constants;
    Alcotest.test_case "A57 faster" `Quick test_a57_faster_than_a53;
    Alcotest.test_case "snapshot dearer" `Quick test_snapshot_dearer_than_hash;
    Alcotest.test_case "per-byte duration" `Quick test_per_byte_duration_scales;
    Alcotest.test_case "staleness monotone" `Quick test_staleness_mean_monotone_in_period;
    Alcotest.test_case "staleness positive" `Quick test_staleness_samples_positive;
    Alcotest.test_case "tail rate knob" `Quick test_tail_rate_knob;
    Alcotest.test_case "staleness law = per-draw formula" `Quick
      test_staleness_law_matches_per_draw_formula;
    Alcotest.test_case "core type helpers" `Quick test_core_type_helpers;
  ]
