(* Smoke + invariant tests for the remaining experiment runners, and a
   multi-seed robustness check on the headline result. *)

module E = Satin.Experiment
open Satin_engine

let test_run_e8_quick () =
  let r = E.run_e8 ~seed:11 ~duration_s:60 () in
  (* Deep placement evades... *)
  Alcotest.(check bool) "scans ran" true (r.E.e8_deep.E.e8_rounds >= 4);
  Alcotest.(check int) "deep placement: zero detections" 0
    (r.E.e8_deep.E.e8_detections);
  Alcotest.(check bool) "uptime high" true (r.E.e8_deep.E.e8_uptime_fraction > 0.9);
  (* ...shallow placement is caught every round. *)
  Alcotest.(check int) "shallow placement: every scan detects"
    r.E.e8_shallow.E.e8_rounds r.E.e8_shallow.E.e8_detections;
  (* Realized hide time near the paper's 8.13 ms race budget. *)
  if not (Stats.is_empty r.E.e8_deep.E.e8_reaction) then begin
    let m = Stats.mean r.E.e8_deep.E.e8_reaction in
    if m < 6.5e-3 || m > 10.0e-3 then Alcotest.failf "reaction %g" m
  end

(* Fig. 7's shape (EXPERIMENTS.md): the two per-core-warm-state-bound
   programs near 4 %, everything else near or below 1 %. At seed 11 they
   measure 3.875 % and 3.947 %, the other ten 0.150-1.010 %, the mean
   1.065 %; seeds 42 and 7 give the same shape. The bands fail if every
   degradation doubles or halves. *)
let test_run_fig7_tiny () =
  let r = E.run_fig7 ~seed:11 ~window_s:6 () in
  Alcotest.(check int) "12 programs" 12 (List.length r.E.f7_rows);
  let within what lo hi v =
    if not (v >= lo && v <= hi) then
      Alcotest.failf "%s: %.3f %% outside [%.1f, %.1f] %%" what v lo hi
  in
  List.iter
    (fun row ->
      match row.E.f7_program with
      | "file_copy_256" | "context_switching" ->
          within row.E.f7_program 3.0 4.5 row.E.f7_deg_1task
      | name -> within name 0.0 1.2 row.E.f7_deg_1task)
    r.E.f7_rows;
  within "1-task mean" 0.7 1.4 r.E.f7_avg_1task

let test_run_uprober_quick () =
  let r = E.run_uprober ~seed:11 ~trials:6 () in
  Alcotest.(check int) "all checks seen" 6 r.E.up_detected;
  Alcotest.(check bool) "delay below the paper bound" true
    (Stats.max r.E.up_delays < 5.97e-3 +. 2.0e-3)

let test_run_e1_e6_seed_independence () =
  (* Different seeds draw different samples but stay inside calibration. *)
  let a = E.run_e1 ~seed:1 () and b = E.run_e1 ~seed:2 () in
  Alcotest.(check bool) "different draws" false
    (Stats.mean a.E.e1_a53 = Stats.mean b.E.e1_a53);
  (* The paper reports single-core / all-core ~ 1/4; seeds 1-5 and 42
     measure 0.21-0.27 at 50 rounds, seed 3 0.23. *)
  let e6 = E.run_e6 ~seed:3 ~rounds:50 () in
  let ratio = e6.E.e6_ratio in
  if not (ratio > 0.15 && ratio < 0.35) then
    Alcotest.failf "single/all threshold ratio %.3f outside (0.15, 0.35)" ratio

let test_run_ablation_quick () =
  let r = E.run_ablation ~seed:11 ~passes:1 () in
  (match r.E.ab_rows with
  | [ full_reactive; full_predictive; fixed_predictive; derand_aware ] ->
      Alcotest.(check bool) "full satin detects reactive" true
        (full_reactive.E.ab_area14_detections = full_reactive.E.ab_area14_checks);
      Alcotest.(check bool) "full satin detects predictive" true
        (full_predictive.E.ab_area14_detections >= 1);
      Alcotest.(check int) "fixed period evaded" 0
        fixed_predictive.E.ab_area14_detections;
      Alcotest.(check int) "derandomized evaded" 0 derand_aware.E.ab_area14_detections;
      Alcotest.(check bool) "area-aware attacker keeps more uptime" true
        (derand_aware.E.ab_attack_uptime > fixed_predictive.E.ab_attack_uptime)
  | _ -> Alcotest.fail "four ablation rows expected")

let test_run_sweep_tiny () =
  let r = E.run_tgoal_sweep ~seed:11 ~trials:2 ~tps_s:[ 1.0; 4.0 ] () in
  match r.E.sw_rows with
  | [ fast; slow ] ->
      Alcotest.(check bool) "faster cadence detects sooner" true
        (Stats.mean fast.E.sw_detect_latency < Stats.mean slow.E.sw_detect_latency);
      Alcotest.(check bool) "faster cadence costs more" true
        (fast.E.sw_overhead_pct > slow.E.sw_overhead_pct)
  | _ -> Alcotest.fail "two sweep rows expected"

(* The headline §VI-B1 outcome must not depend on the seed. *)
let test_e10_multi_seed () =
  List.iter
    (fun seed ->
      let r = E.run_e10 ~seed ~target_rounds:38 () in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: every area-14 check detects" seed)
        r.E.e10_area14_checks r.E.e10_area14_detections;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: no successful evasions" seed)
        0 r.E.e10_evasions_succeeded;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: no probe false negatives" seed)
        0 r.E.e10_false_negatives)
    [ 1; 7; 123 ]

let test_run_fleet_tiny () =
  let r = E.run_fleet ~seed:11 ~devices:4 ~window_s:6 () in
  Alcotest.(check int) "fleet size recorded" 4 r.E.fl_devices;
  (* 4 devices over 8 classes: only the first 4 classes have members. *)
  Alcotest.(check int) "one row per populated class" 4
    (List.length r.E.fl_rows);
  List.iter
    (fun row ->
      Alcotest.(check int) "one device per class" 1 row.E.fr_devices;
      Alcotest.(check bool) "rounds ran" true (row.E.fr_rounds > 0.0))
    r.E.fl_rows;
  Alcotest.(check bool) "baseline measured" true (r.E.fl_baseline > 0.0);
  (* Faster cadence costs more of the workload than slower — compared
     within the non-randomized classes, since randomization itself moves
     overhead and would confound a cross-class comparison. *)
  match List.filter (fun row -> not row.E.fr_randomized) r.E.fl_rows with
  | fastest :: rest when rest <> [] ->
      let slowest = List.nth rest (List.length rest - 1) in
      Alcotest.(check bool) "faster cadence completes more rounds" true
        (fastest.E.fr_rounds >= slowest.E.fr_rounds);
      Alcotest.(check bool) "cadence orders overhead" true
        (fastest.E.fr_overhead_pct >= slowest.E.fr_overhead_pct)
  | _ -> Alcotest.fail "need two non-randomized fleet rows"

let suite =
  [
    Alcotest.test_case "run_e8 quick" `Slow test_run_e8_quick;
    Alcotest.test_case "run_fleet tiny" `Slow test_run_fleet_tiny;
    Alcotest.test_case "run_fig7 tiny" `Slow test_run_fig7_tiny;
    Alcotest.test_case "run_uprober quick" `Slow test_run_uprober_quick;
    Alcotest.test_case "e1/e6 seed independence" `Quick test_run_e1_e6_seed_independence;
    Alcotest.test_case "run_ablation quick" `Slow test_run_ablation_quick;
    Alcotest.test_case "run_sweep tiny" `Slow test_run_sweep_tiny;
    Alcotest.test_case "e10 multi-seed robustness" `Slow test_e10_multi_seed;
  ]
