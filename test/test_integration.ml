(* End-to-end campaigns: the paper's headline results at reduced scale. *)

module Scenario = Satin.Scenario
module Experiment = Satin.Experiment
module Race = Satin.Race
open Satin_engine
module Satin_def = Satin_introspect.Satin
module Round = Satin_introspect.Round
module Baseline = Satin_introspect.Baseline
module Kprober = Satin_attack.Kprober
module Evader = Satin_attack.Evader
module Rootkit = Satin_attack.Rootkit

(* E8 at reduced scale: TZ-Evader defeats a PKM-style random full scan. *)
let test_evader_beats_baseline () =
  let s = Scenario.create ~seed:71 () in
  let b =
    Scenario.install_baseline s
      { Baseline.timing = Baseline.Random_period (Sim_time.s 4);
        core_choice = Baseline.Random_core }
  in
  let ev =
    Evader.deploy s.Scenario.kernel
      { Evader.default_config with
        prober = { Kprober.default_config with period = Sim_time.us 500 } }
  in
  Evader.start ev;
  Scenario.run_for s (Sim_time.s 60);
  Baseline.stop b;
  Evader.stop ev;
  Alcotest.(check bool) "rounds ran" true (Baseline.rounds_count b >= 8);
  Alcotest.(check int) "zero detections: evasion wins" 0 (Baseline.detections b);
  Alcotest.(check bool) "attack uptime > 95%" true
    (Sim_time.to_sec_f (Rootkit.attack_uptime (Evader.rootkit ev)) > 57.0)

(* E10 at reduced scale: SATIN defeats the same evader. *)
let test_satin_beats_evader () =
  let s = Scenario.create ~seed:72 () in
  let satin =
    Scenario.install_satin s
      ~config:{ Satin_def.default_config with Satin_def.t_goal = Sim_time.s 38 } ()
  in
  let ev =
    Evader.deploy s.Scenario.kernel
      { Evader.default_config with
        prober = { Kprober.default_config with period = Sim_time.us 500 } }
  in
  Evader.start ev;
  (* Two full passes: 38 rounds at tp = 2 s. *)
  Scenario.run_for s (Sim_time.s 85);
  Satin_def.stop satin;
  Evader.stop ev;
  let rounds = Satin_def.rounds satin in
  Alcotest.(check bool) "at least 2 passes" true (Satin_def.full_passes satin >= 2);
  let area14 = List.filter (fun r -> r.Round.area_index = 14) rounds in
  Alcotest.(check bool) "area 14 checked" true (List.length area14 >= 2);
  List.iter
    (fun r ->
      Alcotest.(check bool) "every area-14 check catches the hijack" true
        (Round.detected r))
    area14;
  (* The attacker did react every round — it just lost the race. *)
  Alcotest.(check bool) "evader kept hiding" true
    (Rootkit.hides (Evader.rootkit ev) >= List.length rounds - 2)

(* The prober reports every SATIN round (the §VI-B1 faithfulness claim). *)
let test_prober_faithful_against_satin () =
  let s = Scenario.create ~seed:73 () in
  let satin =
    Scenario.install_satin s
      ~config:{ Satin_def.default_config with Satin_def.t_goal = Sim_time.s 19 } ()
  in
  let prober = Kprober.deploy s.Scenario.kernel Kprober.default_config in
  Scenario.run_for s (Sim_time.s 40);
  Satin_def.stop satin;
  let rounds = Satin_def.rounds satin in
  let detections = Kprober.detections prober in
  Kprober.retire prober;
  Alcotest.(check bool) "rounds happened" true (List.length rounds >= 30);
  (* Every round matched by a detection within 50 ms. *)
  List.iter
    (fun r ->
      let s0 = Sim_time.to_sec_f r.Round.started in
      let matched =
        List.exists
          (fun d ->
            let dt = Sim_time.to_sec_f d.Kprober.det_time in
            dt >= s0 && dt <= s0 +. 0.05)
          detections
      in
      if not matched then Alcotest.failf "round at %.3f unreported" s0)
    rounds;
  (* No spurious detections. *)
  List.iter
    (fun d ->
      let dt = Sim_time.to_sec_f d.Kprober.det_time in
      let matched =
        List.exists
          (fun r ->
            let s0 = Sim_time.to_sec_f r.Round.started in
            dt >= s0 && dt <= s0 +. 0.05)
          rounds
      in
      if not matched then Alcotest.failf "false positive at %.3f" dt)
    detections

(* Determinism: identical seeds give identical campaigns. *)
let test_campaign_deterministic () =
  let campaign seed =
    let s = Scenario.create ~seed () in
    let satin =
      Scenario.install_satin s
        ~config:{ Satin_def.default_config with Satin_def.t_goal = Sim_time.s 19 } ()
    in
    Scenario.run_for s (Sim_time.s 25);
    Satin_def.stop satin;
    List.map
      (fun r -> (r.Round.started, r.Round.core, r.Round.area_index))
      (Satin_def.rounds satin)
  in
  let a = campaign 99 and b = campaign 99 and c = campaign 100 in
  Alcotest.(check bool) "same seed, same campaign" true (a = b);
  Alcotest.(check bool) "different seed, different campaign" false (a = c)

(* The quick experiment runners end-to-end (smoke + invariants). *)
let test_run_e10_quick () =
  let r = Experiment.run_e10 ~seed:7 ~target_rounds:38 ~probe_period_us:1000 () in
  Alcotest.(check int) "rounds" 38 r.Experiment.e10_rounds;
  Alcotest.(check int) "passes" 2 r.Experiment.e10_full_passes;
  Alcotest.(check int) "area14 checks" 2 r.Experiment.e10_area14_checks;
  Alcotest.(check int) "area14 detections" 2 r.Experiment.e10_area14_detections;
  Alcotest.(check int) "prober FN" 0 r.Experiment.e10_false_negatives;
  Alcotest.(check int) "prober FP" 0 r.Experiment.e10_false_positives;
  Alcotest.(check int) "no evasions" 0 r.Experiment.e10_evasions_succeeded

let test_run_e7 () =
  let r = Experiment.run_e7 () in
  Alcotest.(check int) "S" 1_218_351 r.Experiment.e7_s_bound;
  Alcotest.(check bool) "~90%" true
    (Float.abs (r.Experiment.e7_unprotected -. 0.898) < 0.003)

let test_run_e9 () =
  let r = Experiment.run_e9 () in
  Alcotest.(check int) "19" 19 r.Experiment.e9_count;
  Alcotest.(check bool) "bound holds" true r.Experiment.e9_all_below_bound;
  Alcotest.(check int) "syscall area" 14 r.Experiment.e9_syscall_area

(* Table II's averages per probing period (§IV-B2). Seed 5 measures -6, +5,
   +6, +24 and +6 % against them; a staleness law that doubled or halved
   every draw falls outside the band. Maxima are not banded: one tail draw
   moves them (2.04e-3 at 120 s for this seed). *)
let table2_paper_avg =
  [
    (8.0, 2.61e-4); (16.0, 3.54e-4); (30.0, 4.21e-4); (120.0, 5.26e-4);
    (300.0, 6.61e-4);
  ]

let test_run_table2_quick () =
  let r = Experiment.run_table2 ~seed:5 ~rounds:50 () in
  let rows = r.Experiment.t2_rows in
  Alcotest.(check (list (float 0.0))) "the paper's five periods"
    (List.map fst table2_paper_avg)
    (List.map (fun row -> row.Experiment.t2_period_s) rows);
  let means =
    List.map2
      (fun row (period, paper) ->
        Alcotest.(check int) "50 rounds" 50
          (Stats.count row.Experiment.t2_thresholds);
        let m = Stats.mean row.Experiment.t2_thresholds in
        if Float.abs (m -. paper) > 0.3 *. paper then
          Alcotest.failf "%g s: average %.3e outside the paper's %.3e +- 30%%"
            period m paper;
        m)
      rows table2_paper_avg
  in
  let rec increasing = function
    | a :: (b :: _ as tl) -> a < b && increasing tl
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "longer period, larger average threshold" true
    (increasing means)

(* Table I's per-byte direct-hash averages (§V-A1). Seed 42 measures
   1.0587e-08 on the A53 and 6.9298e-09 on the A57, -1 % and +3 % against
   the paper; a hash cost scaled by 1.15 or 0.87 falls outside the +-10 %
   band. Snapshot-then-hash stays dearer than direct hashing on both
   cores, and a djb2 pass over the installed image matches its enrolled
   hash. *)
let table1_paper_hash_avg =
  [ (Satin_hw.Cycle_model.A53, 1.07e-08); (Satin_hw.Cycle_model.A57, 6.71e-09) ]

let test_run_table1 () =
  let r = Experiment.run_table1 ~seed:42 () in
  let rows = r.Experiment.t1_rows in
  Alcotest.(check int) "one row per core" 2 (List.length rows);
  List.iter2
    (fun row (core, paper) ->
      let name = Satin_hw.Cycle_model.core_type_to_string core in
      Alcotest.(check bool) (name ^ " row") true (row.Experiment.t1_core = core);
      let hash = Stats.mean row.Experiment.t1_hash in
      let snapshot = Stats.mean row.Experiment.t1_snapshot in
      if Float.abs (hash -. paper) > 0.1 *. paper then
        Alcotest.failf "%s: hash average %.4e outside the paper's %.3e +- 10%%"
          name hash paper;
      if not (snapshot > hash) then
        Alcotest.failf "%s: snapshot average %.4e not above hash average %.4e"
          name snapshot hash)
    rows table1_paper_hash_avg;
  Alcotest.(check bool) "quiescent image hashes to its enrolled value" true
    r.Experiment.t1_verified_clean

let test_run_e1_within_calibration () =
  let r = Experiment.run_e1 ~seed:3 () in
  let check_stats s =
    Alcotest.(check bool) "range" true
      (Stats.min s >= 2.38e-6 && Stats.max s <= 3.60e-6)
  in
  check_stats r.Experiment.e1_a53;
  check_stats r.Experiment.e1_a57

let test_run_e3_matches_paper_band () =
  let r = Experiment.run_e3 ~seed:3 ~runs:20 () in
  let a53 = Stats.mean r.Experiment.e3_a53 and a57 = Stats.mean r.Experiment.e3_a57 in
  Alcotest.(check bool) "A53 near 5.8ms" true (Float.abs (a53 -. 5.80e-3) < 3e-4);
  Alcotest.(check bool) "A57 near 4.96ms" true (Float.abs (a57 -. 4.96e-3) < 3e-4)

let suite =
  [
    Alcotest.test_case "evader beats baseline (E8)" `Slow test_evader_beats_baseline;
    Alcotest.test_case "satin beats evader (E10)" `Slow test_satin_beats_evader;
    Alcotest.test_case "prober faithful vs satin" `Slow test_prober_faithful_against_satin;
    Alcotest.test_case "campaign deterministic" `Slow test_campaign_deterministic;
    Alcotest.test_case "run_e10 quick" `Slow test_run_e10_quick;
    Alcotest.test_case "run_e7" `Quick test_run_e7;
    Alcotest.test_case "run_e9" `Quick test_run_e9;
    Alcotest.test_case "run_table2 quick" `Quick test_run_table2_quick;
    Alcotest.test_case "run_table1" `Quick test_run_table1;
    Alcotest.test_case "run_e1 calibration" `Quick test_run_e1_within_calibration;
    Alcotest.test_case "run_e3 band" `Quick test_run_e3_matches_paper_band;
  ]
