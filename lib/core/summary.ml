module Json = Satin_obs.Json
module Stats = Satin_engine.Stats
module Cycle_model = Satin_hw.Cycle_model

let identity () =
  Json.Obj
    [
      ("fingerprint", Json.String (Satin_store.Fingerprint.hex ()));
      ( "config_hash",
        Json.String
          (Digest.to_hex
             (Digest.string
                (Satin_store.Key.canonical (Satin_store.Key.ambient ())))) );
    ]

let stats (s : Stats.t) : Json.t =
  if Stats.is_empty s then Json.Obj [ ("count", Json.Int 0) ]
  else
    Json.Obj
      [
        ("count", Json.Int (Stats.count s));
        ("mean", Json.float (Stats.mean s));
        ("min", Json.float (Stats.min s));
        ("max", Json.float (Stats.max s));
        ("stddev", Json.float (Stats.stddev s));
        ("p50", Json.float (Stats.quantile s 0.50));
        ("p90", Json.float (Stats.quantile s 0.90));
        ("p99", Json.float (Stats.quantile s 0.99));
      ]

(* A JSON list with one object per element. *)
let rows f l = Json.List (List.map (fun x -> Json.Obj (f x)) l)

let e1 (r : Experiment.e1_result) =
  Json.Obj
    [
      ("runs", Json.Int r.Experiment.e1_runs);
      ("a53_switch_s", stats r.Experiment.e1_a53);
      ("a57_switch_s", stats r.Experiment.e1_a57);
    ]

let table1 (r : Experiment.table1_result) =
  Json.Obj
    [
      ( "rows",
        rows
          (fun (row : Experiment.table1_row) ->
            [
              ( "core",
                Json.String
                  (Cycle_model.core_type_to_string row.Experiment.t1_core)
              );
              ("hash_per_byte_s", stats row.Experiment.t1_hash);
              ("snapshot_per_byte_s", stats row.Experiment.t1_snapshot);
            ])
          r.Experiment.t1_rows );
      ("verified_clean", Json.Bool r.Experiment.t1_verified_clean);
    ]

let e3 (r : Experiment.e3_result) =
  Json.Obj
    [
      ("a53_recover_s", stats r.Experiment.e3_a53);
      ("a57_recover_s", stats r.Experiment.e3_a57);
    ]

let uprober (r : Experiment.uprober_result) =
  Json.Obj
    [
      ("delays_s", stats r.Experiment.up_delays);
      ("trials", Json.Int r.Experiment.up_trials);
      ("detected", Json.Int r.Experiment.up_detected);
      ("check_duration_s", Json.float r.Experiment.up_check_duration_s);
    ]

let table2 (r : Experiment.table2_result) =
  Json.Obj
    [
      ("rounds", Json.Int r.Experiment.t2_rounds);
      ( "rows",
        rows
          (fun (row : Experiment.table2_row) ->
            [
              ("period_s", Json.float row.Experiment.t2_period_s);
              ("thresholds_s", stats row.Experiment.t2_thresholds);
            ])
          r.Experiment.t2_rows );
    ]

let e6 (r : Experiment.e6_result) =
  Json.Obj
    [
      ("all_core_avg_s", Json.float r.Experiment.e6_all_avg);
      ("single_core_avg_s", Json.float r.Experiment.e6_single_avg);
      ("ratio", Json.float r.Experiment.e6_ratio);
    ]

let race_params (p : Race.params) =
  Json.Obj
    [
      ("ts_switch_s", Json.float p.Race.ts_switch);
      ("ts_1byte_s", Json.float p.Race.ts_1byte);
      ("tns_sched_s", Json.float p.Race.tns_sched);
      ("tns_threshold_s", Json.float p.Race.tns_threshold);
      ("tns_recover_s", Json.float p.Race.tns_recover);
    ]

let e7 (r : Experiment.e7_result) =
  Json.Obj
    [
      ("params", race_params r.Experiment.e7_params);
      ("s_bound_bytes", Json.Int r.Experiment.e7_s_bound);
      ("kernel_size_bytes", Json.Int r.Experiment.e7_kernel_size);
      ("unprotected_fraction", Json.float r.Experiment.e7_unprotected);
    ]

let e8_campaign (c : Experiment.e8_campaign) =
  Json.Obj
    [
      ("rounds", Json.Int c.Experiment.e8_rounds);
      ("detections", Json.Int c.Experiment.e8_detections);
      ("evasions", Json.Int c.Experiment.e8_evasions);
      ("uptime_fraction", Json.float c.Experiment.e8_uptime_fraction);
      ("reaction_s", stats c.Experiment.e8_reaction);
    ]

let e8 (r : Experiment.e8_result) =
  Json.Obj
    [
      ("deep", e8_campaign r.Experiment.e8_deep);
      ("shallow", e8_campaign r.Experiment.e8_shallow);
    ]

let e9 (r : Experiment.e9_result) =
  Json.Obj
    [
      ("area_count", Json.Int r.Experiment.e9_count);
      ("total_bytes", Json.Int r.Experiment.e9_total);
      ("max_area_bytes", Json.Int r.Experiment.e9_max);
      ("min_area_bytes", Json.Int r.Experiment.e9_min);
      ("bound_bytes", Json.Int r.Experiment.e9_bound);
      ("all_below_bound", Json.Bool r.Experiment.e9_all_below_bound);
      ("greedy_count", Json.Int r.Experiment.e9_greedy_count);
      ("syscall_area", Json.Int r.Experiment.e9_syscall_area);
    ]

let e10 (r : Experiment.e10_result) =
  Json.Obj
    [
      ("rounds", Json.Int r.Experiment.e10_rounds);
      ("full_passes", Json.Int r.Experiment.e10_full_passes);
      ("area14_checks", Json.Int r.Experiment.e10_area14_checks);
      ("area14_detections", Json.Int r.Experiment.e10_area14_detections);
      ("area14_gap_mean_s", Json.float r.Experiment.e10_area14_gap_mean_s);
      ("full_pass_time_s", Json.float r.Experiment.e10_full_pass_time_s);
      ("prober_reported", Json.Int r.Experiment.e10_prober_reported);
      ("false_negatives", Json.Int r.Experiment.e10_false_negatives);
      ("false_positives", Json.Int r.Experiment.e10_false_positives);
      ("evasions_attempted", Json.Int r.Experiment.e10_evasions_attempted);
      ("evasions_succeeded", Json.Int r.Experiment.e10_evasions_succeeded);
    ]

let fig7 (r : Experiment.fig7_result) =
  Json.Obj
    [
      ( "rows",
        rows
          (fun (row : Experiment.fig7_row) ->
            [
              ("program", Json.String row.Experiment.f7_program);
              ("degradation_1task_pct", Json.float row.Experiment.f7_deg_1task);
              ("degradation_6task_pct", Json.float row.Experiment.f7_deg_6task);
            ])
          r.Experiment.f7_rows );
      ("avg_1task_pct", Json.float r.Experiment.f7_avg_1task);
      ("avg_6task_pct", Json.float r.Experiment.f7_avg_6task);
    ]

let ablation (r : Experiment.ablation_result) =
  Json.Obj
    [
      ( "rows",
        rows
          (fun (row : Experiment.ablation_row) ->
            [
              ("label", Json.String row.Experiment.ab_label);
              ("area14_checks", Json.Int row.Experiment.ab_area14_checks);
              ( "area14_detections",
                Json.Int row.Experiment.ab_area14_detections );
              ("attack_uptime", Json.float row.Experiment.ab_attack_uptime);
            ])
          r.Experiment.ab_rows );
    ]

let e13 (r : Experiment.e13_result) =
  Json.Obj
    [
      ("checks", Json.Int r.Experiment.e13_checks);
      ("detections", Json.Int r.Experiment.e13_detections);
      ("relinks", Json.Int r.Experiment.e13_relinks);
      ("walk_cost_s", stats r.Experiment.e13_walk_cost);
      ("hidden_fraction", Json.float r.Experiment.e13_hidden_fraction);
    ]

let e14 (r : Experiment.e14_result) =
  Json.Obj
    [
      ("rounds", Json.Int r.Experiment.e14_rounds);
      ("area14_checks", Json.Int r.Experiment.e14_area14_checks);
      ("area14_detections", Json.Int r.Experiment.e14_area14_detections);
      ("reaction_s", stats r.Experiment.e14_reaction);
      ("false_alarms", Json.Int r.Experiment.e14_false_alarms);
      ("wasted_hides", Json.Int r.Experiment.e14_wasted_hides);
      ("uptime_fraction", Json.float r.Experiment.e14_uptime_fraction);
    ]

let cache_fidelity (r : Experiment.cache_fidelity_result) =
  Json.Obj
    [
      ("trials", Json.Int r.Experiment.cf_trials);
      ("window_s", Json.Int r.Experiment.cf_window_s);
      ( "rows",
        rows
          (fun (row : Experiment.cache_row) ->
            [
              ( "fidelity",
                Json.String
                  (Satin_attack.Cache_prober.fidelity_to_string
                     row.Experiment.cr_fidelity) );
              ( "policy",
                Json.String
                  (Satin_cache.Policy.kind_to_string
                     row.Experiment.cr_policy)
              );
              ("autolock", Json.Bool row.Experiment.cr_autolock);
              ("scans", Json.Int row.Experiment.cr_scans);
              ("detected", Json.Int row.Experiment.cr_detected);
              ("alarms", Json.Int row.Experiment.cr_alarms);
              ("false_alarms", Json.Int row.Experiment.cr_false_alarms);
            ])
          r.Experiment.cf_rows );
      ( "validation",
        rows
          (fun (row : Experiment.cache_validation_row) ->
            [
              ("workload", Json.String row.Experiment.cv_name);
              ("bytes", Json.Int row.Experiment.cv_bytes);
              ("l1_rate", Json.float row.Experiment.cv_l1_rate);
              ("l2_rate", Json.float row.Experiment.cv_l2_rate);
              ("mem_rate", Json.float row.Experiment.cv_mem_rate);
            ])
          r.Experiment.cf_validation );
    ]

let sweep (r : Experiment.sweep_result) =
  Json.Obj
    [
      ( "rows",
        rows
          (fun (row : Experiment.sweep_row) ->
            [
              ("tp_s", Json.float row.Experiment.sw_tp_s);
              ("tgoal_s", Json.float row.Experiment.sw_tgoal_s);
              ("detect_latency_s", stats row.Experiment.sw_detect_latency);
              ("overhead_pct", Json.float row.Experiment.sw_overhead_pct);
            ])
          r.Experiment.sw_rows );
    ]

let inject (r : Experiment.inject_result) =
  Json.Obj
    [
      ("window_s", Json.Int r.Experiment.inj_window_s);
      ( "rows",
        rows
          (fun (row : Experiment.inject_row) ->
            [
              ("plan", Json.String row.Experiment.inj_plan);
              ("trials", Json.Int row.Experiment.inj_trials);
              ("detected", Json.Int row.Experiment.inj_detected);
              ("first_alarm_s", stats row.Experiment.inj_latency);
              ("rounds_mean", Json.float row.Experiment.inj_rounds);
              ("faults_mean", Json.float row.Experiment.inj_faults);
            ])
          r.Experiment.inj_rows );
    ]

let degrade (r : Experiment.degrade_result) =
  Json.Obj
    [
      ("window_s", Json.Int r.Experiment.dg_window_s);
      ( "rows",
        rows
          (fun (row : Experiment.degrade_row) ->
            [
              ("drop_prob", Json.float row.Experiment.dg_drop_prob);
              ("trials", Json.Int row.Experiment.dg_trials);
              ("detected", Json.Int row.Experiment.dg_detected);
              ("first_alarm_s", stats row.Experiment.dg_latency);
              ("rounds_mean", Json.float row.Experiment.dg_rounds);
              ("drops_mean", Json.float row.Experiment.dg_drops);
            ])
          r.Experiment.dg_rows );
    ]

let fleet (r : Experiment.fleet_result) =
  Json.Obj
    [
      ("devices", Json.Int r.Experiment.fl_devices);
      ("window_s", Json.Int r.Experiment.fl_window_s);
      ("baseline_score", Json.float r.Experiment.fl_baseline);
      ("detected", Json.Int r.Experiment.fl_detected);
      ("first_alarm_s", stats r.Experiment.fl_latency);
      ( "rows",
        rows
          (fun (row : Experiment.fleet_row) ->
            [
              ("tp_s", Json.float row.Experiment.fr_tp_s);
              ("randomized", Json.Bool row.Experiment.fr_randomized);
              ("devices", Json.Int row.Experiment.fr_devices);
              ("detected", Json.Int row.Experiment.fr_detected);
              ("first_alarm_s", stats row.Experiment.fr_latency);
              ("rounds_mean", Json.float row.Experiment.fr_rounds);
              ("overhead_pct", Json.float row.Experiment.fr_overhead_pct);
            ])
          r.Experiment.fl_rows );
    ]

let timeline (p : Race.params) =
  Json.Obj
    [
      ("params", race_params p);
      ("s_bound_bytes", Json.Int (Race.s_bound p));
      ("hide_time_s", Json.float (Race.hide_time p));
      ("max_area_bytes", Json.Int (Race.max_area_size p));
    ]

let write_document file ~subcommands results =
  let doc =
    Json.Obj
      [
        ("schema", Json.String "satin-bench/v1");
        ("identity", identity ());
        ( "subcommands",
          Json.List (List.map (fun s -> Json.String s) subcommands) );
        ("results", Json.Obj results);
      ]
  in
  let oc = open_out_bin file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string doc ^ "\n"))
