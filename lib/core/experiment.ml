module Engine = Satin_engine.Engine
module Sim_time = Satin_engine.Sim_time
module Prng = Satin_engine.Prng
module Stats = Satin_engine.Stats
module Trace = Satin_engine.Trace
module Platform = Satin_hw.Platform
module Cpu = Satin_hw.Cpu
module Monitor = Satin_hw.Monitor
module Cycle_model = Satin_hw.Cycle_model
module Layout = Satin_kernel.Layout
module Hash = Satin_introspect.Hash
module Checker = Satin_introspect.Checker
module Areas = Satin_introspect.Area
module Satin_def = Satin_introspect.Satin
module Baseline = Satin_introspect.Baseline
module Round = Satin_introspect.Round
module Cache = Satin_cache.Cache
module Cache_policy = Satin_cache.Policy
module Kprober = Satin_attack.Kprober
module Cache_prober = Satin_attack.Cache_prober
module Rootkit = Satin_attack.Rootkit
module Evader = Satin_attack.Evader
module Unixbench = Satin_workload.Unixbench
module Fault_plan = Satin_inject.Fault_plan
module Injector = Satin_inject.Injector
module Runner = Satin_runner.Runner
module Memo = Satin_store.Memo
module Json = Satin_obs.Json

let sec = Sim_time.to_sec_f

(* Seed-derivation scheme for parallel trials: trial [i] of an experiment
   seeded [s] always runs from [Prng.derive s i], whatever domain executes
   it, so jobs=1 and jobs=N produce byte-identical reports. *)
let derive = Prng.derive

(* Every fan-out below goes through [Memo.map]: with no store installed it
   is exactly [Runner.map]; with one, resolved trials are served from disk
   and only misses hit the pool. The [~config] list must name every runtime
   parameter the trial body reads besides (seed, trial_index) — that list,
   canonically encoded, is what keeps two differently-parameterized trials
   from colliding in the store. *)
let keyf = Satin_store.Key.f

(* Every scenario below is built with [Scenario.with_]: the body returns
   plain values, and a scenario that leaks out of its trial raises instead
   of running on. *)

(* ------------------------------------------------------------------ *)
(* The spec every section below ends with                              *)
(* ------------------------------------------------------------------ *)

type kind = Seeded | Closed_form | Deployment

(* The existential keeps each result typed between its run, printers and
   encoder. A view is (command, doc, printer): another rendering of the
   same result, which [Registry.all] prints right after the spec without
   re-running it. *)
type spec =
  | Spec : {
      name : string;
      doc : string;
      kind : kind;
      run : pool:Runner.t -> seed:int -> quick:bool -> 'r;
      print : Format.formatter -> 'r -> unit;
      json : 'r -> Json.t;
      views : (string * string * (Format.formatter -> 'r -> unit)) list;
    }
      -> spec

(* Each [if quick] pair in a spec's run is the scale of [satin_cli
   campaign --quick] and of the paper run. *)
let spec ?(kind = Seeded) ?(views = []) name doc print json run =
  Spec { name; doc; kind; run; print; json; views }

(* Closed-form artifacts ignore the pool, the seed and the scale. *)
let closed name doc print json f =
  spec ~kind:Closed_form name doc print json (fun ~pool:_ ~seed:_ ~quick:_ ->
      f ())

(* ------------------------------------------------------------------ *)
(* Trial and table code several sections share                         *)
(* ------------------------------------------------------------------ *)

(* E1, E3, E6 and E8 are trials 0 and 1 of one fan-out. *)
let memo_pair pool ~experiment ~seed ~config trial =
  match Memo.map pool ~experiment ~seed ~config 2 trial with
  | [| a; b |] -> (a, b)
  | _ -> assert false

(* The three single-scenario campaigns (E10, E13, E14) have no trial
   fan-out to intercept, so each whole campaign is memoized as a one-trial
   batch on the sequential pool: same store key discipline, one record. *)
let memo_campaign ~experiment ~seed ~config body =
  match
    Memo.map Runner.sequential ~experiment ~seed ~config 1 (fun _ -> body ())
  with
  | [| r |] -> r
  | _ -> assert false

(* TZ-Evader on the scenario's kernel, started, its KProber probing every
   [period]; E8 moves the hijack with [target_addr]. *)
let start_evader ?target_addr scenario period =
  let evader =
    Evader.deploy scenario.Scenario.kernel
      {
        Evader.default_config with
        prober = { Kprober.default_config with period };
        target_addr;
      }
  in
  Evader.start evader;
  evader

(* The GETTID hijack lives in area 14 (E9): the rounds that checked it,
   and how many of them alarmed. *)
let area14_tally rounds =
  let checks = List.filter (fun r -> r.Round.area_index = 14) rounds in
  (checks, List.length (List.filter Round.detected checks))

let section fmt title = Format.pp_print_string fmt (Report.section title)
let table fmt ~header rows = Format.pp_print_string fmt (Report.table ~header rows)

(* A sample set's mean (or [f]) rendered by [show]; "n/a" when empty. *)
let stat_cell ?(f = Stats.mean) show s =
  if Stats.is_empty s then "n/a" else show (f s)

let secs x = Printf.sprintf "%.1f s" x
let fraction x = Printf.sprintf "%.1f%%" (100.0 *. x)

(* One row per labelled sample set: its Average, Max and Min. *)
let avg_max_min fmt first rows =
  table fmt
    ~header:[ first; "Average"; "Max"; "Min" ]
    (List.map
       (fun (label, s) ->
         [ label; Report.sci (Stats.mean s); Report.sci (Stats.max s);
           Report.sci (Stats.min s) ])
       rows)

(* A JSON list with one object per element. *)
let json_rows f l = Json.List (List.map (fun x -> Json.Obj (f x)) l)

(* ------------------------------------------------------------------ *)
(* E1 — world-switch latency                                           *)
(* ------------------------------------------------------------------ *)

type e1_result = { e1_a53 : Stats.t; e1_a57 : Stats.t; e1_runs : int }

(* Trial 0 samples the A53 cluster, trial 1 the A57 cluster, each on its own
   independently-seeded platform. *)
let e1_trial ~seed ~runs ~trial_index =
  let platform = Platform.juno_r1 ~seed:(derive seed trial_index) () in
  let core = if trial_index = 0 then 0 else 4 in
  let stats = Stats.create () in
  for _ = 1 to runs do
    Stats.add_time stats
      (Monitor.payload_start_delay platform.Platform.monitor
         ~cpu:(Platform.core platform core))
  done;
  stats

let run_e1 ?(pool = Runner.sequential) ?(seed = 42) ?(runs = 50) () =
  let e1_a53, e1_a57 =
    memo_pair pool ~experiment:"e1" ~seed
      ~config:[ ("runs", string_of_int runs) ]
      (fun i -> e1_trial ~seed ~runs ~trial_index:i)
  in
  { e1_a53; e1_a57; e1_runs = runs }

let print_e1 fmt r =
  section fmt
    (Printf.sprintf "E1: world-switch latency Ts_switch (%d runs, s)" r.e1_runs);
  avg_max_min fmt "Core" [ ("A53", r.e1_a53); ("A57", r.e1_a57) ];
  Format.fprintf fmt "paper: 2.38e-06 .. 3.60e-06 s on both core types@."

let e1_json r =
  Json.Obj
    [
      ("runs", Json.Int r.e1_runs);
      ("a53_switch_s", Summary.stats r.e1_a53);
      ("a57_switch_s", Summary.stats r.e1_a57);
    ]

let e1_spec =
  spec "e1" "World-switch latency (Sec IV-B1)" print_e1 e1_json
    (fun ~pool ~seed ~quick:_ -> run_e1 ~pool ~seed ())

(* ------------------------------------------------------------------ *)
(* Table I — per-byte introspection cost                               *)
(* ------------------------------------------------------------------ *)

type table1_row = {
  t1_core : Cycle_model.core_type;
  t1_hash : Stats.t;
  t1_snapshot : Stats.t;
}

type table1_result = { t1_rows : table1_row list; t1_verified_clean : bool }

(* Trial 0 = A53 row, trial 1 = A57 row, each from its own derived Prng. *)
let table1_trial ~seed ~runs ~trial_index =
  let core = if trial_index = 0 then Cycle_model.A53 else Cycle_model.A57 in
  let prng = Prng.create (derive seed trial_index) in
  let cycle = Cycle_model.default in
  let n = Layout.paper_total_size in
  let per_byte triple =
    let stats = Stats.create () in
    for _ = 1 to runs do
      let d = Cycle_model.per_byte_duration prng triple ~bytes:n in
      Stats.add stats (sec d /. float_of_int n)
    done;
    stats
  in
  {
    t1_core = core;
    t1_hash = per_byte (cycle.Cycle_model.hash_1byte core);
    t1_snapshot = per_byte (cycle.Cycle_model.snapshot_1byte core);
  }

let run_table1 ?(pool = Runner.sequential) ?(seed = 42) ?(runs = 50) () =
  let rows =
    Memo.map pool ~experiment:"table1" ~seed
      ~config:[ ("runs", string_of_int runs) ]
      2
      (fun i -> table1_trial ~seed ~runs ~trial_index:i)
  in
  (* Functional check: a real hash over the installed image matches its
     enrolled value on a quiescent system. *)
  let n = Layout.paper_total_size in
  Scenario.with_ ~seed @@ fun scenario ->
  let base = Layout.base scenario.Scenario.kernel.Satin_kernel.Kernel.layout in
  let enrolled = Checker.enroll scenario.Scenario.checker ~base ~len:n in
  let rehash =
    Hash.hash_region scenario.Scenario.platform.Platform.memory
      ~world:Satin_hw.World.Secure ~addr:base ~len:n
  in
  {
    t1_rows = Array.to_list rows;
    t1_verified_clean = Int64.equal enrolled rehash;
  }

let print_table1 fmt r =
  section fmt "Table I: secure world introspection time (s/byte)";
  let rows =
    List.concat_map
      (fun row ->
        let name = Cycle_model.core_type_to_string row.t1_core in
        [
          [ name ^ "-Average"; Report.sci (Stats.mean row.t1_hash);
            Report.sci (Stats.mean row.t1_snapshot) ];
          [ name ^ "-Max"; Report.sci (Stats.max row.t1_hash);
            Report.sci (Stats.max row.t1_snapshot) ];
          [ name ^ "-Min"; Report.sci (Stats.min row.t1_hash);
            Report.sci (Stats.min row.t1_snapshot) ];
        ])
      r.t1_rows
  in
  table fmt ~header:[ "Core-Time"; "Hash 1-Byte"; "Snapshot 1-byte" ] rows;
  Format.fprintf fmt
    "integrity check on quiescent image: %s@.paper: A53 hash avg 1.07e-08, A57 hash avg 6.71e-09; direct hash beats snapshot@."
    (if r.t1_verified_clean then "hash matches enrolled value" else "MISMATCH")

let table1_json r =
  Json.Obj
    [
      ( "rows",
        json_rows
          (fun row ->
            [
              ("core", Json.String (Cycle_model.core_type_to_string row.t1_core));
              ("hash_per_byte_s", Summary.stats row.t1_hash);
              ("snapshot_per_byte_s", Summary.stats row.t1_snapshot);
            ])
          r.t1_rows );
      ("verified_clean", Json.Bool r.t1_verified_clean);
    ]

let table1_spec =
  spec "table1" "Table I: per-byte introspection cost" print_table1 table1_json
    (fun ~pool ~seed ~quick:_ -> run_table1 ~pool ~seed ())

(* ------------------------------------------------------------------ *)
(* E3 — attacker recovery time                                         *)
(* ------------------------------------------------------------------ *)

type e3_result = { e3_a53 : Stats.t; e3_a57 : Stats.t }

let measure_recovery ~seed ~runs ~cleanup_core =
  Scenario.with_ ~seed @@ fun scenario ->
  let rootkit = Rootkit.create scenario.Scenario.kernel ~cleanup_core () in
  let stats = Stats.create () in
  Rootkit.arm rootkit;
  for _ = 1 to runs do
    Rootkit.start_hide rootkit ();
    Scenario.run_for scenario (Sim_time.ms 20);
    (match Rootkit.last_hide_duration rootkit with
    | Some d -> Stats.add_time stats d
    | None -> failwith "E3: hide did not complete");
    Rootkit.start_rearm rootkit ();
    Scenario.run_for scenario (Sim_time.ms 20)
  done;
  stats

(* Trial 0 cleans up on an A53, trial 1 on an A57; each campaign already
   builds its own scenario, so the bodies parallelize as-is. *)
let e3_trial ~seed ~runs ~trial_index =
  if trial_index = 0 then measure_recovery ~seed ~runs ~cleanup_core:0
  else measure_recovery ~seed:(seed + 1) ~runs ~cleanup_core:4

let run_e3 ?(pool = Runner.sequential) ?(seed = 42) ?(runs = 50) () =
  let e3_a53, e3_a57 =
    memo_pair pool ~experiment:"e3" ~seed
      ~config:[ ("runs", string_of_int runs) ]
      (fun i -> e3_trial ~seed ~runs ~trial_index:i)
  in
  { e3_a53; e3_a57 }

let print_e3 fmt r =
  section fmt "E3: attacker trace-recovery time Tns_recover (s)";
  avg_max_min fmt "Cleanup core" [ ("A53", r.e3_a53); ("A57", r.e3_a57) ];
  Format.fprintf fmt "paper: A53 avg 5.80e-03 s, A57 avg 4.96e-03 s@."

let e3_json r =
  Json.Obj
    [
      ("a53_recover_s", Summary.stats r.e3_a53);
      ("a57_recover_s", Summary.stats r.e3_a57);
    ]

let e3_spec =
  spec "e3" "Attacker recovery time (Sec IV-B2)" print_e3 e3_json
    (fun ~pool ~seed ~quick:_ -> run_e3 ~pool ~seed ())

(* ------------------------------------------------------------------ *)
(* E2b — user-level prober responsiveness (§III-B1)                    *)
(* ------------------------------------------------------------------ *)

type uprober_result = {
  up_delays : Stats.t;
  up_trials : int;
  up_detected : int;
  up_check_duration_s : float;
}

(* One trial: a fresh scenario with a busy fair scheduler, a deployed
   user-level prober, and a full-kernel check started 30 ms into a probing
   round on core [trial_index mod ncores] (the probe threads are mid-burst).
   Returns the entry→report delay (None if the prober missed or the core was
   unavailable) and, on A57 trials, the duration of the full-kernel check
   (the paper's 8.04e-2 s comparison point). *)
let uprober_trial ~seed ~trial_index =
  Scenario.with_ ~seed:(derive seed trial_index) @@ fun scenario ->
  let platform = scenario.Scenario.platform in
  let engine = Scenario.engine scenario in
  (* Background CFS load so the probe threads ride a busy fair scheduler. *)
  for core = 0 to Platform.ncores platform - 1 do
    ignore (Satin_kernel.Kernel.spawn_spinner scenario.Scenario.kernel ~core)
  done;
  let period = Satin_attack.Uprober.default_config.Satin_attack.Uprober.period in
  let prober =
    Satin_attack.Uprober.deploy scenario.Scenario.kernel
      Satin_attack.Uprober.default_config
  in
  let layout = scenario.Scenario.kernel.Satin_kernel.Kernel.layout in
  let kbase = Layout.base layout and klen = Layout.total_size layout in
  ignore (Checker.enroll scenario.Scenario.checker ~base:kbase ~len:klen);
  let core = trial_index mod Platform.ncores platform in
  let boundary =
    Sim_time.scale period (float_of_int ((Engine.now engine / period) + 2))
  in
  Engine.run_until engine (Sim_time.add boundary (Sim_time.ms 30));
  let cpu = Platform.core platform core in
  let result =
    if Cpu.in_secure cpu then (None, None)
    else begin
      let entry = Engine.now engine in
      Monitor.enter_secure platform.Satin_hw.Platform.monitor ~cpu
        ~payload:(fun () ->
          Checker.start_scan scenario.Scenario.checker ~engine ~core:cpu
            ~base:kbase ~len:klen
            ~on_verdict:(fun _ -> ()))
        ();
      (* Wait for the prober to flag this core (or give up after 1 s). *)
      let deadline = Sim_time.add boundary (Sim_time.s 1) in
      let rec wait () =
        if
          (not (Satin_attack.Uprober.suspected prober ~core))
          && Engine.now engine < deadline
        then begin
          Engine.run_until engine (Sim_time.add (Engine.now engine) (Sim_time.ms 1));
          wait ()
        end
      in
      wait ();
      let delay =
        Option.map
          (fun d -> sec (Sim_time.diff d.Kprober.det_time entry))
          (List.find_opt
             (fun d -> d.Kprober.det_core = core && d.Kprober.det_time >= entry)
             (Satin_attack.Uprober.detections prober))
      in
      let check_duration =
        if Cpu.core_type cpu = Cycle_model.A57 then begin
          Engine.run_until engine
            (Sim_time.add (Engine.now engine) (Sim_time.ms 200));
          match (Cpu.last_exit_time cpu, Cpu.last_entry_time cpu) with
          | Some ex, Some en -> Some (sec (Sim_time.diff ex en))
          | _ -> None
        end
        else None
      in
      (delay, check_duration)
    end
  in
  Satin_attack.Uprober.retire prober;
  result

let run_uprober ?(pool = Runner.sequential) ?(seed = 42) ?(trials = 20) () =
  (* No [~config]: a trial depends on (seed, trial_index) alone, so a
     20-trial campaign resumes the records of an earlier 6-trial one. *)
  let results =
    Memo.map pool ~experiment:"uprober" ~seed trials (fun i ->
        uprober_trial ~seed ~trial_index:i)
  in
  let delays = Stats.create () in
  let detected = ref 0 in
  let check_duration = ref 0.0 in
  Array.iter
    (fun (delay, dur) ->
      (match delay with
      | Some d ->
          incr detected;
          Stats.add delays d
      | None -> ());
      match dur with
      | Some d when !check_duration = 0.0 -> check_duration := d
      | _ -> ())
    results;
  {
    up_delays = delays;
    up_trials = trials;
    up_detected = !detected;
    up_check_duration_s = !check_duration;
  }

let print_uprober fmt r =
  section fmt "E2b: user-level prober responsiveness (Sec III-B1)";
  table fmt
    ~header:[ "Quantity"; "Measured"; "Paper" ]
    [
      [ "kernel checks probed";
        Printf.sprintf "%d / %d" r.up_detected r.up_trials; "detects" ];
      [ "entry -> user-prober report (avg s)"; stat_cell Report.sci r.up_delays;
        "< 5.97e-03" ];
      [ "report delay (max s)"; stat_cell ~f:Stats.max Report.sci r.up_delays;
        "< 5.97e-03" ];
      [ "one full-kernel check on an A57 (s)"; Report.sci r.up_check_duration_s;
        "8.04e-02" ];
    ];
  Format.fprintf fmt
    "the stealthy user-level prober comfortably outpaces a full-kernel check@."

let uprober_json r =
  Json.Obj
    [
      ("delays_s", Summary.stats r.up_delays);
      ("trials", Json.Int r.up_trials);
      ("detected", Json.Int r.up_detected);
      ("check_duration_s", Json.float r.up_check_duration_s);
    ]

let uprober_spec =
  spec "uprober" "User-level prober responsiveness (Sec III-B1)" print_uprober
    uprober_json (fun ~pool ~seed ~quick ->
      run_uprober ~pool ~seed ~trials:(if quick then 6 else 20) ())

(* ------------------------------------------------------------------ *)
(* Table II / Figure 4 — probing threshold                             *)
(* ------------------------------------------------------------------ *)

type table2_row = { t2_period_s : float; t2_thresholds : Stats.t }

type table2_result = { t2_rows : table2_row list; t2_rounds : int }

let measure_thresholds ~seed ~rounds ~period ~watched =
  Scenario.with_ ~seed @@ fun scenario ->
  let config =
    { Kprober.default_config with period; watched_cores = watched; threshold = infinity }
  in
  let prober = Kprober.deploy scenario.Scenario.kernel config in
  Kprober.set_record_lateness prober true;
  let warmup = 2 in
  Scenario.run_for scenario (Sim_time.scale period (float_of_int (rounds + warmup + 1)));
  Kprober.retire prober;
  (* Per probing round, the threshold is the largest lateness any comparer
     computed in that round (§IV-B2). *)
  let maxima = Hashtbl.create 64 in
  Trace.iter
    (fun time (_, lateness) ->
      let window = time / period in
      let cur = try Hashtbl.find maxima window with Not_found -> neg_infinity in
      if lateness > cur then Hashtbl.replace maxima window lateness)
    (Kprober.lateness_trace prober);
  let stats = Stats.create () in
  let windows = Hashtbl.fold (fun w v acc -> (w, v) :: acc) maxima [] in
  let windows = List.sort compare windows in
  List.iteri
    (fun i (_, v) -> if i >= warmup && i < warmup + rounds then Stats.add stats v)
    windows;
  stats

let default_periods = [ 8.0; 16.0; 30.0; 120.0; 300.0 ]

(* Each probing period is an independent trial: its own scenario, seeded
   [seed + 17 * trial_index] exactly as the sequential version always was, so
   pooled runs reproduce the sequential rows byte for byte. *)
let table2_trial ~seed ~rounds ~periods ~trial_index =
  let p = periods.(trial_index) in
  {
    t2_period_s = p;
    t2_thresholds =
      measure_thresholds
        ~seed:(seed + (17 * trial_index))
        ~rounds ~period:(Sim_time.of_sec_f p) ~watched:[];
  }

let run_table2 ?(pool = Runner.sequential) ?(seed = 42) ?(rounds = 50)
    ?(periods_s = default_periods) () =
  let periods = Array.of_list periods_s in
  let rows =
    Memo.map pool ~experiment:"table2" ~seed
      ~config:[ ("rounds", string_of_int rounds) ]
      ~trial_config:(fun i -> [ ("period_s", keyf periods.(i)) ])
      (Array.length periods)
      (fun i -> table2_trial ~seed ~rounds ~periods ~trial_index:i)
  in
  { t2_rows = Array.to_list rows; t2_rounds = rounds }

let print_table2 fmt r =
  section fmt
    (Printf.sprintf "Table II: probing threshold on multi-core (%d rounds, s)"
       r.t2_rounds);
  avg_max_min fmt "Probing Period"
    (List.map
       (fun row -> (Printf.sprintf "%g s" row.t2_period_s, row.t2_thresholds))
       r.t2_rows);
  Format.fprintf fmt
    "paper: avg 2.61e-04 (8 s) rising to 6.61e-04 (300 s); max ~1.8e-03@."

let print_fig4 fmt r =
  section fmt "Figure 4: KProber probing threshold stability (boxplots)";
  let hi =
    List.fold_left
      (fun acc row -> Float.max acc (Stats.max row.t2_thresholds))
      0.0 r.t2_rows
  in
  List.iter
    (fun row ->
      Format.fprintf fmt "%s@."
        (Report.boxplot_row
           ~label:(Printf.sprintf "%gs" row.t2_period_s)
           (Stats.boxplot row.t2_thresholds)
           ~width:64 ~lo:0.0 ~hi))
    r.t2_rows;
  Format.fprintf fmt "scale: 0 .. %s s@." (Report.sci hi)

let table2_json r =
  Json.Obj
    [
      ("rounds", Json.Int r.t2_rounds);
      ( "rows",
        json_rows
          (fun row ->
            [
              ("period_s", Json.float row.t2_period_s);
              ("thresholds_s", Summary.stats row.t2_thresholds);
            ])
          r.t2_rows );
    ]

let table2_spec =
  spec "table2" "Table II: probing threshold vs period" print_table2
    table2_json
    ~views:[ ("fig4", "Figure 4: probing threshold stability", print_fig4) ]
    (fun ~pool ~seed ~quick ->
      run_table2 ~pool ~seed ~rounds:(if quick then 15 else 50) ())

(* ------------------------------------------------------------------ *)
(* E6 — single-core probing                                            *)
(* ------------------------------------------------------------------ *)

type e6_result = { e6_all_avg : float; e6_single_avg : float; e6_ratio : float }

(* Trial 0 probes all six cores; trial 1 pins one Reporter on the target core
   and Reporter+Comparer on another (§IV-A1's single-core probing setup).
   Seeds match the historical sequential derivation. *)
let e6_trial ~seed ~rounds ~trial_index =
  let period = Sim_time.s 8 in
  if trial_index = 0 then measure_thresholds ~seed ~rounds ~period ~watched:[]
  else measure_thresholds ~seed:(seed + 1) ~rounds ~period ~watched:[ 0; 1 ]

let run_e6 ?(pool = Runner.sequential) ?(seed = 42) ?(rounds = 50) () =
  let all, single =
    memo_pair pool ~experiment:"e6" ~seed
      ~config:[ ("rounds", string_of_int rounds) ]
      (fun i -> e6_trial ~seed ~rounds ~trial_index:i)
  in
  let e6_all_avg = Stats.mean all and e6_single_avg = Stats.mean single in
  { e6_all_avg; e6_single_avg; e6_ratio = e6_single_avg /. e6_all_avg }

let print_e6 fmt r =
  section fmt "E6: probing one core vs all cores (8 s period)";
  table fmt
    ~header:[ "Setup"; "Average threshold" ]
    [
      [ "all 6 cores"; Report.sci r.e6_all_avg ];
      [ "single core"; Report.sci r.e6_single_avg ];
      [ "ratio single/all"; Printf.sprintf "%.2f" r.e6_ratio ];
    ];
  Format.fprintf fmt
    "paper: single-core threshold ~1/4 of all-core -> fixed introspection affinity is easier to probe@."

let e6_json r =
  Json.Obj
    [
      ("all_core_avg_s", Json.float r.e6_all_avg);
      ("single_core_avg_s", Json.float r.e6_single_avg);
      ("ratio", Json.float r.e6_ratio);
    ]

let e6_spec =
  spec "e6" "Single-core vs all-core probing" print_e6 e6_json
    (fun ~pool ~seed ~quick ->
      run_e6 ~pool ~seed ~rounds:(if quick then 15 else 50) ())

(* ------------------------------------------------------------------ *)
(* E7 — race-condition analysis                                        *)
(* ------------------------------------------------------------------ *)

type e7_result = {
  e7_params : Race.params;
  e7_s_bound : int;
  e7_kernel_size : int;
  e7_unprotected : float;
}

let run_e7 () =
  let p = Race.paper_worst_case in
  let n = Layout.paper_total_size in
  {
    e7_params = p;
    e7_s_bound = Race.s_bound p;
    e7_kernel_size = n;
    e7_unprotected = Race.unprotected_fraction p ~kernel_size:n;
  }

let print_e7 fmt r =
  section fmt "E7: race-condition analysis (Sec IV-C)";
  let p = r.e7_params in
  table fmt
    ~header:[ "Parameter"; "Value" ]
    [
      [ "Ts_switch"; Report.sci p.Race.ts_switch ];
      [ "Ts_1byte (A57 fastest)"; Report.sci p.Race.ts_1byte ];
      [ "Tns_sched"; Report.sci p.Race.tns_sched ];
      [ "Tns_threshold (worst)"; Report.sci p.Race.tns_threshold ];
      [ "Tns_recover (worst)"; Report.sci p.Race.tns_recover ];
      [ "S bound (Eq. 2)"; string_of_int r.e7_s_bound ];
      [ "kernel size"; string_of_int r.e7_kernel_size ];
      [ "unprotected fraction"; fraction r.e7_unprotected ];
    ];
  Format.fprintf fmt "paper: S <= 1218351 bytes, ~90%% of the kernel unprotected@."

(* The race parameters, as E7 and the Figure 3 timeline both report them. *)
let race_params_json (p : Race.params) =
  Json.Obj
    [
      ("ts_switch_s", Json.float p.Race.ts_switch);
      ("ts_1byte_s", Json.float p.Race.ts_1byte);
      ("tns_sched_s", Json.float p.Race.tns_sched);
      ("tns_threshold_s", Json.float p.Race.tns_threshold);
      ("tns_recover_s", Json.float p.Race.tns_recover);
    ]

let e7_json r =
  Json.Obj
    [
      ("params", race_params_json r.e7_params);
      ("s_bound_bytes", Json.Int r.e7_s_bound);
      ("kernel_size_bytes", Json.Int r.e7_kernel_size);
      ("unprotected_fraction", Json.float r.e7_unprotected);
    ]

let race_spec =
  closed "race" "Sec IV-C race-condition analysis" print_e7 e7_json run_e7

(* ------------------------------------------------------------------ *)
(* E8 — TZ-Evader vs PKM-style full-kernel introspection               *)
(* ------------------------------------------------------------------ *)

type e8_campaign = {
  e8_rounds : int;
  e8_detections : int;
  e8_evasions : int;
  e8_uptime_fraction : float;
  e8_reaction : Stats.t;
}

type e8_result = { e8_deep : e8_campaign; e8_shallow : e8_campaign }

let run_e8_campaign ~seed ~duration_s ?target_addr () =
  Scenario.with_ ~seed @@ fun scenario ->
  let baseline =
    Scenario.install_baseline scenario
      {
        Baseline.timing = Baseline.Random_period (Sim_time.s 8);
        core_choice = Baseline.Random_core;
      }
  in
  let evader = start_evader ?target_addr scenario (Sim_time.us 1000) in
  let span = Sim_time.s duration_s in
  Scenario.run_for scenario span;
  Baseline.stop baseline;
  Evader.stop evader;
  let reaction = Stats.create () in
  List.iter (Stats.add reaction) (Evader.hide_reaction_times evader);
  {
    e8_rounds = Baseline.rounds_count baseline;
    e8_detections = Baseline.detections baseline;
    e8_evasions = Evader.evasions evader;
    e8_uptime_fraction =
      sec (Rootkit.attack_uptime (Evader.rootkit evader)) /. sec span;
    e8_reaction = reaction;
  }

(* Trial 0: GETTID hijack deep in the unprotected zone; trial 1: IRQ-vector
   hijack near the image start. Seeds match the historical sequential run. *)
let e8_trial ~seed ~duration_s ~trial_index =
  if trial_index = 0 then run_e8_campaign ~seed ~duration_s ()
  else
    let layout = Layout.paper_layout () in
    let vec = Layout.vector_table layout in
    run_e8_campaign ~seed:(seed + 1) ~duration_s
      ~target_addr:(vec.Layout.sym_addr + 0x280) ()

let run_e8 ?(pool = Runner.sequential) ?(seed = 42) ?(duration_s = 400) () =
  let e8_deep, e8_shallow =
    memo_pair pool ~experiment:"e8" ~seed
      ~config:[ ("duration_s", string_of_int duration_s) ]
      (fun i -> e8_trial ~seed ~duration_s ~trial_index:i)
  in
  { e8_deep; e8_shallow }

let print_e8_campaign fmt label c =
  table fmt
    ~header:[ label; "value" ]
    [
      [ "full-kernel scans"; string_of_int c.e8_rounds ];
      [ "defender detections"; string_of_int c.e8_detections ];
      [ "attacker hides completed"; string_of_int c.e8_evasions ];
      [ "attack uptime"; fraction c.e8_uptime_fraction ];
      [ "entry->hidden (avg s)"; stat_cell Report.sci c.e8_reaction ];
    ]

let print_e8 fmt r =
  section fmt
    "E8: TZ-Evader vs existing asynchronous introspection (random core+time, full scan)";
  print_e8_campaign fmt "GETTID hijack (45% deep: inside the ~90% unprotected zone)" r.e8_deep;
  Format.pp_print_newline fmt ();
  print_e8_campaign fmt "IRQ-vector hijack (image start: inside the ~10% protected zone)"
    r.e8_shallow;
  Format.fprintf fmt
    "paper: the evasion defeats existing introspection whenever the trace lies beyond the S bound@."

let e8_campaign_json c =
  Json.Obj
    [
      ("rounds", Json.Int c.e8_rounds);
      ("detections", Json.Int c.e8_detections);
      ("evasions", Json.Int c.e8_evasions);
      ("uptime_fraction", Json.float c.e8_uptime_fraction);
      ("reaction_s", Summary.stats c.e8_reaction);
    ]

let e8_json r =
  Json.Obj
    [
      ("deep", e8_campaign_json r.e8_deep);
      ("shallow", e8_campaign_json r.e8_shallow);
    ]

let evasion_spec =
  spec "evasion" "E8: TZ-Evader vs PKM-style introspection" print_e8 e8_json
    (fun ~pool ~seed ~quick ->
      run_e8 ~pool ~seed ~duration_s:(if quick then 120 else 400) ())

(* ------------------------------------------------------------------ *)
(* E9 — area partition                                                 *)
(* ------------------------------------------------------------------ *)

type e9_result = {
  e9_count : int;
  e9_total : int;
  e9_max : int;
  e9_min : int;
  e9_bound : int;
  e9_all_below_bound : bool;
  e9_greedy_count : int;
  e9_syscall_area : int;
}

let run_e9 () =
  let layout = Layout.paper_layout () in
  let areas = Areas.of_layout layout in
  let bound = Race.s_bound Race.paper_worst_case in
  let greedy = Areas.partition layout ~bound in
  {
    e9_count = List.length areas;
    e9_total = Areas.total_size areas;
    e9_max = Areas.max_size areas;
    e9_min = Areas.min_size areas;
    e9_bound = bound;
    e9_all_below_bound = List.for_all (fun a -> a.Areas.size < bound) areas;
    e9_greedy_count = List.length greedy;
    e9_syscall_area =
      Layout.area_index_of_addr layout (Layout.syscall_table layout).Layout.sym_addr;
  }

let print_e9 fmt r =
  section fmt "E9: kernel area partition (Sec VI-A2)";
  table fmt
    ~header:[ "Quantity"; "Value"; "Paper" ]
    [
      [ "areas"; string_of_int r.e9_count; "19" ];
      [ "total bytes"; string_of_int r.e9_total; "11916240" ];
      [ "largest area"; string_of_int r.e9_max; "876616" ];
      [ "smallest area"; string_of_int r.e9_min; "431360" ];
      [ "size bound"; string_of_int r.e9_bound; "1218351" ];
      [ "all areas < bound"; string_of_bool r.e9_all_below_bound; "true" ];
      [ "greedy partition areas"; string_of_int r.e9_greedy_count; "-" ];
      [ "sys_call_table area"; string_of_int r.e9_syscall_area; "14" ];
    ]

let e9_json r =
  Json.Obj
    [
      ("area_count", Json.Int r.e9_count);
      ("total_bytes", Json.Int r.e9_total);
      ("max_area_bytes", Json.Int r.e9_max);
      ("min_area_bytes", Json.Int r.e9_min);
      ("bound_bytes", Json.Int r.e9_bound);
      ("all_below_bound", Json.Bool r.e9_all_below_bound);
      ("greedy_count", Json.Int r.e9_greedy_count);
      ("syscall_area", Json.Int r.e9_syscall_area);
    ]

let areas_spec = closed "areas" "E9: kernel area partition" print_e9 e9_json run_e9

(* ------------------------------------------------------------------ *)
(* E10 — SATIN defeating TZ-Evader                                     *)
(* ------------------------------------------------------------------ *)

type e10_result = {
  e10_rounds : int;
  e10_full_passes : int;
  e10_area14_checks : int;
  e10_area14_detections : int;
  e10_area14_gap_mean_s : float;
  e10_full_pass_time_s : float;
  e10_prober_reported : int;
  e10_false_negatives : int;
  e10_false_positives : int;
  e10_evasions_attempted : int;
  e10_evasions_succeeded : int;
}

let run_e10_campaign ~seed ~target_rounds ~probe_period_us () =
  Scenario.with_ ~seed @@ fun scenario ->
  let satin = Scenario.install_satin scenario () in
  let evader = start_evader scenario (Sim_time.us probe_period_us) in
  let step = Sim_time.s 10 in
  let cap = 40 * target_rounds / 19 * 19 in
  (* Safety cap on simulated seconds: ~4x the expected campaign length. *)
  let rec drive () =
    if Satin_def.rounds_count satin < target_rounds
       && sec (Scenario.now scenario) < float_of_int cap
    then begin
      Scenario.run_for scenario step;
      drive ()
    end
  in
  drive ();
  Satin_def.stop satin;
  Evader.stop evader;
  let rounds =
    List.filteri (fun i _ -> i < target_rounds) (Satin_def.rounds satin)
  in
  let area14, area14_detections = area14_tally rounds in
  let gaps =
    let times = List.map (fun r -> sec r.Round.started) area14 in
    let rec pair = function
      | a :: (b :: _ as rest) -> (b -. a) :: pair rest
      | [ _ ] | [] -> []
    in
    pair times
  in
  let gap_mean =
    match gaps with
    | [] -> 0.0
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  (* Full-pass time: rounds per pass x average inter-round gap. *)
  let pass_time =
    match rounds with
    | [] | [ _ ] -> 0.0
    | first :: _ ->
        let last = List.nth rounds (List.length rounds - 1) in
        sec (Sim_time.diff last.Round.started first.Round.started)
        /. float_of_int (List.length rounds - 1)
        *. 19.0
  in
  (* Prober faithfulness: match each defender round against a probe alarm in
     [start, start+50ms]. *)
  let detections = Array.of_list (Kprober.detections (Evader.prober evader)) in
  let consumed = Array.make (Array.length detections) false in
  let reported =
    List.filter
      (fun r ->
        let s = sec r.Round.started in
        let found = ref false in
        Array.iteri
          (fun i (d : Kprober.detection) ->
            if (not !found) && not consumed.(i) then begin
              let dt = sec d.Kprober.det_time in
              if dt >= s && dt <= s +. 0.05 then begin
                consumed.(i) <- true;
                found := true
              end
            end)
          detections;
        !found)
      rounds
  in
  let horizon =
    match rounds with
    | [] -> 0.0
    | _ ->
        let last = List.nth rounds (List.length rounds - 1) in
        sec last.Round.started +. 0.05
  in
  let false_positives = ref 0 in
  Array.iteri
    (fun i (d : Kprober.detection) ->
      if (not consumed.(i)) && sec d.Kprober.det_time <= horizon then
        incr false_positives)
    detections;
  let false_positives = !false_positives in
  {
    e10_rounds = List.length rounds;
    e10_full_passes = Satin_def.full_passes satin;
    e10_area14_checks = List.length area14;
    e10_area14_detections = area14_detections;
    e10_area14_gap_mean_s = gap_mean;
    e10_full_pass_time_s = pass_time;
    e10_prober_reported = List.length reported;
    e10_false_negatives = List.length rounds - List.length reported;
    e10_false_positives = false_positives;
    e10_evasions_attempted = List.length area14;
    e10_evasions_succeeded = List.length area14 - area14_detections;
  }

let run_e10 ?(seed = 42) ?(target_rounds = 190) ?(probe_period_us = 500) () =
  memo_campaign ~experiment:"e10" ~seed
    ~config:
      [
        ("target_rounds", string_of_int target_rounds);
        ("probe_period_us", string_of_int probe_period_us);
      ]
    (run_e10_campaign ~seed ~target_rounds ~probe_period_us)

let print_e10 fmt r =
  section fmt "E10: SATIN vs TZ-Evader detection campaign (Sec VI-B1)";
  table fmt
    ~header:[ "Quantity"; "Measured"; "Paper" ]
    [
      [ "introspection rounds"; string_of_int r.e10_rounds; "190" ];
      [ "full kernel passes"; string_of_int r.e10_full_passes; "10" ];
      [ "area-14 checks"; string_of_int r.e10_area14_checks; "10" ];
      [ "area-14 detections"; string_of_int r.e10_area14_detections; "10" ];
      [ "mean gap between area-14 checks (s)";
        Printf.sprintf "%.0f" r.e10_area14_gap_mean_s; "141" ];
      [ "full-pass time (s)"; Printf.sprintf "%.0f" r.e10_full_pass_time_s; "~152" ];
      [ "rounds reported by KProber"; string_of_int r.e10_prober_reported;
        "190 (all)" ];
      [ "probe false negatives"; string_of_int r.e10_false_negatives; "0" ];
      [ "probe false positives"; string_of_int r.e10_false_positives; "0" ];
      [ "evasion attempts on area 14"; string_of_int r.e10_evasions_attempted; "10" ];
      [ "evasions succeeded"; string_of_int r.e10_evasions_succeeded; "0" ];
    ]

let e10_json r =
  Json.Obj
    [
      ("rounds", Json.Int r.e10_rounds);
      ("full_passes", Json.Int r.e10_full_passes);
      ("area14_checks", Json.Int r.e10_area14_checks);
      ("area14_detections", Json.Int r.e10_area14_detections);
      ("area14_gap_mean_s", Json.float r.e10_area14_gap_mean_s);
      ("full_pass_time_s", Json.float r.e10_full_pass_time_s);
      ("prober_reported", Json.Int r.e10_prober_reported);
      ("false_negatives", Json.Int r.e10_false_negatives);
      ("false_positives", Json.Int r.e10_false_positives);
      ("evasions_attempted", Json.Int r.e10_evasions_attempted);
      ("evasions_succeeded", Json.Int r.e10_evasions_succeeded);
    ]

let detect_spec =
  spec "satin-detect" "E10: SATIN detecting TZ-Evader (Sec VI-B1)" print_e10
    e10_json (fun ~pool:_ ~seed ~quick ->
      run_e10 ~seed ~target_rounds:(if quick then 57 else 190) ())

(* ------------------------------------------------------------------ *)
(* Figure 7 — SATIN overhead on UnixBench                              *)
(* ------------------------------------------------------------------ *)

type fig7_row = {
  f7_program : string;
  f7_deg_1task : float;
  f7_deg_6task : float;
}

type fig7_result = {
  f7_rows : fig7_row list;
  f7_avg_1task : float;
  f7_avg_6task : float;
}

(* The overhead campaign drives SATIN much harder than the detection
   campaign: one round per second (Tgoal = 19 s over 19 areas), the
   worst-case configuration a deployment that wants a 19-second detection
   horizon would run. *)
let overhead_satin_config =
  { Satin_def.default_config with t_goal = Sim_time.s 19 }

(* One UnixBench score: [copies] of [program] over a [window_s] window on
   a fresh scenario, with SATIN at [satin] when given. Figure 7, the
   sweep and the fleet's baseline each score this way. *)
let unixbench_score ~seed ?satin ~program ~copies ~window_s () =
  Scenario.with_ ~seed @@ fun s ->
  Option.iter (fun config -> ignore (Scenario.install_satin s ~config ())) satin;
  let inst = Unixbench.launch s.Scenario.kernel program ~copies () in
  Scenario.run_for s (Sim_time.s window_s);
  Unixbench.score inst ~at:(Scenario.now s)

(* The worst-case workload, which the sweep and the fleet run. *)
let file_copy_256 = Unixbench.find_program "file_copy_256"

(* Each (program, copies, satin on/off) cell is one trial with its own
   scenario at the same seed — exactly what the sequential loop always built,
   so pooled runs reproduce sequential scores byte for byte. Trials are
   flattened as program-major: [trial_index / 4] picks the program,
   [(trial_index / 2) mod 2] the copy count, [trial_index mod 2] on/off. *)
let fig7_trial ~seed ~window_s ~trial_index =
  let programs = Array.of_list Unixbench.programs in
  unixbench_score ~seed
    ?satin:(if trial_index mod 2 = 1 then Some overhead_satin_config else None)
    ~program:programs.(trial_index / 4)
    ~copies:(if trial_index / 2 mod 2 = 0 then 1 else 6)
    ~window_s ()

let run_fig7 ?(pool = Runner.sequential) ?(seed = 42) ?(window_s = 30) () =
  let programs = Array.of_list Unixbench.programs in
  let scores =
    Memo.map pool ~experiment:"fig7" ~seed
      ~config:[ ("window_s", string_of_int window_s) ]
      ~trial_config:(fun i ->
        [
          ("program", programs.(i / 4).Unixbench.prog_name);
          ("copies", if i / 2 mod 2 = 0 then "1" else "6");
          ("satin", if i mod 2 = 1 then "1" else "0");
        ])
      (4 * Array.length programs)
      (fun i -> fig7_trial ~seed ~window_s ~trial_index:i)
  in
  let degradation ~off ~on =
    if off <= 0.0 then 0.0 else 100.0 *. (off -. on) /. off
  in
  let rows =
    List.mapi
      (fun pi p ->
        let base = 4 * pi in
        {
          f7_program = p.Unixbench.prog_name;
          f7_deg_1task =
            degradation ~off:scores.(base) ~on:scores.(base + 1);
          f7_deg_6task =
            degradation ~off:scores.(base + 2) ~on:scores.(base + 3);
        })
      (Array.to_list programs)
  in
  let avg f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows /. float_of_int (List.length rows) in
  {
    f7_rows = rows;
    f7_avg_1task = avg (fun r -> r.f7_deg_1task);
    f7_avg_6task = avg (fun r -> r.f7_deg_6task);
  }

let print_fig7 fmt r =
  section fmt "Figure 7: SATIN overhead (UnixBench, % degradation)";
  let max_v =
    List.fold_left
      (fun acc row -> Float.max acc (Float.max row.f7_deg_1task row.f7_deg_6task))
      0.0 r.f7_rows
  in
  Format.fprintf fmt "-- 1-task --@.";
  List.iter
    (fun row ->
      Format.fprintf fmt "%s@."
        (Report.bar ~label:row.f7_program ~value:row.f7_deg_1task ~max_value:max_v
           ~width:40))
    r.f7_rows;
  Format.fprintf fmt "-- 6-task --@.";
  List.iter
    (fun row ->
      Format.fprintf fmt "%s@."
        (Report.bar ~label:row.f7_program ~value:row.f7_deg_6task ~max_value:max_v
           ~width:40))
    r.f7_rows;
  Format.fprintf fmt "average: 1-task %s, 6-task %s@." (Report.pct r.f7_avg_1task)
    (Report.pct r.f7_avg_6task);
  Format.fprintf fmt
    "paper: 0.711%% (1-task), 0.848%% (6-task); worst: file copy 256B 3.556%%, context switching 3.912%%@."

let fig7_json r =
  Json.Obj
    [
      ( "rows",
        json_rows
          (fun row ->
            [
              ("program", Json.String row.f7_program);
              ("degradation_1task_pct", Json.float row.f7_deg_1task);
              ("degradation_6task_pct", Json.float row.f7_deg_6task);
            ])
          r.f7_rows );
      ("avg_1task_pct", Json.float r.f7_avg_1task);
      ("avg_6task_pct", Json.float r.f7_avg_6task);
    ]

let fig7_spec =
  spec "fig7" "Figure 7: SATIN overhead on UnixBench" print_fig7 fig7_json
    (fun ~pool ~seed ~quick ->
      run_fig7 ~pool ~seed ~window_s:(if quick then 8 else 30) ())

(* ------------------------------------------------------------------ *)
(* E12 — the Figure 3 timeline                                         *)
(* ------------------------------------------------------------------ *)

let print_timeline fmt p =
  section fmt "Figure 3: race between the two worlds (model timeline)";
  let s_bound = Race.s_bound p in
  let rows =
    [
      ("t_start", 0.0, "secure timer fires; core leaves the normal world");
      ("switch done", p.Race.ts_switch, "S-EL1 starts the introspection");
      ( "probe trips",
        Race.tns_delay p,
        "attacker notices the stalled core (Tns_sched + Tns_threshold)" );
      ( "hide done",
        Race.hide_time p,
        "last malicious byte restored (…+ Tns_recover)" );
      ( "front @ S bound",
        Race.scan_time p ~bytes:s_bound,
        Printf.sprintf "scan front reaches byte %d - the race horizon" s_bound );
    ]
  in
  List.iter
    (fun (label, time, desc) ->
      Format.fprintf fmt "  %-14s %-12s %s@." label (Report.sci time) desc)
    rows;
  Format.fprintf fmt
    "malicious bytes before the horizon are caught; beyond it the evasion wins (Eq. 1)@.";
  (* Why the round must be non-preemptible (Sec V-B): with a preemptive
     secure world, an interrupt storm reopens the race on the largest area. *)
  let bytes = 876_616 and handler_s = 2e-5 in
  let hz = Race.storm_to_evade p ~bytes ~handler_s in
  Format.fprintf fmt
    "if the secure world were preemptive, a %.0f Hz interrupt storm (20 us handlers)@.\
     would stretch the largest area's scan past the hide - hence SCR_EL3.IRQ = 0 (Sec V-B)@."
    hz

let timeline_json p =
  Json.Obj
    [
      ("params", race_params_json p);
      ("s_bound_bytes", Json.Int (Race.s_bound p));
      ("hide_time_s", Json.float (Race.hide_time p));
      ("max_area_bytes", Json.Int (Race.max_area_size p));
    ]

let timeline_spec =
  closed "timeline" "Figure 3: two-world race timeline" print_timeline
    timeline_json (fun () -> Race.paper_worst_case)

(* ------------------------------------------------------------------ *)
(* Ablation — which randomization defeats which attacker               *)
(* ------------------------------------------------------------------ *)

type ablation_row = {
  ab_label : string;
  ab_area14_checks : int;
  ab_area14_detections : int;
  ab_attack_uptime : float;
}

type ablation_result = { ab_rows : ablation_row list }

(* A predictive attacker for de-randomized SATIN: it knows tp (and, when
   [area_aware], the in-order area schedule), pre-hides shortly before each
   predicted wake-up and re-arms after the round. *)
let run_predictive ~scenario ~satin ~rootkit ~area_aware =
  let engine = Scenario.engine scenario in
  let tp = Satin_def.tp satin in
  let guard = Sim_time.ms 60 in
  let rearm_after = Sim_time.ms 120 in
  let round_counter = ref 0 in
  let rec schedule_for expected =
    let idx = !round_counter in
    let is_target = (not area_aware) || idx mod 19 = 14 in
    ignore
      (Engine.at engine
         ~time:(Sim_time.max (Engine.now engine) (Sim_time.sub expected guard))
         (fun () -> if is_target then Rootkit.start_hide rootkit ()));
    ignore
      (Engine.at engine
         ~time:(Sim_time.add expected rearm_after)
         (fun () ->
           incr round_counter;
           Rootkit.start_rearm rootkit ();
           schedule_for (Sim_time.add expected tp)))
  in
  schedule_for (Sim_time.add (Engine.now engine) tp)

let run_ablation_variant ~seed ~passes (ab_label, config, attacker) =
  Scenario.with_ ~seed @@ fun scenario ->
  let satin = Scenario.install_satin scenario ~config () in
  let span = Sim_time.scale config.Satin_def.t_goal (float_of_int passes +. 0.5) in
  let rootkit =
    match attacker with
    | `Reactive -> Evader.rootkit (start_evader scenario (Sim_time.us 1000))
    | `Predictive area_aware ->
        let rootkit = Rootkit.create scenario.Scenario.kernel ~cleanup_core:0 () in
        Rootkit.arm rootkit;
        run_predictive ~scenario ~satin ~rootkit ~area_aware;
        rootkit
  in
  Scenario.run_for scenario span;
  Satin_def.stop satin;
  let area14, detections = area14_tally (Satin_def.rounds satin) in
  {
    ab_label;
    ab_area14_checks = List.length area14;
    ab_area14_detections = detections;
    ab_attack_uptime = sec (Rootkit.attack_uptime rootkit) /. sec span;
  }

(* The four de-randomization variants: variant [k] is trial [k], at the
   historical [seed + k] derivation. *)
let ablation_variants =
  let full = Satin_def.default_config in
  let fixed_period = { full with Satin_def.randomize_period = false } in
  [|
    ("full SATIN vs reactive evader", full, `Reactive);
    ("full SATIN vs predictive evader", full, `Predictive false);
    ("fixed period vs predictive evader", fixed_period, `Predictive false);
    ( "fixed period+core+order vs area-aware evader",
      { fixed_period with randomize_area = false; randomize_core = false },
      `Predictive true );
  |]

let ablation_trial ~seed ~passes ~trial_index =
  run_ablation_variant ~seed:(seed + trial_index) ~passes
    ablation_variants.(trial_index)

let run_ablation ?(pool = Runner.sequential) ?(seed = 42) ?(passes = 3) () =
  let rows =
    Memo.map pool ~experiment:"ablation" ~seed
      ~config:[ ("passes", string_of_int passes) ]
      4
      (fun i -> ablation_trial ~seed ~passes ~trial_index:i)
  in
  { ab_rows = Array.to_list rows }

let print_ablation fmt r =
  section fmt "Ablation: SATIN randomizations vs attacker knowledge";
  table fmt
    ~header:[ "Variant"; "area-14 checks"; "detected"; "attack uptime" ]
    (List.map
       (fun row ->
         [
           row.ab_label;
           string_of_int row.ab_area14_checks;
           string_of_int row.ab_area14_detections;
           fraction row.ab_attack_uptime;
         ])
       r.ab_rows)

let ablation_json r =
  Json.Obj
    [
      ( "rows",
        json_rows
          (fun row ->
            [
              ("label", Json.String row.ab_label);
              ("area14_checks", Json.Int row.ab_area14_checks);
              ("area14_detections", Json.Int row.ab_area14_detections);
              ("attack_uptime", Json.float row.ab_attack_uptime);
            ])
          r.ab_rows );
    ]

let ablation_spec =
  spec "ablation" "SATIN randomization ablation" print_ablation ablation_json
    (fun ~pool ~seed ~quick ->
      run_ablation ~pool ~seed ~passes:(if quick then 1 else 3) ())

(* ------------------------------------------------------------------ *)
(* E13 — cross-view detection of DKOM process hiding                   *)
(* ------------------------------------------------------------------ *)

type e13_result = {
  e13_checks : int;
  e13_detections : int;
  e13_relinks : int;
  e13_walk_cost : Stats.t;
  e13_hidden_fraction : float;
}

let run_e13_campaign ~seed ~checks () =
  Scenario.with_ ~seed @@ fun scenario ->
  let platform = scenario.Scenario.platform in
  let engine = Scenario.engine scenario in
  (* Kernel heap with a population of processes; pid 1337 is the malware. *)
  let table =
    Satin_kernel.Proc_table.create ~memory:platform.Platform.memory
      ~base:(16 * 1024 * 1024) ~capacity:128
  in
  for pid = 1 to 60 do
    Satin_kernel.Proc_table.spawn table ~pid ~runnable:(pid mod 3 <> 0) ()
  done;
  Satin_kernel.Proc_table.spawn table ~pid:1337 ();
  let rootkit =
    Satin_attack.Dkom_rootkit.deploy scenario.Scenario.kernel table ~pid:1337
      ~prober_config:
        { Kprober.default_config with period = Sim_time.ms 1 }
  in
  Satin_attack.Dkom_rootkit.start rootkit;
  let prng = Platform.split_prng platform in
  let walk_cost = Stats.create () in
  let detections = ref 0 in
  let performed = ref 0 in
  (* Sample the hidden/visible duty cycle between checks. *)
  let hidden_samples = ref 0 and samples = ref 0 in
  ignore
    (Engine.every engine ~period:(Sim_time.ms 50) (fun () ->
         incr samples;
         if not (Satin_kernel.Proc_table.tasks_linked table ~pid:1337) then
           incr hidden_samples));
  (* The defense: a cross-view pass every ~2 s on a random core, activated
     by the secure timer like every other secure service. *)
  let defense_prng = Platform.split_prng platform in
  let rec do_check n =
    if n < checks then begin
      let delay = Sim_time.of_sec_f (Prng.uniform defense_prng 1.0 3.0) in
      Scenario.run_for scenario delay;
      let core =
        Platform.core platform (Prng.int defense_prng (Platform.ncores platform))
      in
      if Cpu.in_secure core then do_check n
      else begin
        incr performed;
        Monitor.enter_secure platform.Platform.monitor ~cpu:core
          ~payload:(fun () ->
            let report = Satin_introspect.Dkom.check table ~prng in
            Stats.add_time walk_cost report.Satin_introspect.Dkom.duration;
            if Satin_introspect.Dkom.hidden report then incr detections;
            report.Satin_introspect.Dkom.duration)
          ();
        Scenario.run_for scenario (Sim_time.ms 100);
        do_check (n + 1)
      end
    end
  in
  do_check 0;
  Satin_attack.Dkom_rootkit.stop rootkit;
  {
    e13_checks = !performed;
    e13_detections = !detections;
    e13_relinks = Satin_attack.Dkom_rootkit.relinks rootkit;
    e13_walk_cost = walk_cost;
    e13_hidden_fraction =
      (if !samples = 0 then 0.0
       else float_of_int !hidden_samples /. float_of_int !samples);
  }

let run_e13 ?(seed = 42) ?(checks = 30) () =
  memo_campaign ~experiment:"e13" ~seed
    ~config:[ ("checks", string_of_int checks) ]
    (run_e13_campaign ~seed ~checks)

let print_e13 fmt r =
  section fmt
    "E13: cross-view introspection vs DKOM process hiding (beyond the paper)";
  table fmt
    ~header:[ "Quantity"; "Value" ]
    [
      [ "cross-view checks"; string_of_int r.e13_checks ];
      [ "hidden process detected"; string_of_int r.e13_detections ];
      [ "attacker relinks (evasion attempts)"; string_of_int r.e13_relinks ];
      [ "walk cost (avg s)"; stat_cell Report.sci r.e13_walk_cost ];
      [ "time hidden from tasks-list tools"; fraction r.e13_hidden_fraction ];
    ];
  Format.fprintf fmt
    "a cross-view pass holds the core for ~2e-05 s: below the probing threshold,@.\
     so the attacker never even notices the checks (0 relinks) and is seen every time@."

let e13_json r =
  Json.Obj
    [
      ("checks", Json.Int r.e13_checks);
      ("detections", Json.Int r.e13_detections);
      ("relinks", Json.Int r.e13_relinks);
      ("walk_cost_s", Summary.stats r.e13_walk_cost);
      ("hidden_fraction", Json.float r.e13_hidden_fraction);
    ]

let dkom_spec =
  spec "dkom" "E13: cross-view detection of DKOM process hiding" print_e13
    e13_json (fun ~pool:_ ~seed ~quick ->
      run_e13 ~seed ~checks:(if quick then 10 else 30) ())

(* ------------------------------------------------------------------ *)
(* E14 — SATIN vs a cache-occupancy side-channel evader                *)
(* ------------------------------------------------------------------ *)

type e14_result = {
  e14_rounds : int;
  e14_area14_checks : int;
  e14_area14_detections : int;
  e14_reaction : Stats.t;
  e14_false_alarms : int;
  e14_wasted_hides : int;
  e14_uptime_fraction : float;
}

let run_e14_campaign ~seed ~passes () =
  Scenario.with_ ~seed @@ fun scenario ->
  let t_goal = Sim_time.s 76 in
  let satin =
    Scenario.install_satin scenario
      ~config:{ Satin_def.default_config with Satin_def.t_goal } ()
  in
  let kernel = scenario.Scenario.kernel in
  let rootkit = Rootkit.create kernel ~cleanup_core:0 () in
  let prober =
    Satin_attack.Cache_prober.deploy kernel Satin_attack.Cache_prober.default_config
  in
  let engine = Scenario.engine scenario in
  let reaction = Stats.create () in
  let wasted = ref 0 in
  let rearm_pending = ref None in
  let cancel_rearm () =
    match !rearm_pending with
    | Some h ->
        Engine.cancel engine h;
        rearm_pending := None
    | None -> ()
  in
  (* The cache channel cannot tell noise from introspection: every alarm
     triggers a hide. *)
  Satin_attack.Cache_prober.on_suspect prober
    (fun (d : Satin_attack.Cache_prober.detection) ->
      cancel_rearm ();
      if Rootkit.is_armed rootkit then begin
        if d.Satin_attack.Cache_prober.det_noise then incr wasted;
        let entry =
          (* earliest in-progress secure entry, for the reaction metric;
             alarms without one are noise *)
          Array.fold_left
            (fun acc core ->
              match Cpu.last_entry_time core with
              | Some e when Cpu.in_secure core -> (
                  match acc with Some a -> Some (Sim_time.min a e) | None -> Some e)
              | _ -> acc)
            None scenario.Scenario.platform.Platform.cores
        in
        Rootkit.start_hide rootkit
          ~on_hidden:(fun () ->
            match entry with
            | Some e ->
                Stats.add reaction (sec (Sim_time.diff (Engine.now engine) e))
            | None -> ())
          ()
      end);
  let clusters_clean () =
    (not (Satin_attack.Cache_prober.suspected prober ~cluster:0))
    && not (Satin_attack.Cache_prober.suspected prober ~cluster:1)
  in
  let try_rearm () =
    cancel_rearm ();
    rearm_pending :=
      Some
        (Engine.schedule engine ~after:(Sim_time.ms 2) (fun () ->
             rearm_pending := None;
             if clusters_clean () then Rootkit.start_rearm rootkit ()))
  in
  Satin_attack.Cache_prober.on_clear prober (fun ~cluster:_ ->
      if Rootkit.state rootkit = Rootkit.Hidden then try_rearm ());
  (* Safety net: a hide that finished while the cluster already probed
     clean needs a re-arm path too. *)
  ignore
    (Engine.every engine ~period:(Sim_time.ms 10) (fun () ->
         if
           Rootkit.state rootkit = Rootkit.Hidden
           && clusters_clean ()
           && !rearm_pending = None
         then try_rearm ()));
  let span = Sim_time.scale t_goal (float_of_int passes +. 0.3) in
  Rootkit.arm rootkit;
  Scenario.run_for scenario span;
  Satin_def.stop satin;
  Satin_attack.Cache_prober.retire prober;
  let rounds = Satin_def.rounds satin in
  let area14, detections = area14_tally rounds in
  {
    e14_rounds = List.length rounds;
    e14_area14_checks = List.length area14;
    e14_area14_detections = detections;
    e14_reaction = reaction;
    e14_false_alarms = Satin_attack.Cache_prober.false_alarms prober;
    e14_wasted_hides = !wasted;
    e14_uptime_fraction = sec (Rootkit.attack_uptime rootkit) /. sec span;
  }

let run_e14 ?(seed = 42) ?(passes = 3) () =
  memo_campaign ~experiment:"e14" ~seed
    ~config:[ ("passes", string_of_int passes) ]
    (run_e14_campaign ~seed ~passes)

let print_e14 fmt r =
  section fmt
    "E14: SATIN vs cache-occupancy side channel (Sec VI-C2, beyond the paper)";
  table fmt
    ~header:[ "Quantity"; "Value" ]
    [
      [ "introspection rounds"; string_of_int r.e14_rounds ];
      [ "area-14 checks"; string_of_int r.e14_area14_checks ];
      [ "area-14 detections"; string_of_int r.e14_area14_detections ];
      [ "entry->hidden via cache channel (avg s)";
        stat_cell Report.sci r.e14_reaction ];
      [ "benign-eviction false alarms"; string_of_int r.e14_false_alarms ];
      [ "hides wasted on noise"; string_of_int r.e14_wasted_hides ];
      [ "attack uptime"; fraction r.e14_uptime_fraction ];
    ];
  Format.fprintf fmt
    "the cache channel reacts ~3x faster than KProber, and SATIN still catches every check@."

let e14_json r =
  Json.Obj
    [
      ("rounds", Json.Int r.e14_rounds);
      ("area14_checks", Json.Int r.e14_area14_checks);
      ("area14_detections", Json.Int r.e14_area14_detections);
      ("reaction_s", Summary.stats r.e14_reaction);
      ("false_alarms", Json.Int r.e14_false_alarms);
      ("wasted_hides", Json.Int r.e14_wasted_hides);
      ("uptime_fraction", Json.float r.e14_uptime_fraction);
    ]

let cache_channel_spec =
  spec "cache-channel" "E14: SATIN vs the cache-occupancy side channel"
    print_e14 e14_json (fun ~pool:_ ~seed ~quick ->
      run_e14 ~seed ~passes:(if quick then 1 else 3) ())

(* ------------------------------------------------------------------ *)
(* Tgoal sweep — coverage/overhead tradeoff                            *)
(* ------------------------------------------------------------------ *)

type sweep_row = {
  sw_tp_s : float;
  sw_tgoal_s : float;
  sw_detect_latency : Stats.t;
  sw_overhead_pct : float;
}

type sweep_result = { sw_rows : sweep_row list }

let time_to_first_alarm ~seed ~tp_s =
  Scenario.with_ ~seed @@ fun scenario ->
  let t_goal = Sim_time.of_sec_f (tp_s *. 19.0) in
  let satin =
    Scenario.install_satin scenario
      ~config:{ Satin_def.default_config with Satin_def.t_goal } ()
  in
  let evader = start_evader scenario (Sim_time.ms 2) in
  let armed_at = Scenario.now scenario in
  let deadline =
    Sim_time.add armed_at (Sim_time.scale t_goal 3.0)
  in
  let rec drive () =
    if Satin_def.detections satin = 0 && Scenario.now scenario < deadline then begin
      Scenario.run_for scenario (Sim_time.ms 500);
      drive ()
    end
  in
  drive ();
  Satin_def.stop satin;
  Evader.stop evader;
  match Satin_def.alarms satin with
  | alarm :: _ -> Some (sec (Sim_time.diff alarm.Round.started armed_at))
  | [] -> None

(* One detection-latency trial: tp picked by [trial_index / trials], the
   historical [seed + trial * 31] derivation within each tp. *)
let sweep_latency_trial ~seed ~trials ~tps ~trial_index =
  let tp_s = tps.(trial_index / trials) in
  time_to_first_alarm ~seed:(seed + (trial_index mod trials * 31)) ~tp_s

(* SATIN's Tgoal at round period [tp_s]: 19 rounds, in whole seconds, at
   least one (the sweep's overhead trials and the fleet). *)
let whole_t_goal tp_s =
  Sim_time.s (max 1 (int_of_float (Float.round (tp_s *. 19.0))))

(* One overhead trial: the worst-case workload (file copy 256B) at cadence
   [tps.(trial_index / 2)], with SATIN off (even index) or on (odd). *)
let sweep_score_trial ~seed ~tps ~trial_index =
  let t_goal = whole_t_goal tps.(trial_index / 2) in
  unixbench_score ~seed
    ?satin:
      (if trial_index mod 2 = 1 then
         Some { Satin_def.default_config with Satin_def.t_goal }
       else None)
    ~program:file_copy_256 ~copies:1 ~window_s:20 ()

let run_tgoal_sweep ?(pool = Runner.sequential) ?(seed = 42) ?(trials = 4)
    ?(tps_s = [ 0.5; 1.0; 2.0; 4.0 ]) () =
  let tps = Array.of_list tps_s in
  let ntps = Array.length tps in
  let latencies =
    (* [trials] shapes the seed derivation inside the body, so it is part
       of the key alongside the trial's own cadence. *)
    Memo.map pool ~experiment:"sweep-latency" ~seed
      ~config:[ ("trials", string_of_int trials) ]
      ~trial_config:(fun i -> [ ("tp_s", keyf tps.(i / trials)) ])
      (ntps * trials)
      (fun i -> sweep_latency_trial ~seed ~trials ~tps ~trial_index:i)
  in
  let scores =
    Memo.map pool ~experiment:"sweep-score" ~seed
      ~trial_config:(fun i ->
        [
          ("tp_s", keyf tps.(i / 2));
          ("satin", if i mod 2 = 1 then "1" else "0");
        ])
      (ntps * 2)
      (fun i -> sweep_score_trial ~seed ~tps ~trial_index:i)
  in
  let rows =
    List.mapi
      (fun ti tp_s ->
        let latency = Stats.create () in
        for trial = 0 to trials - 1 do
          match latencies.((ti * trials) + trial) with
          | Some l -> Stats.add latency l
          | None -> ()
        done;
        let off = scores.(2 * ti) and on = scores.((2 * ti) + 1) in
        {
          sw_tp_s = tp_s;
          sw_tgoal_s = tp_s *. 19.0;
          sw_detect_latency = latency;
          sw_overhead_pct =
            (if off <= 0.0 then 0.0 else 100.0 *. (off -. on) /. off);
        })
      tps_s
  in
  { sw_rows = rows }

let print_tgoal_sweep fmt r =
  section fmt "Tgoal sweep: detection latency vs overhead (beyond the paper)";
  table fmt
    ~header:
      [ "tp"; "Tgoal"; "time to first alarm (avg)"; "worst-workload overhead" ]
    (List.map
       (fun row ->
         [
           Printf.sprintf "%.1f s" row.sw_tp_s;
           Printf.sprintf "%.0f s" row.sw_tgoal_s;
           stat_cell secs row.sw_detect_latency;
           Report.pct row.sw_overhead_pct;
         ])
       r.sw_rows);
  Format.fprintf fmt
    "shorter periods catch the rootkit sooner and cost proportionally more throughput@."

let sweep_json r =
  Json.Obj
    [
      ( "rows",
        json_rows
          (fun row ->
            [
              ("tp_s", Json.float row.sw_tp_s);
              ("tgoal_s", Json.float row.sw_tgoal_s);
              ("detect_latency_s", Summary.stats row.sw_detect_latency);
              ("overhead_pct", Json.float row.sw_overhead_pct);
            ])
          r.sw_rows );
    ]

let sweep_spec =
  spec "sweep" "Tgoal coverage/overhead sweep" print_tgoal_sweep sweep_json
    (fun ~pool ~seed ~quick ->
      run_tgoal_sweep ~pool ~seed ~trials:(if quick then 2 else 4) ())

(* ------------------------------------------------------------------ *)
(* Fault injection — detection rate and graceful degradation           *)
(* ------------------------------------------------------------------ *)

type fault_trial = {
  ft_detected : bool;
  ft_latency_s : float option; (** arm -> first alarmed round's wake-up, s *)
  ft_rounds : int; (** rounds SATIN completed inside the window *)
  ft_faults : int; (** perturbations applied: drops+delays+spikes+flips *)
}

(* The armed GETTID rootkit, which fault campaigns and fleet devices
   share: SATIN starts at [config], a persistent rootkit is armed after
   enrollment, [launch] starts the device's workload and the [window_s]
   window runs. Returns whether SATIN alarmed, the time from arming to the
   first alarmed round's wake-up, the rounds completed and what [launch]
   returned. *)
let armed_gettid scenario ~config ~window_s ~launch =
  let satin = Scenario.install_satin scenario ~config () in
  let rootkit = Rootkit.create scenario.Scenario.kernel ~cleanup_core:0 () in
  Rootkit.arm rootkit;
  let armed_at = Scenario.now scenario in
  let first_alarm = ref None in
  Satin_def.on_round satin (fun r ->
      if Round.detected r && !first_alarm = None then
        first_alarm := Some r.Round.started);
  let workload = launch () in
  Scenario.run_for scenario (Sim_time.s window_s);
  Satin_def.stop satin;
  ( Satin_def.detections satin > 0,
    Option.map (fun t -> sec (Sim_time.diff t armed_at)) !first_alarm,
    Satin_def.rounds_count satin,
    workload )

(* One fault campaign: install the injector (so even the first secure-timer
   arms pass through the fault hooks), then the armed rootkit against
   SATIN at tp = 1 s, and report what the defense managed under the
   perturbation. *)
let fault_campaign_trial ~seed ~window_s plan =
  Scenario.with_ ~seed @@ fun scenario ->
  let kernel = scenario.Scenario.kernel in
  let injector =
    Injector.install ~plan ~seed:(derive seed 97)
      ~platform:scenario.Scenario.platform ~kernel
      ~areas:(Areas.of_layout kernel.Satin_kernel.Kernel.layout)
  in
  let ft_detected, ft_latency_s, ft_rounds, () =
    armed_gettid scenario ~config:overhead_satin_config ~window_s ~launch:ignore
  in
  { ft_detected; ft_latency_s; ft_rounds; ft_faults = Injector.fault_events injector }

(* One row per plan. [fp_key] names the plan: the plan itself for
   [inject], its timer-drop probability for [degrade]. *)
type 'k fault_row = {
  fp_key : 'k;
  fp_trials : int;
  fp_detected : int;
  fp_latency : Stats.t;
  fp_rounds : float;
  fp_faults : float;
}

type 'k fault_result = { fp_rows : 'k fault_row list; fp_window_s : int }
type inject_result = Fault_plan.t fault_result
type degrade_result = float fault_result

let fault_row ~trials key slice =
  let latency = Stats.create () in
  Array.iter (fun ft -> Option.iter (Stats.add latency) ft.ft_latency_s) slice;
  let mean_of f =
    Array.fold_left (fun acc ft -> acc +. float_of_int (f ft)) 0.0 slice
    /. float_of_int trials
  in
  {
    fp_key = key;
    fp_trials = trials;
    fp_detected =
      Array.fold_left (fun acc ft -> if ft.ft_detected then acc + 1 else acc) 0 slice;
    fp_latency = latency;
    fp_rounds = mean_of (fun ft -> ft.ft_rounds);
    fp_faults = mean_of (fun ft -> ft.ft_faults);
  }

(* [trials] campaigns per key under the key's [plan]. The plan (with its
   severity parameters) is part of every trial's key: a campaign under
   [Drop_timer_irqs] can never be served the clean [Control] record of the
   same seed, or vice versa. *)
let run_faults ~experiment ~plan ~pool ~seed ~trials ~window_s keys =
  let keys = Array.of_list keys in
  let results =
    Memo.map pool ~experiment ~seed
      ~config:
        [ ("trials", string_of_int trials); ("window_s", string_of_int window_s) ]
      ~trial_config:(fun i ->
        [ ("plan", Fault_plan.to_string (plan keys.(i / trials))) ])
      (Array.length keys * trials)
      (fun i ->
        fault_campaign_trial ~seed:(derive seed i) ~window_s
          (plan keys.(i / trials)))
  in
  {
    fp_rows =
      List.mapi
        (fun ki key -> fault_row ~trials key (Array.sub results (ki * trials) trials))
        (Array.to_list keys);
    fp_window_s = window_s;
  }

let run_inject ?(pool = Runner.sequential) ?(seed = 42) ?(trials = 4)
    ?(window_s = 30) ?(plans = Fault_plan.catalogue) () =
  run_faults ~experiment:"inject" ~plan:Fun.id ~pool ~seed ~trials ~window_s plans

(* A timer-drop probability as a plan: none at all is the clean control. *)
let drop_plan prob =
  if prob <= 0.0 then Fault_plan.Control else Fault_plan.Drop_timer_irqs { prob }

let run_degrade ?(pool = Runner.sequential) ?(seed = 42) ?(trials = 4)
    ?(window_s = 30) ?(drop_probs = [ 0.0; 0.2; 0.4; 0.6 ]) () =
  run_faults ~experiment:"degrade" ~plan:drop_plan ~pool ~seed ~trials ~window_s
    drop_probs

(* [column]/[cell] head and render the key column, [count] names the
   perturbation column ("faults", "drops") and its JSON mean. *)
let print_faults ~title ~column ~cell ~count ~footer fmt r =
  section fmt (Printf.sprintf title r.fp_window_s);
  table fmt
    ~header:[ column; "detected"; "first alarm (avg)"; "rounds"; count ]
    (List.map
       (fun row ->
         [
           cell row.fp_key;
           Printf.sprintf "%d/%d" row.fp_detected row.fp_trials;
           stat_cell secs row.fp_latency;
           Printf.sprintf "%.1f" row.fp_rounds;
           Printf.sprintf "%.1f" row.fp_faults;
         ])
       r.fp_rows);
  Format.fprintf fmt "%s@." footer

let faults_json ~key ~count r =
  Json.Obj
    [
      ("window_s", Json.Int r.fp_window_s);
      ( "rows",
        json_rows
          (fun row ->
            [
              key row.fp_key;
              ("trials", Json.Int row.fp_trials);
              ("detected", Json.Int row.fp_detected);
              ("first_alarm_s", Summary.stats row.fp_latency);
              ("rounds_mean", Json.float row.fp_rounds);
              (count ^ "_mean", Json.float row.fp_faults);
            ])
          r.fp_rows );
    ]

let print_inject =
  print_faults
    ~title:"Fault injection: SATIN detection rate per fault plan (%d s window)"
    ~column:"fault plan" ~cell:Fault_plan.to_string ~count:"faults"
    ~footer:
      "timer and switch faults starve rounds; scheduling pressure should not \
       touch the secure-world cadence"

let print_degrade =
  print_faults
    ~title:
      "Graceful degradation: detection vs secure-timer drop rate (%d s window)"
    ~column:"drop prob" ~cell:(Printf.sprintf "%.2f") ~count:"drops"
    ~footer:
      "dropped wake-ups kill cores' round chains one by one: coverage decays \
       smoothly rather than collapsing"

let inject_spec =
  spec "inject" "Fault injection: SATIN detection rate per fault plan"
    print_inject
    (faults_json ~count:"faults" ~key:(fun p ->
         ("plan", Json.String (Fault_plan.to_string p))))
    (fun ~pool ~seed ~quick ->
      run_inject ~pool ~seed
        ~trials:(if quick then 2 else 4)
        ~window_s:(if quick then 25 else 30)
        ())

let degrade_spec =
  spec "degrade" "Graceful degradation vs secure-timer drop severity"
    print_degrade
    (faults_json ~count:"drops" ~key:(fun p -> ("drop_prob", Json.float p)))
    (fun ~pool ~seed ~quick ->
      run_degrade ~pool ~seed
        ~trials:(if quick then 2 else 4)
        ~window_s:(if quick then 25 else 30)
        ())

(* ------------------------------------------------------------------ *)
(* Fleet — per-device detection/overhead sweep (sharded campaigns)     *)
(* ------------------------------------------------------------------ *)

(* The fleet experiment models a deployment: hundreds of devices, each a
   fresh Juno with its own PRNG stream, running SATIN under one of a few
   device classes (probing cadence × randomization posture) against a
   persistent rootkit and the worst-case UnixBench workload. Device [i]'s
   class is [i mod #classes] and its seed [derive seed i], so the device
   population is determined by the index alone — growing [devices] (or
   sweeping it across shards) only appends devices, every existing
   per-device record stays valid. *)

type fleet_class = { fc_tp_s : float; fc_randomized : bool }

let fleet_classes =
  List.concat_map
    (fun tp ->
      [
        { fc_tp_s = tp; fc_randomized = true };
        { fc_tp_s = tp; fc_randomized = false };
      ])
    [ 0.5; 1.0; 2.0; 4.0 ]

type fleet_device = {
  fd_detected : bool;
  fd_latency_s : float option; (** arm -> first alarmed round's wake-up, s *)
  fd_rounds : int;
  fd_score : float; (** workload throughput with SATIN running *)
}

let fleet_class_of ~trial_index =
  List.nth fleet_classes (trial_index mod List.length fleet_classes)

let fleet_device_trial ~seed ~window_s ~trial_index =
  let cls = fleet_class_of ~trial_index in
  Scenario.with_ ~seed:(derive seed trial_index) @@ fun s ->
  let config =
    {
      Satin_def.t_goal = whole_t_goal cls.fc_tp_s;
      randomize_area = cls.fc_randomized;
      randomize_period = cls.fc_randomized;
      randomize_core = cls.fc_randomized;
    }
  in
  let fd_detected, fd_latency_s, fd_rounds, inst =
    armed_gettid s ~config ~window_s ~launch:(fun () ->
        Unixbench.launch s.Scenario.kernel file_copy_256 ~copies:1 ())
  in
  let fd_score = Unixbench.score inst ~at:(Scenario.now s) in
  { fd_detected; fd_latency_s; fd_rounds; fd_score }

(* The overhead denominator: the same workload on a device with no SATIN
   at all. Class-independent, so a handful of seed-varied baselines serve
   the whole fleet; the seed offset keeps baseline devices disjoint from
   fleet devices of the same index. *)
let fleet_baseline_trial ~seed ~window_s ~trial_index =
  unixbench_score ~seed:(derive seed (0x5EED + trial_index))
    ~program:file_copy_256 ~copies:1 ~window_s ()

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

let run_fleet ?(pool = Runner.sequential) ?(seed = 42) ?(devices = 240)
    ?(window_s = 20) () =
  if devices < 1 then invalid_arg "run_fleet: need at least one device";
  (* [devices] stays out of the key config: a device's record depends only
     on its own identity, so a grown (or sharded) fleet reuses every
     already-computed device. *)
  let results =
    Memo.map pool ~experiment:"fleet" ~seed
      ~config:[ ("window_s", string_of_int window_s) ]
      ~trial_config:(fun i ->
        let c = fleet_class_of ~trial_index:i in
        [
          ("tp_s", keyf c.fc_tp_s);
          ("randomized", if c.fc_randomized then "1" else "0");
        ])
      devices
      (fun i -> fleet_device_trial ~seed ~window_s ~trial_index:i)
  in
  let nbase = min devices 8 in
  let baselines =
    Memo.map pool ~experiment:"fleet-baseline" ~seed
      ~config:[ ("window_s", string_of_int window_s) ]
      nbase
      (fun i -> fleet_baseline_trial ~seed ~window_s ~trial_index:i)
  in
  let baseline =
    Array.fold_left ( +. ) 0.0 baselines /. float_of_int nbase
  in
  let ncls = List.length fleet_classes in
  let rows =
    List.filteri
      (fun ci _ -> ci < devices) (* small fleets may not reach every class *)
      (List.mapi
         (fun ci cls ->
           let members = ref [] in
           Array.iteri
             (fun i d -> if i mod ncls = ci then members := d :: !members)
             results;
           let members = !members in
           let n = List.length members in
           let latency = Stats.create () in
           List.iter
             (fun d -> Option.iter (Stats.add latency) d.fd_latency_s)
             members;
           let mean f =
             if n = 0 then 0.0
             else
               List.fold_left (fun a d -> a +. f d) 0.0 members
               /. float_of_int n
           in
           {
             fr_tp_s = cls.fc_tp_s;
             fr_randomized = cls.fc_randomized;
             fr_devices = n;
             fr_detected =
               List.fold_left
                 (fun a d -> if d.fd_detected then a + 1 else a)
                 0 members;
             fr_latency = latency;
             fr_rounds = mean (fun d -> float_of_int d.fd_rounds);
             fr_overhead_pct =
               (if baseline <= 0.0 then 0.0
                else
                  100.0 *. (baseline -. mean (fun d -> d.fd_score))
                  /. baseline);
           })
         fleet_classes)
  in
  let fleet_latency = Stats.create () in
  Array.iter
    (fun d -> Option.iter (Stats.add fleet_latency) d.fd_latency_s)
    results;
  {
    fl_rows = rows;
    fl_devices = devices;
    fl_window_s = window_s;
    fl_baseline = baseline;
    fl_detected =
      Array.fold_left
        (fun a d -> if d.fd_detected then a + 1 else a)
        0 results;
    fl_latency = fleet_latency;
  }

let print_fleet fmt r =
  section fmt
    (Printf.sprintf
       "Fleet: per-device detection & overhead, %d device(s), %d s window"
       r.fl_devices r.fl_window_s);
  table fmt
    ~header:
      [
        "tp"; "randomized"; "devices"; "detected"; "first alarm (avg)";
        "rounds"; "overhead";
      ]
    (List.map
       (fun row ->
         [
           Printf.sprintf "%.1f s" row.fr_tp_s;
           (if row.fr_randomized then "yes" else "no");
           string_of_int row.fr_devices;
           Printf.sprintf "%d/%d" row.fr_detected row.fr_devices;
           stat_cell secs row.fr_latency;
           Printf.sprintf "%.1f" row.fr_rounds;
           Report.pct row.fr_overhead_pct;
         ])
       r.fl_rows);
  Format.fprintf fmt
    "fleet-wide: %d/%d device(s) alarmed%s; baseline score %.1f@."
    r.fl_detected r.fl_devices
    (if Stats.is_empty r.fl_latency then ""
     else
       Printf.sprintf ", first alarm avg %.1f s" (Stats.mean r.fl_latency))
    r.fl_baseline

let fleet_json r =
  Json.Obj
    [
      ("devices", Json.Int r.fl_devices);
      ("window_s", Json.Int r.fl_window_s);
      ("baseline_score", Json.float r.fl_baseline);
      ("detected", Json.Int r.fl_detected);
      ("first_alarm_s", Summary.stats r.fl_latency);
      ( "rows",
        json_rows
          (fun row ->
            [
              ("tp_s", Json.float row.fr_tp_s);
              ("randomized", Json.Bool row.fr_randomized);
              ("devices", Json.Int row.fr_devices);
              ("detected", Json.Int row.fr_detected);
              ("first_alarm_s", Summary.stats row.fr_latency);
              ("rounds_mean", Json.float row.fr_rounds);
              ("overhead_pct", Json.float row.fr_overhead_pct);
            ])
          r.fl_rows );
    ]

let fleet_spec =
  spec ~kind:Deployment "fleet" "Fleet: per-device detection & overhead sweep"
    print_fleet fleet_json (fun ~pool ~seed ~quick ->
      run_fleet ~pool ~seed
        ~devices:(if quick then 16 else 240)
        ~window_s:(if quick then 10 else 20)
        ())

(* ------------------------------------------------------------------ *)
(* Cache fidelity — prober mode x replacement policy x AutoLock        *)
(* ------------------------------------------------------------------ *)

(* Each cell runs the full modeled stack: a scan driver streams a 2 MiB
   kernel range through core 1's hierarchy at randomized intervals, one
   CFS spinner per core supplies benign footprint traffic, and the cache
   prober watches in the cell's fidelity mode over the cell's cache
   configuration. Ground truth comes from the driver's own scan
   intervals, so detection rate and false alarms are exact. *)

type cache_cell = {
  cc_fidelity : Cache_prober.fidelity;
  cc_policy : Cache_policy.kind;
  cc_autolock : bool;
}

let cache_cells =
  List.concat_map
    (fun fidelity ->
      List.concat_map
        (fun policy ->
          [
            { cc_fidelity = fidelity; cc_policy = policy; cc_autolock = false };
            { cc_fidelity = fidelity; cc_policy = policy; cc_autolock = true };
          ])
        Cache_policy.all)
    [ Cache_prober.Abstract; Cache_prober.Prime_probe; Cache_prober.Evict_reload ]

let cache_config_of_cell cell =
  {
    Cache.default_config with
    Cache.policy = cell.cc_policy;
    autolock = cell.cc_autolock;
  }

type cache_trial = {
  ctr_scans : int;
  ctr_detected : int;
  ctr_alarms : int;
  ctr_false_alarms : int;
}

(* The introspected range: the first 2 MiB of the kernel image — big
   enough to sweep every L2 set of the default geometry (1 MiB) twice,
   small enough for a ~20 ms scan, so a 200 us-period prober sees many
   rounds inside each scan. *)
let cache_scan_len layout = min (Layout.total_size layout) (2 * 1024 * 1024)

let cache_fidelity_trial ~seed ~trials ~window_s ~cells ~trial_index =
  let cell = cells.(trial_index / trials) in
  Scenario.with_ ~seed:(derive seed trial_index)
    ~cache:(cache_config_of_cell cell)
  @@ fun s ->
  let platform = s.Scenario.platform in
  let engine = Scenario.engine s in
  let kernel = s.Scenario.kernel in
  (* One CFS spinner per core: its 8 KiB dispatch footprint is the benign
     traffic the modeled probers must not mistake for introspection. *)
  Array.iteri
    (fun i _ ->
      Satin_kernel.Kernel.spawn kernel
        (Satin_kernel.Task.create
           ~name:(Printf.sprintf "spin/%d" i)
           ~policy:Satin_kernel.Task.Cfs ~affinity:i
           ~body:(fun _ ->
             {
               Satin_kernel.Task.cpu = Sim_time.us 80;
               after = (fun () -> Satin_kernel.Task.Sleep (Sim_time.us 420));
             })
           ()))
    platform.Platform.cores;
  let layout = kernel.Satin_kernel.Kernel.layout in
  let kbase = Layout.base layout in
  let scan_len = cache_scan_len layout in
  ignore (Checker.enroll s.Scenario.checker ~base:kbase ~len:scan_len);
  let prober =
    Cache_prober.deploy kernel
      {
        Cache_prober.default_config with
        Cache_prober.fidelity = cell.cc_fidelity;
        er_region = Some (kbase, scan_len);
      }
  in
  (* Scan driver on core 1 (cluster 0; the prober's cluster-0 thread sits
     on core 0, so every detection is cross-core): baseline.ml's pattern,
     with randomized inter-scan gaps from the scenario's split stream. *)
  let scan_prng = Platform.split_prng platform in
  let cpu = Platform.core platform 1 in
  let scans = ref [] in
  let rec arm_next () =
    let gap = Prng.uniform scan_prng 0.25 0.6 in
    ignore
      (Engine.schedule engine ~after:(Sim_time.of_sec_f gap) (fun () -> scan ()))
  and scan () =
    if Cpu.in_secure cpu then arm_next ()
    else
      Monitor.enter_secure platform.Platform.monitor ~cpu
        ~payload:(fun () ->
          let t0 = Engine.now engine in
          Checker.start_scan s.Scenario.checker ~engine ~core:cpu ~base:kbase
            ~len:scan_len
            ~on_verdict:(fun _ -> scans := (t0, Engine.now engine) :: !scans))
        ~on_exit:(fun () -> arm_next ())
        ()
  in
  arm_next ();
  Scenario.run_for s (Sim_time.s window_s);
  Cache_prober.retire prober;
  let dets = Cache_prober.detections prober in
  let period_s = sec Cache_prober.default_config.Cache_prober.period in
  (* A scan counts as detected when cluster 0 alarmed between its start and
     two probe periods past its end (the retrospective window). *)
  let detected =
    List.fold_left
      (fun acc (t0, t1) ->
        let lo = sec t0 and hi = sec t1 +. (2.0 *. period_s) in
        if
          List.exists
            (fun d ->
              d.Cache_prober.det_cluster = 0
              &&
              let ts = sec d.Cache_prober.det_time in
              ts >= lo && ts <= hi)
            dets
        then acc + 1
        else acc)
      0 !scans
  in
  {
    ctr_scans = List.length !scans;
    ctr_detected = detected;
    ctr_alarms = List.length dets;
    ctr_false_alarms = Cache_prober.false_alarms prober;
  }

type cache_row = {
  cr_fidelity : Cache_prober.fidelity;
  cr_policy : Cache_policy.kind;
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
  cv_l1_rate : float;
  cv_l2_rate : float;
  cv_mem_rate : float;
}

(* Cachetrace-style validation: steady-state hit rates of three canonical
   working sets against the default geometry. A working set inside the
   32 KiB L1 must hit L1 ~always; one inside the 1 MiB L2 but past the L1
   must hit L2 ~always; a 4 MiB stream must miss both. *)
let cache_validation_workloads =
  [
    ("hot loop", 16 * 1024);
    ("L2-resident", 512 * 1024);
    ("streaming", 4 * 1024 * 1024);
  ]

let cache_validation_row (name, bytes) =
  let cache = Cache.create ~clusters:[| [| 0 |] |] Cache.default_config in
  let line = Cache.line_size cache in
  let lines = bytes / line in
  let base = 1 lsl 20 in
  for i = 0 to lines - 1 do
    ignore (Cache.touch cache ~core:0 ~addr:(base + (i * line)))
  done;
  let l1 = ref 0 and l2 = ref 0 and mem = ref 0 in
  for i = 0 to lines - 1 do
    match Cache.touch cache ~core:0 ~addr:(base + (i * line)) with
    | 0 -> incr l1
    | 1 -> incr l2
    | _ -> incr mem
  done;
  let total = float_of_int lines in
  {
    cv_name = name;
    cv_bytes = bytes;
    cv_l1_rate = float_of_int !l1 /. total;
    cv_l2_rate = float_of_int !l2 /. total;
    cv_mem_rate = float_of_int !mem /. total;
  }

type cache_fidelity_result = {
  cf_rows : cache_row list;
  cf_validation : cache_validation_row list;
  cf_trials : int;
  cf_window_s : int;
}

let run_cache_fidelity ?(pool = Runner.sequential) ?(seed = 42) ?(trials = 2)
    ?(window_s = 10) () =
  let cells = Array.of_list cache_cells in
  let results =
    Memo.map pool ~experiment:"cache-fidelity" ~seed
      ~config:
        [ ("trials", string_of_int trials); ("window_s", string_of_int window_s) ]
      ~trial_config:(fun i ->
        let cell = cells.(i / trials) in
        ("fidelity", Cache_prober.fidelity_to_string cell.cc_fidelity)
        :: Cache.config_to_key (cache_config_of_cell cell))
      (Array.length cells * trials)
      (fun i -> cache_fidelity_trial ~seed ~trials ~window_s ~cells ~trial_index:i)
  in
  let rows =
    List.mapi
      (fun ci cell ->
        let slice = Array.sub results (ci * trials) trials in
        let sum f = Array.fold_left (fun a t -> a + f t) 0 slice in
        {
          cr_fidelity = cell.cc_fidelity;
          cr_policy = cell.cc_policy;
          cr_autolock = cell.cc_autolock;
          cr_trials = trials;
          cr_scans = sum (fun t -> t.ctr_scans);
          cr_detected = sum (fun t -> t.ctr_detected);
          cr_alarms = sum (fun t -> t.ctr_alarms);
          cr_false_alarms = sum (fun t -> t.ctr_false_alarms);
        })
      cache_cells
  in
  {
    cf_rows = rows;
    cf_validation = List.map cache_validation_row cache_validation_workloads;
    cf_trials = trials;
    cf_window_s = window_s;
  }

let print_cache_fidelity fmt r =
  section fmt
    (Printf.sprintf
       "Cache fidelity: prober mode x replacement policy x AutoLock (%d \
        trial(s)/cell, %d s windows)"
       r.cf_trials r.cf_window_s);
  table fmt
    ~header:
      [ "mode"; "policy"; "AutoLock"; "scans"; "detected"; "false alarms" ]
    (List.map
       (fun row ->
         [
           Cache_prober.fidelity_to_string row.cr_fidelity;
           Cache_policy.kind_to_string row.cr_policy;
           (if row.cr_autolock then "on" else "off");
           string_of_int row.cr_scans;
           (if row.cr_scans = 0 then "n/a"
            else
              Printf.sprintf "%d/%d (%.0f%%)" row.cr_detected row.cr_scans
                (100.0
                *. float_of_int row.cr_detected
                /. float_of_int row.cr_scans));
           string_of_int row.cr_false_alarms;
         ])
       r.cf_rows);
  table fmt
    ~header:[ "working set"; "size"; "L1 hits"; "L2 hits"; "memory" ]
    (List.map
       (fun v ->
         [
           v.cv_name;
           Printf.sprintf "%d KiB" (v.cv_bytes / 1024);
           Report.pct (100.0 *. v.cv_l1_rate);
           Report.pct (100.0 *. v.cv_l2_rate);
           Report.pct (100.0 *. v.cv_mem_rate);
         ])
       r.cf_validation);
  Format.fprintf fmt
    "AutoLock pins the attacker's L1-resident eviction sets against the \
     scanning core: prime+probe detection collapses (or, under LRU, drowns \
     in locked-set false alarms); evict+reload survives via own-line \
     re-eviction, random replacement defeats single-pass eviction outright; \
     the abstract rows are cache-blind controls@."

let cache_fidelity_json r =
  Json.Obj
    [
      ("trials", Json.Int r.cf_trials);
      ("window_s", Json.Int r.cf_window_s);
      ( "rows",
        json_rows
          (fun row ->
            [
              ("fidelity", Json.String (Cache_prober.fidelity_to_string row.cr_fidelity));
              ("policy", Json.String (Cache_policy.kind_to_string row.cr_policy));
              ("autolock", Json.Bool row.cr_autolock);
              ("scans", Json.Int row.cr_scans);
              ("detected", Json.Int row.cr_detected);
              ("alarms", Json.Int row.cr_alarms);
              ("false_alarms", Json.Int row.cr_false_alarms);
            ])
          r.cf_rows );
      ( "validation",
        json_rows
          (fun row ->
            [
              ("workload", Json.String row.cv_name);
              ("bytes", Json.Int row.cv_bytes);
              ("l1_rate", Json.float row.cv_l1_rate);
              ("l2_rate", Json.float row.cv_l2_rate);
              ("mem_rate", Json.float row.cv_mem_rate);
            ])
          r.cf_validation );
    ]

let cache_fidelity_spec =
  spec "cache-fidelity"
    "Side-channel fidelity grid: prober mode x replacement policy x AutoLock"
    print_cache_fidelity cache_fidelity_json (fun ~pool ~seed ~quick ->
      run_cache_fidelity ~pool ~seed
        ~trials:(if quick then 1 else 2)
        ~window_s:(if quick then 6 else 10)
        ())

(* ------------------------------------------------------------------ *)
(* Every spec, in paper (campaign) order                               *)
(* ------------------------------------------------------------------ *)

let specs =
  [
    e1_spec; table1_spec; e3_spec; uprober_spec; table2_spec; e6_spec;
    race_spec; timeline_spec; evasion_spec; areas_spec; detect_spec; fig7_spec;
    ablation_spec; dkom_spec; cache_channel_spec; cache_fidelity_spec;
    sweep_spec; inject_spec; degrade_spec; fleet_spec;
  ]
