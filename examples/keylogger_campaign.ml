(* The introduction's motivating APT: a key-logger that intercepts a system
   interrupt and must stay resident to collect keystrokes. It uses TZ-Evader
   to camouflage itself whenever introspection runs. How many keystrokes does
   it capture under each defense?

     dune exec examples/keylogger_campaign.exe *)

module Scenario = Satin.Scenario
module Sim_time = Satin_engine.Sim_time
module Engine = Satin_engine.Engine
module Satin_def = Satin_introspect.Satin
module Baseline = Satin_introspect.Baseline
module Round = Satin_introspect.Round
module Kprober = Satin_attack.Kprober
module Evader = Satin_attack.Evader
module Rootkit = Satin_attack.Rootkit

let campaign_s = 120
let keystroke_period = Sim_time.ms 250 (* a fast typist: 4 keys/s *)

type outcome = {
  label : string;
  captured : int;
  typed : int;
  detections : int;
  first_detection_s : float option;
}

(* Simulated user typing: each keystroke is captured iff the hijack is live
   at that instant (the key-logger's interrupt hook is its attack trace).
   Each run builds its platform with [Scenario.with_], which releases it
   when the run returns: its written pages become garbage, and the
   platform raises if anything still uses it. *)
let run_campaign ~label ~defense seed =
  Scenario.with_ ~seed @@ fun s ->
  let detections = ref 0 in
  let first_detection = ref None in
  let note_round r =
    if Round.detected r then begin
      incr detections;
      if !first_detection = None then
        first_detection := Some (Sim_time.to_sec_f r.Round.started)
    end
  in
  (match defense with
  | `None -> ()
  | `Pkm ->
      let b =
        Scenario.install_baseline s
          {
            Baseline.timing = Baseline.Random_period (Sim_time.s 8);
            core_choice = Baseline.Random_core;
          }
      in
      Baseline.on_round b note_round
  | `Satin ->
      let satin =
        Scenario.install_satin s
          ~config:{ Satin_def.default_config with Satin_def.t_goal = Sim_time.s 76 }
          ()
      in
      Satin_def.on_round satin note_round);
  let evader =
    Evader.deploy s.Scenario.kernel
      {
        Evader.default_config with
        prober = { Kprober.default_config with period = Sim_time.us 500 };
      }
  in
  Evader.start evader;
  let rootkit = Evader.rootkit evader in
  let captured = ref 0 and typed = ref 0 in
  ignore
    (Engine.every (Scenario.engine s) ~period:keystroke_period (fun () ->
         incr typed;
         if Rootkit.hijacked_now rootkit then incr captured));
  Scenario.run_for s (Sim_time.s campaign_s);
  Evader.stop evader;
  {
    label;
    captured = !captured;
    typed = !typed;
    detections = !detections;
    first_detection_s = !first_detection;
  }

let () =
  Printf.printf
    "key-logger APT with TZ-Evader, %d s campaign, %.0f keystrokes/s typed\n\n"
    campaign_s
    (1.0 /. Sim_time.to_sec_f keystroke_period);
  let results =
    [
      run_campaign ~label:"no introspection" ~defense:`None 10;
      run_campaign ~label:"PKM-style full scan" ~defense:`Pkm 11;
      run_campaign ~label:"SATIN" ~defense:`Satin 12;
    ]
  in
  Printf.printf "%-22s %10s %10s %12s %s\n" "defense" "captured" "typed"
    "detections" "first alarm";
  List.iter
    (fun r ->
      Printf.printf "%-22s %10d %10d %12d %s\n" r.label r.captured r.typed
        r.detections
        (match r.first_detection_s with
        | Some t -> Printf.sprintf "at %.1f s" t
        | None -> "never"))
    results;
  print_endline
    "\nUnder SATIN the logger still captures keys between rounds, but every\n\
     pass over the syscall-table area raises an alarm the platform can act\n\
     on; the PKM-style defense never notices anything."
