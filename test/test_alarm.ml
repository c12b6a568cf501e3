module Scenario = Satin.Scenario
open Satin_introspect
open Satin_engine

let mk_round ?(area = 14) ?(core = 3) ?(offsets = [ 10; 11 ]) ~time () =
  let tampered = offsets <> [] in
  {
    Round.index = 0;
    core;
    area_index = area;
    base = 0x1000;
    len = 64;
    started = time;
    scan_started = time;
    duration = Sim_time.ms 5;
    verdict =
      {
        Checker.v_base = 0x1000;
        v_len = 64;
        v_tampered = tampered;
        v_offsets = offsets;
        v_hash_expected = 1L;
        v_hash_observed = (if tampered then 2L else 1L);
      };
  }

let test_alert_only_by_default () =
  let sink = Alarm.create () in
  Alarm.record_round sink (mk_round ~offsets:[] ~time:(Sim_time.s 1) ());
  Alarm.record_round sink (mk_round ~offsets:[ 5 ] ~time:(Sim_time.s 2) ());
  Alcotest.(check int) "clean rounds not logged" 1 (Alarm.count sink);
  Alcotest.(check int) "one alarm" 1 (List.length (Alarm.alarms sink))

let test_heartbeat_mode () =
  let sink = Alarm.create ~log_clean_rounds:true () in
  Alarm.record_round sink (mk_round ~offsets:[] ~time:(Sim_time.s 1) ());
  Alarm.record_round sink (mk_round ~offsets:[ 5 ] ~time:(Sim_time.s 2) ());
  Alcotest.(check int) "both logged" 2 (Alarm.count sink);
  Alcotest.(check int) "one alarm" 1 (List.length (Alarm.alarms sink));
  match Alarm.entries sink with
  | [ a; b ] ->
      Alcotest.(check bool) "info first" true (a.Alarm.severity = Alarm.Info);
      Alcotest.(check bool) "alert second" true (b.Alarm.severity = Alarm.Alert);
      Alcotest.(check int) "sequenced" 1 b.Alarm.seq
  | _ -> Alcotest.fail "two entries expected"

let test_chain_verifies () =
  let sink = Alarm.create ~log_clean_rounds:true () in
  for i = 1 to 20 do
    Alarm.record_round sink
      (mk_round ~offsets:(if i mod 3 = 0 then [ i ] else []) ~time:(Sim_time.s i) ())
  done;
  Alcotest.(check bool) "chain intact" true (Alarm.verify_chain sink);
  Alcotest.(check bool) "exported chain verifies" true
    (Alarm.verify_entries ~genesis:(Alarm.genesis sink) (Alarm.entries sink))

let test_tampered_log_detected () =
  let sink = Alarm.create ~log_clean_rounds:true () in
  for i = 1 to 5 do
    Alarm.record_round sink (mk_round ~offsets:[ i ] ~time:(Sim_time.s i) ())
  done;
  let entries = Alarm.entries sink in
  (* An attacker rewriting history: drop an alarm from the middle. *)
  let doctored = List.filteri (fun i _ -> i <> 2) entries in
  Alcotest.(check bool) "dropped entry breaks the chain" false
    (Alarm.verify_entries ~genesis:(Alarm.genesis sink) doctored);
  (* ...or whitewash an alarm's offsets. *)
  let whitewashed =
    List.map
      (fun e -> if e.Alarm.seq = 1 then { e with Alarm.offsets = [] } else e)
      entries
  in
  Alcotest.(check bool) "altered entry breaks the chain" false
    (Alarm.verify_entries ~genesis:(Alarm.genesis sink) whitewashed)

let test_on_alarm_hook () =
  let sink = Alarm.create () in
  let seen = ref [] in
  Alarm.on_alarm sink (fun e -> seen := e.Alarm.area_index :: !seen);
  Alarm.record_round sink (mk_round ~area:7 ~offsets:[ 1 ] ~time:Sim_time.zero ());
  Alarm.record_round sink (mk_round ~area:9 ~offsets:[] ~time:Sim_time.zero ());
  Alcotest.(check (list int)) "only alerts fire the hook" [ 7 ] !seen

let test_attached_to_satin_end_to_end () =
  let s = Scenario.create ~seed:81 () in
  let satin =
    Scenario.install_satin s
      ~config:{ Satin.default_config with Satin.t_goal = Sim_time.s 19 }
      ()
  in
  let sink = Alarm.create ~log_clean_rounds:true () in
  Alarm.attach_satin sink satin;
  let rk = Satin_attack.Rootkit.create s.Scenario.kernel ~cleanup_core:0 () in
  Satin_attack.Rootkit.arm rk;
  Scenario.run_for s (Sim_time.s 25);
  Satin.stop satin;
  Alcotest.(check int) "every round chained" (Satin.rounds_count satin)
    (Alarm.count sink);
  Alcotest.(check bool) "alarms present" true (List.length (Alarm.alarms sink) >= 1);
  Alcotest.(check bool) "chain verifies" true (Alarm.verify_chain sink);
  List.iter
    (fun e -> Alcotest.(check int) "alarms are area 14" 14 e.Alarm.area_index)
    (Alarm.alarms sink)

let suite =
  [
    Alcotest.test_case "alert-only default" `Quick test_alert_only_by_default;
    Alcotest.test_case "heartbeat mode" `Quick test_heartbeat_mode;
    Alcotest.test_case "chain verifies" `Quick test_chain_verifies;
    Alcotest.test_case "tampered log detected" `Quick test_tampered_log_detected;
    Alcotest.test_case "on_alarm hook" `Quick test_on_alarm_hook;
    Alcotest.test_case "attached to SATIN" `Quick test_attached_to_satin_end_to_end;
  ]
