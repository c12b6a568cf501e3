module Race = Satin.Race
module Report = Satin.Report
module Stats = Satin_engine.Stats

let p = Race.paper_worst_case

let test_paper_s_bound () =
  Alcotest.(check int) "S bound" 1_218_351 (Race.s_bound p)

let test_tns_delay () =
  Alcotest.(check (float 1e-12)) "Tns_delay" 2.0e-3 (Race.tns_delay p)

let test_unprotected_fraction () =
  let f = Race.unprotected_fraction p ~kernel_size:11_916_240 in
  if Float.abs (f -. 0.898) > 0.002 then Alcotest.failf "fraction %g" f

let test_evasion_threshold () =
  let s = Race.s_bound p in
  Alcotest.(check bool) "at the bound, evasion loses" false
    (Race.evasion_succeeds p ~s:(s - 1));
  Alcotest.(check bool) "beyond the bound, evasion wins" true
    (Race.evasion_succeeds p ~s:(s + 1000))

let test_scan_vs_hide_time () =
  Alcotest.(check (float 1e-12)) "hide time" 8.13e-3 (Race.hide_time p);
  let t0 = Race.scan_time p ~bytes:0 in
  Alcotest.(check (float 1e-15)) "scan time at 0 bytes is the switch" 3.60e-6 t0

let test_of_cycle_close_to_paper () =
  let q =
    Race.of_cycle Satin_hw.Cycle_model.default ~checker_core:Satin_hw.Cycle_model.A57
      ~evader_core:Satin_hw.Cycle_model.A53
  in
  Alcotest.(check bool) "bound within 1 byte" true
    (abs (Race.s_bound q - 1_218_351) <= 1)

let test_max_area_size_below_smallest_violating () =
  (* Every canonical area respects the SATIN bound. *)
  let bound = Race.max_area_size p in
  let areas = Satin_introspect.Area.of_layout (Satin_kernel.Layout.paper_layout ()) in
  List.iter
    (fun a ->
      if a.Satin_introspect.Area.size >= bound then Alcotest.fail "area too big")
    areas

let test_monotonicity_properties () =
  (* Faster recovery helps the attacker: bound shrinks. *)
  let faster = { p with Race.tns_recover = p.Race.tns_recover /. 2.0 } in
  Alcotest.(check bool) "faster hide -> smaller S" true
    (Race.s_bound faster < Race.s_bound p);
  (* Slower checker byte rate shrinks the byte bound too. *)
  let slow_checker = { p with Race.ts_1byte = p.Race.ts_1byte *. 2.0 } in
  Alcotest.(check bool) "slower checker -> smaller byte horizon" true
    (Race.s_bound slow_checker < Race.s_bound p);
  (* A larger probing threshold (worse prober) helps the defender... wait:
     threshold enters the attacker's delay, so a LARGER threshold means the
     attacker reacts later -> larger S horizon for the defender. *)
  let sluggish_prober = { p with Race.tns_threshold = 3.6e-3 } in
  Alcotest.(check bool) "sluggish prober -> larger horizon" true
    (Race.s_bound sluggish_prober > Race.s_bound p)

let test_empty_kernel_rejected () =
  try
    ignore (Race.unprotected_fraction p ~kernel_size:0);
    Alcotest.fail "empty kernel accepted"
  with Invalid_argument _ -> ()


let test_preemptive_scan_time () =
  (* No storm: identical to the plain scan. *)
  Alcotest.(check (float 1e-15)) "no storm"
    (Race.scan_time p ~bytes:100_000)
    (Race.preemptive_scan_time p ~bytes:100_000 ~storm_hz:0.0 ~handler_s:2e-5);
  (* A 20% interrupt load dilates the front by 1.25x. *)
  let plain = Race.scan_time p ~bytes:500_000 in
  let stormed =
    Race.preemptive_scan_time p ~bytes:500_000 ~storm_hz:10_000.0 ~handler_s:2e-5
  in
  Alcotest.(check (float 1e-12)) "20%% load = 1.25x" (plain /. 0.8) stormed;
  try
    ignore (Race.preemptive_scan_time p ~bytes:1 ~storm_hz:100_000.0 ~handler_s:2e-5);
    Alcotest.fail "saturating storm accepted"
  with Invalid_argument _ -> ()

let test_storm_reopens_the_race () =
  (* SATIN's largest area is safe without a storm... *)
  let bytes = 876_616 in
  Alcotest.(check bool) "safe when non-preemptive" true
    (Race.scan_time p ~bytes < Race.hide_time p);
  (* ...but a feasible interrupt storm would reopen the race if the secure
     world were preemptive — the Sec V-B rationale for SCR_EL3.IRQ = 0. *)
  let hz = Race.storm_to_evade p ~bytes ~handler_s:2e-5 in
  Alcotest.(check bool) "finite storm suffices" true
    (hz > 0.0 && hz < 100_000.0);
  let stretched = Race.preemptive_scan_time p ~bytes ~storm_hz:(hz *. 1.1) ~handler_s:2e-5 in
  Alcotest.(check bool) "10%% above the critical rate -> evadable" true
    (stretched > Race.hide_time p);
  (* A deep placement is already evadable: required storm is zero. *)
  Alcotest.(check (float 0.0)) "already lost" 0.0
    (Race.storm_to_evade p ~bytes:5_000_000 ~handler_s:2e-5)

(* ---- report rendering ---- *)

let test_table_rendering () =
  let s = Report.table ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  Alcotest.(check bool) "has rule" true (String.length s > 0);
  let lines = String.split_on_char '\n' (String.trim s) in
  Alcotest.(check int) "header+rule+2 rows" 4 (List.length lines);
  (try
     ignore (Report.table ~header:[ "a" ] [ [ "1"; "2" ] ]);
     Alcotest.fail "arity mismatch accepted"
   with Invalid_argument _ -> ())

let test_sci_format () =
  Alcotest.(check string) "sci" "2.61e-04" (Report.sci 2.61e-4);
  Alcotest.(check string) "pct" "0.711%" (Report.pct 0.711)

let test_boxplot_row () =
  let st = Stats.create () in
  List.iter (Stats.add st) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  let row =
    Report.boxplot_row ~label:"x" (Stats.boxplot st) ~width:21 ~lo:0.0 ~hi:6.0
  in
  Alcotest.(check bool) "median marker present" true (String.contains row '#');
  Alcotest.(check bool) "quartile brackets" true
    (String.contains row '[' && String.contains row ']')

let test_bar () =
  let b = Report.bar ~label:"x" ~value:50.0 ~max_value:100.0 ~width:10 in
  Alcotest.(check bool) "half bar" true
    (String.length (String.concat "" (String.split_on_char ' ' b)) > 5);
  let zero = Report.bar ~label:"x" ~value:0.0 ~max_value:0.0 ~width:10 in
  Alcotest.(check bool) "zero-max safe" true (String.length zero > 0)

let suite =
  [
    Alcotest.test_case "paper S bound" `Quick test_paper_s_bound;
    Alcotest.test_case "Tns_delay" `Quick test_tns_delay;
    Alcotest.test_case "unprotected fraction ~90%" `Quick test_unprotected_fraction;
    Alcotest.test_case "evasion threshold (Eq. 1)" `Quick test_evasion_threshold;
    Alcotest.test_case "scan vs hide time" `Quick test_scan_vs_hide_time;
    Alcotest.test_case "of_cycle consistent" `Quick test_of_cycle_close_to_paper;
    Alcotest.test_case "areas below bound" `Quick test_max_area_size_below_smallest_violating;
    Alcotest.test_case "monotonicity" `Quick test_monotonicity_properties;
    Alcotest.test_case "empty kernel rejected" `Quick test_empty_kernel_rejected;
    Alcotest.test_case "preemptive scan time" `Quick test_preemptive_scan_time;
    Alcotest.test_case "storm reopens the race" `Quick test_storm_reopens_the_race;
    Alcotest.test_case "table rendering" `Quick test_table_rendering;
    Alcotest.test_case "sci/pct formats" `Quick test_sci_format;
    Alcotest.test_case "boxplot row" `Quick test_boxplot_row;
    Alcotest.test_case "bar" `Quick test_bar;
  ]
