open Satin_engine

(* Drain the queue, asserting the 100M-event guard was not what stopped it. *)
let drain e =
  match Engine.run_all e () with
  | Engine.Drained -> ()
  | Engine.Limit_hit -> Alcotest.fail "run_all hit its event limit"

let test_clock_starts_zero () =
  let e = Engine.create () in
  Alcotest.(check int) "boot time" 0 (Engine.now e)

let test_schedule_and_run () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~after:(Sim_time.ms 5) (fun () -> fired := 5 :: !fired));
  ignore (Engine.schedule e ~after:(Sim_time.ms 1) (fun () -> fired := 1 :: !fired));
  drain e;
  Alcotest.(check (list int)) "fired in time order" [ 1; 5 ] (List.rev !fired);
  Alcotest.(check int) "clock at last event" (Sim_time.ms 5) (Engine.now e)

let test_run_until_advances_clock () =
  let e = Engine.create () in
  Engine.run_until e (Sim_time.s 3);
  Alcotest.(check int) "clock advanced with empty queue" (Sim_time.s 3) (Engine.now e)

let test_run_until_inclusive () =
  let e = Engine.create () in
  let hits = ref 0 in
  ignore (Engine.schedule e ~after:(Sim_time.s 1) (fun () -> incr hits));
  ignore (Engine.schedule e ~after:(Sim_time.s 2) (fun () -> incr hits));
  Engine.run_until e (Sim_time.s 1);
  Alcotest.(check int) "boundary event fires" 1 !hits;
  Engine.run_until e (Sim_time.s 5);
  Alcotest.(check int) "rest fires" 2 !hits

let test_now_visible_in_callback () =
  let e = Engine.create () in
  let seen = ref 0 in
  ignore (Engine.schedule e ~after:(Sim_time.us 7) (fun () -> seen := Engine.now e));
  drain e;
  Alcotest.(check int) "now inside callback" (Sim_time.us 7) !seen

let test_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~after:1 (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule e ~after:1 (fun () -> log := "inner" :: !log))));
  drain e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check int) "clock" 2 (Engine.now e)

let test_cancel () =
  let e = Engine.create () in
  let hit = ref false in
  let h = Engine.schedule e ~after:1 (fun () -> hit := true) in
  Engine.cancel e h;
  drain e;
  Alcotest.(check bool) "cancelled never fires" false !hit

let test_schedule_in_past_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay" Engine.Schedule_in_past (fun () ->
      ignore (Engine.schedule e ~after:(-1) (fun () -> ())));
  Engine.run_until e (Sim_time.s 1);
  Alcotest.check_raises "absolute past" Engine.Schedule_in_past (fun () ->
      ignore (Engine.at e ~time:(Sim_time.ms 500) (fun () -> ())))

let test_every () =
  let e = Engine.create () in
  let hits = ref 0 in
  let handle = Engine.every e ~period:(Sim_time.ms 10) (fun () -> incr hits) in
  Engine.run_until e (Sim_time.ms 35);
  Alcotest.(check int) "three periods" 3 !hits;
  Engine.cancel e !handle;
  Engine.run_until e (Sim_time.ms 100);
  Alcotest.(check int) "stopped" 3 !hits

let test_every_with_start () =
  let e = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.every e ~period:(Sim_time.ms 10) ~start:(Sim_time.ms 5) (fun () ->
         times := Engine.now e :: !times));
  Engine.run_until e (Sim_time.ms 26);
  Alcotest.(check (list int)) "start offset respected"
    [ Sim_time.ms 5; Sim_time.ms 15; Sim_time.ms 25 ]
    (List.rev !times)


let test_every_cancel_from_callback () =
  (* The .mli contract: cancelling the returned ref from inside the callback
     stops the recurrence. *)
  let e = Engine.create () in
  let hits = ref 0 in
  let handle = ref (Obj.magic 0) in
  handle :=
    Engine.every e ~period:(Sim_time.ms 10) (fun () ->
        incr hits;
        if !hits = 3 then Engine.cancel e !(!handle));
  Engine.run_until e (Sim_time.ms 200);
  Alcotest.(check int) "stopped from inside" 3 !hits

let test_every_no_throwaway_entry () =
  (* Regression: [every] used to push a placeholder event just to have a
     handle for the ref, leaking one dead entry per recurrence set up. The
     only pending event must be the first real occurrence. *)
  let e = Engine.create () in
  ignore (Engine.every e ~period:(Sim_time.ms 10) (fun () -> ()));
  Alcotest.(check int) "exactly one pending event" 1 (Engine.pending e)

let test_every_past_start_raises () =
  let e = Engine.create () in
  Engine.run_until e (Sim_time.ms 100);
  Alcotest.check_raises "past start rejected"
    (Invalid_argument "Engine.every: ~start is in the past") (fun () ->
      ignore
        (Engine.every e ~period:(Sim_time.ms 10) ~start:(Sim_time.ms 50)
           (fun () -> ())));
  (* A rejected recurrence must not leave a pending event behind. *)
  Alcotest.(check int) "nothing scheduled" 0 (Engine.pending e)

let test_every_start_now_allowed () =
  (* ~start = now is the boundary: allowed, fires immediately. *)
  let e = Engine.create () in
  Engine.run_until e (Sim_time.ms 5);
  let hits = ref 0 in
  ignore
    (Engine.every e ~period:(Sim_time.ms 10) ~start:(Sim_time.ms 5) (fun () ->
         incr hits));
  Engine.run_until e (Sim_time.ms 5);
  Alcotest.(check int) "fires at start=now" 1 !hits

let test_step () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~after:1 (fun () -> ()));
  Alcotest.(check bool) "step true" true (Engine.step e);
  Alcotest.(check bool) "step false when empty" false (Engine.step e)

let test_run_all_limit () =
  let e = Engine.create () in
  let rec reschedule () = ignore (Engine.schedule e ~after:1 reschedule) in
  reschedule ();
  (match Engine.run_all e ~limit:100 () with
  | Engine.Limit_hit -> ()
  | Engine.Drained -> Alcotest.fail "self-rescheduling queue reported Drained");
  Alcotest.(check int) "bounded by limit" 100 (Engine.now e);
  Alcotest.(check bool) "work still pending" true (Engine.pending e > 0)

let test_run_all_outcomes () =
  (* Exactly [limit] events with nothing left over is a drain, not a hit. *)
  let e = Engine.create () in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~after:i (fun () -> ()))
  done;
  (match Engine.run_all e ~limit:10 () with
  | Engine.Drained -> ()
  | Engine.Limit_hit -> Alcotest.fail "exact drain misreported as Limit_hit");
  (* An empty queue drains trivially. *)
  match Engine.run_all e () with
  | Engine.Drained -> ()
  | Engine.Limit_hit -> Alcotest.fail "empty queue hit a limit"

let test_every_rearm_allocation_free () =
  (* A pure periodic-timer workload must stay within 2 minor words per
     event in steady state: the re-arm is one heap push of the same
     closure and [run_until] dispatches in batches, and neither allocates
     once the slot table has grown. *)
  let e = Engine.create () in
  let hits = ref 0 in
  ignore (Engine.every e ~period:(Sim_time.us 1) (fun () -> incr hits));
  (* Warm-up: slot-table growth and closure knots. *)
  Engine.run_until e (Sim_time.ms 1);
  let c0 = !hits in
  let w0 = Gc.minor_words () in
  Engine.run_until e (Sim_time.ms 11);
  let events = !hits - c0 in
  let per_event = (Gc.minor_words () -. w0) /. float_of_int events in
  Alcotest.(check bool) "fired plenty" true (events >= 9_000);
  if per_event > 2.0 then
    Alcotest.failf "periodic re-arm allocates %.2f words/event (want <= 2)"
      per_event

let test_pending () =
  let e = Engine.create () in
  Alcotest.(check int) "empty" 0 (Engine.pending e);
  let h = Engine.schedule e ~after:1 (fun () -> ()) in
  ignore (Engine.schedule e ~after:2 (fun () -> ()));
  Alcotest.(check int) "two" 2 (Engine.pending e);
  Engine.cancel e h;
  Alcotest.(check int) "one after cancel" 1 (Engine.pending e)

let suite =
  [
    Alcotest.test_case "clock starts at zero" `Quick test_clock_starts_zero;
    Alcotest.test_case "schedule and run" `Quick test_schedule_and_run;
    Alcotest.test_case "run_until advances clock" `Quick test_run_until_advances_clock;
    Alcotest.test_case "run_until inclusive" `Quick test_run_until_inclusive;
    Alcotest.test_case "now visible in callback" `Quick test_now_visible_in_callback;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "past rejected" `Quick test_schedule_in_past_rejected;
    Alcotest.test_case "every" `Quick test_every;
    Alcotest.test_case "every with start" `Quick test_every_with_start;
    Alcotest.test_case "every cancel from callback" `Quick test_every_cancel_from_callback;
    Alcotest.test_case "every: no throwaway entry" `Quick
      test_every_no_throwaway_entry;
    Alcotest.test_case "every: past start raises" `Quick
      test_every_past_start_raises;
    Alcotest.test_case "every: start=now allowed" `Quick
      test_every_start_now_allowed;
    Alcotest.test_case "step" `Quick test_step;
    Alcotest.test_case "run_all limit" `Quick test_run_all_limit;
    Alcotest.test_case "run_all outcomes" `Quick test_run_all_outcomes;
    Alcotest.test_case "every: re-arm allocation-free" `Quick
      test_every_rearm_allocation_free;
    Alcotest.test_case "pending" `Quick test_pending;
  ]
