open Satin_engine

let test_fifo_same_time () =
  let q = Event_queue.create () in
  ignore (Event_queue.push q ~time:5 "a");
  ignore (Event_queue.push q ~time:5 "b");
  ignore (Event_queue.push q ~time:5 "c");
  let pop () = match Event_queue.pop q with Some (_, v) -> v | None -> "?" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "insertion order at equal time"
    [ "a"; "b"; "c" ] [ first; second; third ]

let test_time_order () =
  let q = Event_queue.create () in
  ignore (Event_queue.push q ~time:30 3);
  ignore (Event_queue.push q ~time:10 1);
  ignore (Event_queue.push q ~time:20 2);
  let times = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (t, v) ->
        times := (t, v) :: !times;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (pair int int)))
    "sorted" [ (10, 1); (20, 2); (30, 3) ] (List.rev !times)

let test_cancel () =
  let q = Event_queue.create () in
  let h1 = ignore (Event_queue.push q ~time:1 "keep"); Event_queue.push q ~time:2 "drop" in
  Alcotest.(check int) "two live" 2 (Event_queue.length q);
  Event_queue.cancel q h1;
  Alcotest.(check int) "one live" 1 (Event_queue.length q);
  Alcotest.(check bool) "handle dead" false (Event_queue.is_live q h1);
  (match Event_queue.pop q with
  | Some (_, v) -> Alcotest.(check string) "survivor" "keep" v
  | None -> Alcotest.fail "expected survivor");
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

let test_cancel_idempotent () =
  let q = Event_queue.create () in
  let h = Event_queue.push q ~time:1 () in
  Event_queue.cancel q h;
  Event_queue.cancel q h;
  Alcotest.(check int) "still zero" 0 (Event_queue.length q)

let test_peek_skips_cancelled () =
  let q = Event_queue.create () in
  let h = Event_queue.push q ~time:1 "x" in
  ignore (Event_queue.push q ~time:5 "y");
  Event_queue.cancel q h;
  Alcotest.(check (option int)) "peek live" (Some 5) (Event_queue.peek_time q);
  Alcotest.(check int) "peek_time_or live" 5
    (Event_queue.peek_time_or q ~default:(-1))

let test_pop_empty () =
  let q : unit Event_queue.t = Event_queue.create () in
  Alcotest.(check bool) "pop empty" true (Event_queue.pop q = None);
  Alcotest.(check bool) "peek empty" true (Event_queue.peek_time q = None);
  Alcotest.(check int) "peek_time_or empty" (-1)
    (Event_queue.peek_time_or q ~default:(-1));
  Alcotest.(check bool) "pop_into empty" false
    (Event_queue.pop_into q (fun _ _ -> Alcotest.fail "callback on empty"))

let test_pop_into () =
  let q = Event_queue.create () in
  ignore (Event_queue.push q ~time:7 "late");
  ignore (Event_queue.push q ~time:3 "early");
  let got = ref [] in
  let f time v = got := (time, v) :: !got in
  Alcotest.(check bool) "first" true (Event_queue.pop_into q f);
  Alcotest.(check bool) "second" true (Event_queue.pop_into q f);
  Alcotest.(check bool) "drained" false (Event_queue.pop_into q f);
  Alcotest.(check (list (pair int string)))
    "time order via pop_into"
    [ (3, "early"); (7, "late") ]
    (List.rev !got)

let test_pop_into_reentrant_push () =
  (* The drain callback may push: the engine's event bodies schedule
     follow-ups while the queue is mid-pop. *)
  let q = Event_queue.create () in
  ignore (Event_queue.push q ~time:1 `Seed);
  let fired = ref 0 in
  let rec f _time v =
    incr fired;
    (match v with
    | `Seed ->
        ignore (Event_queue.push q ~time:2 `Child);
        ignore (Event_queue.push q ~time:3 `Child)
    | `Child -> ());
    ignore (Event_queue.invariant_violations q = [])
  and drain () = if Event_queue.pop_into q f then drain () in
  drain ();
  Alcotest.(check int) "seed plus two children" 3 !fired;
  Alcotest.(check (list string)) "clean after reentrant drain" []
    (Event_queue.invariant_violations q)

let test_growth () =
  let q = Event_queue.create () in
  for i = 999 downto 0 do
    ignore (Event_queue.push q ~time:i i)
  done;
  Alcotest.(check int) "length" 1000 (Event_queue.length q);
  for i = 0 to 999 do
    match Event_queue.pop q with
    | Some (t, v) ->
        Alcotest.(check int) "time" i t;
        Alcotest.(check int) "value" i v
    | None -> Alcotest.fail "missing event"
  done

let test_stale_handle_after_recycle () =
  (* Slots are recycled through the free-list; a handle to a fired event
     must stay dead even after its slot is reused, and cancelling it must
     not touch the new occupant. *)
  let q = Event_queue.create () in
  let h_old = Event_queue.push q ~time:1 "old" in
  ignore (Event_queue.pop q);
  Alcotest.(check bool) "fired handle dead" false (Event_queue.is_live q h_old);
  let h_new = Event_queue.push q ~time:2 "new" in
  Event_queue.cancel q h_old;
  Alcotest.(check bool) "recycled occupant unharmed" true
    (Event_queue.is_live q h_new);
  Alcotest.(check int) "still one live" 1 (Event_queue.length q);
  (match Event_queue.pop q with
  | Some (_, v) -> Alcotest.(check string) "new survives stale cancel" "new" v
  | None -> Alcotest.fail "expected new event");
  (* Same for a cancelled-then-recycled slot. *)
  let h_c = Event_queue.push q ~time:3 "cancelled" in
  Event_queue.cancel q h_c;
  Alcotest.(check bool) "drained tombstone" true (Event_queue.pop q = None);
  let h_n2 = Event_queue.push q ~time:4 "again" in
  Event_queue.cancel q h_c;
  Alcotest.(check bool) "second occupant unharmed" true
    (Event_queue.is_live q h_n2)

let test_fired_payloads_collectible () =
  (* Regression for the space leak: popped (and cancelled) slots must not
     keep a strong reference to the payload, or a long-lived queue pins
     every closure it ever fired. *)
  let q = Event_queue.create () in
  let w = Weak.create 2 in
  let () =
    (* Allocate in a local scope so the only strong refs are the queue's. *)
    let popped = Bytes.create 64 in
    let cancelled = Bytes.create 64 in
    Weak.set w 0 (Some popped);
    Weak.set w 1 (Some cancelled);
    ignore (Event_queue.push q ~time:1 popped);
    let h = Event_queue.push q ~time:2 cancelled in
    ignore (Event_queue.pop q);
    Event_queue.cancel q h;
    (* The cancelled entry is dropped lazily; draining reaches it. *)
    ignore (Event_queue.pop q)
  in
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "popped payload collected" false (Weak.check w 0);
  Alcotest.(check bool) "cancelled payload collected" false (Weak.check w 1);
  (* The queue itself must survive the test (keep it live past the GC). *)
  Alcotest.(check bool) "queue empty" true (Event_queue.is_empty q)

let test_dispatch_allocation_free () =
  (* The perf contract behind BENCH_engine.json: draining through
     [pop_into] with a preallocated callback allocates nothing per event.
     Warm the queue, then measure [Gc.minor_words] across the drain. *)
  let q = Event_queue.create () in
  let n = 10_000 in
  let sink = ref 0 in
  let f _time v = sink := !sink + v in
  for i = 0 to n - 1 do
    ignore (Event_queue.push q ~time:(i land 1023) i)
  done;
  let w0 = Gc.minor_words () in
  let rec drain () = if Event_queue.pop_into q f then drain () in
  drain ();
  let per_event = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "all events dispatched" (n * (n - 1) / 2) !sink;
  if per_event > 0.5 then
    Alcotest.failf "pop_into allocates %.2f words/event (want 0)" per_event

(* ---- far-future events, tombstones, batches ----

   The first four case names come from an earlier timing-wheel queue; the
   cases stay as black-box inputs, with times spread over many magnitudes
   and cancellations in between. *)

let far_time = (1 lsl 33) + 12_345 (* ~8.6 s out at nanosecond ticks *)

let test_tombstone_purge_reaches_overflow () =
  (* Regression (found by the qcheck model): once the nearer events are
     fired or cancelled, a peek must skip the tombstone and reach the one
     far-future event rather than reporting the queue empty. *)
  let q = Event_queue.create () in
  ignore (Event_queue.push q ~time:100 "a");
  let hb = Event_queue.push q ~time:200 "b" in
  ignore (Event_queue.push q ~time:far_time "far");
  (match Event_queue.pop q with
  | Some (100, "a") -> ()
  | _ -> Alcotest.fail "expected event a");
  (* Only a tombstone remains ahead of the sole live, far-future event. *)
  Event_queue.cancel q hb;
  Alcotest.(check (option int)) "peek purges through to the heap"
    (Some far_time) (Event_queue.peek_time q);
  let got = ref [] in
  let n =
    Event_queue.drain_batch q ~max_events:max_int (fun t v ->
        got := (t, v) :: !got)
  in
  Alcotest.(check int) "one event drained" 1 n;
  Alcotest.(check (list (pair int string))) "the far event fires"
    [ (far_time, "far") ] !got;
  Alcotest.(check bool) "drained" true (Event_queue.is_empty q);
  Alcotest.(check (list string)) "clean after purge-then-jump" []
    (Event_queue.invariant_violations q)

let test_overflow_tier_refill () =
  (* A far-future event pushed before a near one fires after it, at its own
     time. *)
  let q = Event_queue.create () in
  ignore (Event_queue.push q ~time:far_time "far");
  ignore (Event_queue.push q ~time:10 "near");
  Alcotest.(check (option int)) "near first" (Some 10) (Event_queue.peek_time q);
  Alcotest.(check (list string)) "clean with overflow entry" []
    (Event_queue.invariant_violations q);
  (match Event_queue.pop q with
  | Some (10, "near") -> ()
  | _ -> Alcotest.fail "expected near event");
  (match Event_queue.pop q with
  | Some (t, "far") -> Alcotest.(check int) "far fires at its time" far_time t
  | _ -> Alcotest.fail "expected far event");
  Alcotest.(check bool) "drained" true (Event_queue.is_empty q);
  Alcotest.(check (list string)) "clean after refill" []
    (Event_queue.invariant_violations q)

let test_cancel_mid_cascade () =
  (* Two near-simultaneous events, the later one cancelled before either
     fires: the tombstone must never fire, and dropping it must leave the
     structure clean. *)
  let q = Event_queue.create () in
  let doomed = Event_queue.push q ~time:100_000 "doomed" in
  ignore (Event_queue.push q ~time:99_999 "walker");
  Event_queue.cancel q doomed;
  Alcotest.(check int) "one live" 1 (Event_queue.length q);
  (match Event_queue.pop q with
  | Some (99_999, "walker") -> ()
  | _ -> Alcotest.fail "expected walker");
  Alcotest.(check bool) "tombstone never fires" true (Event_queue.pop q = None);
  Alcotest.(check (list string)) "clean after tombstone drop" []
    (Event_queue.invariant_violations q)

let test_stale_handle_across_cascade () =
  (* A handle to a fired event must stay dead after its slot is recycled
     by a later push. *)
  let q = Event_queue.create () in
  let h = Event_queue.push q ~time:5_000 "first" in
  (match Event_queue.pop q with
  | Some (_, "first") -> ()
  | _ -> Alcotest.fail "expected first");
  let h2 = Event_queue.push q ~time:6_000 "second" in
  Event_queue.cancel q h;
  Alcotest.(check bool) "stale handle dead" false (Event_queue.is_live q h);
  Alcotest.(check bool) "recycled occupant alive" true
    (Event_queue.is_live q h2);
  (match Event_queue.pop q with
  | Some (_, "second") -> ()
  | _ -> Alcotest.fail "expected second")

let test_drain_batch_cap_and_order () =
  let q = Event_queue.create () in
  for i = 0 to 4 do
    ignore (Event_queue.push q ~time:9 i)
  done;
  let got = ref [] in
  let clean_mid = ref true in
  let f _ v =
    if Event_queue.invariant_violations q <> [] then clean_mid := false;
    got := v :: !got
  in
  let n1 = Event_queue.drain_batch q ~max_events:2 f in
  Alcotest.(check int) "capped at 2" 2 n1;
  Alcotest.(check (list string)) "clean between capped batches" []
    (Event_queue.invariant_violations q);
  let n2 = Event_queue.drain_batch q ~max_events:max_int f in
  Alcotest.(check int) "remainder" 3 n2;
  Alcotest.(check bool) "invariants hold mid-batch" true !clean_mid;
  Alcotest.(check (list int)) "seq order across capped batches" [ 0; 1; 2; 3; 4 ]
    (List.rev !got)

let test_cancel_mid_batch_suppresses () =
  (* A callback cancelling a later event of the same batch must suppress
     it, exactly as one-at-a-time popping would. *)
  let q = Event_queue.create () in
  ignore (Event_queue.push q ~time:3 "a");
  let b = Event_queue.push q ~time:3 "b" in
  ignore (Event_queue.push q ~time:3 "c");
  let fired = ref [] in
  let n =
    Event_queue.drain_batch q ~max_events:max_int (fun _ v ->
        Event_queue.cancel q b;
        fired := v :: !fired)
  in
  Alcotest.(check int) "two fired" 2 n;
  Alcotest.(check (list string)) "b suppressed" [ "a"; "c" ] (List.rev !fired);
  Alcotest.(check (list string)) "clean after suppressed batch" []
    (Event_queue.invariant_violations q)

let test_nested_drain_rejected () =
  let q = Event_queue.create () in
  (* Two same-tick events: rejected on every dispatch of a batch. *)
  ignore (Event_queue.push q ~time:1 ());
  ignore (Event_queue.push q ~time:1 ());
  let raised = ref 0 in
  let f _ () =
    match Event_queue.pop_into q (fun _ _ -> ()) with
    | exception Invalid_argument _ -> incr raised
    | _ -> ()
  in
  let n = Event_queue.drain_batch q ~max_events:max_int f in
  Alcotest.(check int) "batch dispatched" 2 n;
  Alcotest.(check int) "nested drains rejected" 2 !raised;
  (* A single-event batch must reject re-entry too. *)
  ignore (Event_queue.push q ~time:2 ());
  raised := 0;
  let n = Event_queue.drain_batch q ~max_events:max_int f in
  Alcotest.(check int) "single dispatched" 1 n;
  Alcotest.(check int) "fast path rejects nesting" 1 !raised;
  Alcotest.(check (list string)) "clean after rejections" []
    (Event_queue.invariant_violations q)

let test_batch_rule () =
  (* A callback pushing at its own instant starts the next batch (a),
     unless a peek has already returned a later instant (b): then the
     push joins the batch being drained. *)
  let run ~peek_first =
    let q = Event_queue.create () in
    ignore (Event_queue.push q ~time:5000 "later");
    if peek_first then
      Alcotest.(check (option int)) "peek returns 5000" (Some 5000)
        (Event_queue.peek_time q);
    ignore (Event_queue.push q ~time:100 "first");
    let fired = ref [] in
    let f time v =
      fired := (time, v) :: !fired;
      if v = "first" then ignore (Event_queue.push q ~time "again")
    in
    let n1 = Event_queue.drain_batch q ~max_events:max_int f in
    let n2 = Event_queue.drain_batch q ~max_events:max_int f in
    Alcotest.(check (list string)) "clean after both batches" []
      (Event_queue.invariant_violations q);
    ((n1, n2), List.rev !fired)
  in
  let sizes, fired = run ~peek_first:false in
  Alcotest.(check (pair int int)) "(a) same-instant push starts a batch"
    (1, 1) sizes;
  Alcotest.(check (list (pair int string))) "(a) order"
    [ (100, "first"); (100, "again") ] fired;
  let sizes, fired = run ~peek_first:true in
  Alcotest.(check (pair int int)) "(b) push before a peeked instant joins"
    (2, 1) sizes;
  Alcotest.(check (list (pair int string))) "(b) order"
    [ (100, "first"); (100, "again"); (5000, "later") ] fired

(* Model-based property: the queue against a reference implementation (a
   sorted association list keyed by (time, insertion seq)) under an
   arbitrary interleaving of push / cancel / pop / pop_into / drain / peek.
   Push times mix three magnitudes — small, mid-range and beyond 2^33 — so
   later pushes often land before instants a peek or pop has already
   returned. *)
type op = Push of int | Cancel of int | Pop | Pop_into | Drain_batch | Peek

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun t -> Push t) (int_bound 1000));
        (2, map (fun t -> Push (4096 + (t * 37))) (int_bound 60_000));
        (1, map (fun t -> Push ((1 lsl 33) + (1 lsl 20) + t)) (int_bound 5000));
        (2, map (fun i -> Cancel i) (int_bound 50));
        (2, return Pop);
        (2, return Pop_into);
        (1, return Drain_batch);
        (1, return Peek);
      ])

let op_print = function
  | Push t -> Printf.sprintf "Push %d" t
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Pop -> "Pop"
  | Pop_into -> "Pop_into"
  | Drain_batch -> "Drain_batch"
  | Peek -> "Peek"

let prop_matches_reference_model =
  QCheck.Test.make
    ~name:"queue matches sorted-list model under push/cancel/pop/drain/peek"
    ~count:200
    QCheck.(list_of_size Gen.(0 -- 120) (make ~print:op_print op_gen))
    (fun ops ->
      let q = Event_queue.create () in
      let handles = ref [||] in
      (* model: (seq, time, alive ref) in insertion order *)
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      let model_live () = List.filter (fun (_, _, a) -> !a) !model in
      let model_sorted () =
        List.sort
          (fun (s1, t1, _) (s2, t2, _) -> compare (t1, s1) (t2, s2))
          (model_live ())
      in
      let model_pop () =
        match model_sorted () with
        | [] -> None
        | (s, t, a) :: _ ->
            a := false;
            Some (t, s)
      in
      List.iter
        (fun op ->
          match op with
          | Push t ->
              let h = Event_queue.push q ~time:t !seq in
              handles := Array.append !handles [| h |];
              model := !model @ [ (!seq, t, ref true) ];
              incr seq
          | Cancel i when i < Array.length !handles ->
              Event_queue.cancel q !handles.(i);
              let s, _, a = List.nth !model i in
              assert (s = i);
              a := false
          | Cancel _ -> ()
          | Pop ->
              let got = Event_queue.pop q in
              let want = model_pop () in
              if got <> want then ok := false
          | Pop_into ->
              let got = ref None in
              let popped =
                Event_queue.pop_into q (fun t v -> got := Some (t, v))
              in
              let want = model_pop () in
              if !got <> want || popped <> (want <> None) then ok := false
          | Drain_batch ->
              (* Drain the whole earliest-instant batch: every live model
                 entry sharing the earliest time, in seq order. *)
              let got = ref [] in
              let n =
                Event_queue.drain_batch q ~max_events:max_int (fun t v ->
                    got := (t, v) :: !got)
              in
              let want =
                match model_sorted () with
                | [] -> []
                | (_, t0, _) :: _ ->
                    List.filter_map
                      (fun (s, t, a) ->
                        if t = t0 then begin
                          a := false;
                          Some (t, s)
                        end
                        else None)
                      (model_sorted ())
              in
              if List.rev !got <> want || n <> List.length want then
                ok := false
          | Peek ->
              let want =
                match model_sorted () with (_, t, _) :: _ -> Some t | [] -> None
              in
              if Event_queue.peek_time q <> want then ok := false)
        ops;
      let live_model = List.length (model_live ()) in
      (* Every handle's liveness must agree with the model, including
         handles whose slots have since been recycled. *)
      let handles_agree =
        List.for_all
          (fun (s, _, a) -> Event_queue.is_live q !handles.(s) = !a)
          !model
      in
      !ok && handles_agree
      && Event_queue.length q = live_model
      && Event_queue.invariant_violations q = [])

let prop_heap_orders_any_sequence =
  QCheck.Test.make ~name:"pop yields non-decreasing times"
    QCheck.(list_of_size Gen.(0 -- 200) (int_bound 1000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> ignore (Event_queue.push q ~time:t t)) times;
      let rec drain last =
        match Event_queue.pop q with
        | None -> true
        | Some (t, _) -> t >= last && drain t
      in
      drain min_int)

let prop_cancel_half =
  QCheck.Test.make ~name:"cancelled events never pop"
    QCheck.(list_of_size Gen.(0 -- 100) (int_bound 1000))
    (fun times ->
      let q = Event_queue.create () in
      let handles =
        List.mapi (fun i t -> i, Event_queue.push q ~time:t t) times
      in
      List.iter (fun (i, h) -> if i mod 2 = 0 then Event_queue.cancel q h) handles;
      let rec drain n =
        match Event_queue.pop q with Some _ -> drain (n + 1) | None -> n
      in
      drain 0 = List.length times / 2)

let suite =
  [
    Alcotest.test_case "fifo at same time" `Quick test_fifo_same_time;
    Alcotest.test_case "time order" `Quick test_time_order;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "cancel idempotent" `Quick test_cancel_idempotent;
    Alcotest.test_case "peek skips cancelled" `Quick test_peek_skips_cancelled;
    Alcotest.test_case "pop empty" `Quick test_pop_empty;
    Alcotest.test_case "pop_into" `Quick test_pop_into;
    Alcotest.test_case "pop_into reentrant push" `Quick
      test_pop_into_reentrant_push;
    Alcotest.test_case "growth to 1000" `Quick test_growth;
    Alcotest.test_case "stale handle after slot recycle" `Quick
      test_stale_handle_after_recycle;
    Alcotest.test_case "fired payloads collectible" `Quick
      test_fired_payloads_collectible;
    Alcotest.test_case "pop_into dispatch is allocation-free" `Quick
      test_dispatch_allocation_free;
    Alcotest.test_case "overflow tier refill" `Quick test_overflow_tier_refill;
    Alcotest.test_case "tombstone purge reaches overflow" `Quick
      test_tombstone_purge_reaches_overflow;
    Alcotest.test_case "cancel mid-cascade" `Quick test_cancel_mid_cascade;
    Alcotest.test_case "stale handle across cascade" `Quick
      test_stale_handle_across_cascade;
    Alcotest.test_case "drain_batch cap and order" `Quick
      test_drain_batch_cap_and_order;
    Alcotest.test_case "cancel mid-batch suppresses" `Quick
      test_cancel_mid_batch_suppresses;
    Alcotest.test_case "nested drain rejected" `Quick test_nested_drain_rejected;
    Alcotest.test_case "batch rule" `Quick test_batch_rule;
    QCheck_alcotest.to_alcotest prop_matches_reference_model;
    QCheck_alcotest.to_alcotest prop_heap_orders_any_sequence;
    QCheck_alcotest.to_alcotest prop_cancel_half;
  ]
