(* The end-to-end benchmark's pure parts: span self time, the percentile
   rule, metric-name validation and the result document. *)

module H = E2e_harness
module Json = Satin_obs.Json

let span ?parent id name start_ns stop_ns =
  { H.id; parent; name; start_ns; stop_ns }

let self_of spans id =
  List.assoc id (List.map (fun ((s : H.span), ns) -> (s.id, ns)) (H.self_ns spans))

let test_self_nested () =
  (* root 0..100 holds a 10..40 child with a 15..20 grandchild and a 30..60
     child overlapping the first: the children cover 10..60 once, and the
     grandchild counts against its own parent only. *)
  let spans =
    [
      span 0 "root" 0 100;
      span ~parent:0 1 "a" 10 40;
      span ~parent:1 2 "a.inner" 15 20;
      span ~parent:0 3 "b" 30 60;
    ]
  in
  Alcotest.(check int) "root" 50 (self_of spans 0);
  Alcotest.(check int) "a" 25 (self_of spans 1);
  Alcotest.(check int) "leaf" 5 (self_of spans 2);
  Alcotest.(check int) "b" 30 (self_of spans 3)

let test_self_zero_length () =
  let spans =
    [
      span 0 "root" 0 10;
      span ~parent:0 1 "empty" 5 5;
      span ~parent:0 2 "outside" 8 30;
      span 3 "empty root" 7 7;
    ]
  in
  Alcotest.(check int) "a zero-length child takes nothing" 8 (self_of spans 0);
  Alcotest.(check int) "zero-length span" 0 (self_of spans 1);
  Alcotest.(check int) "child clipped to parent only for the parent" 22
    (self_of spans 2);
  Alcotest.(check int) "zero-length root" 0 (self_of spans 3)

let test_tail_percentile () =
  let p = Alcotest.(option (float 0.)) in
  Alcotest.(check p) "n < 20: median only" None (H.tail_percentile 19);
  Alcotest.(check p) "n = 20: p50 is the highest" None (H.tail_percentile 20);
  Alcotest.(check p) "n = 99: p90 has 9 beyond" None (H.tail_percentile 99);
  Alcotest.(check p) "n = 100: p90" (Some 0.9) (H.tail_percentile 100);
  Alcotest.(check p) "n = 999" (Some 0.9) (H.tail_percentile 999);
  Alcotest.(check p) "n = 1000: p99" (Some 0.99) (H.tail_percentile 1000);
  Alcotest.(check p) "n = 10000: p99.9" (Some 0.999) (H.tail_percentile 10000);
  Alcotest.(check string) "summary below 20"
    "median 2 s (n=3)"
    (H.summarize ~unit_:"s" [ 3.; 1.; 2. ]);
  Alcotest.(check string) "summary with a tail"
    "median 50.5 s, p90 90.1 s (n=100)"
    (H.summarize ~unit_:"s" (List.init 100 (fun i -> float_of_int (i + 1))))

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (H.valid_name n))
    [ "wall_s"; "core.experiment_s.cache-channel"; "A9" ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (H.valid_name n))
    [ ""; "wall s"; "a/b"; "ms\n"; "é" ];
  match
    H.result_to_json
      {
        H.correct = true;
        attempted = 1;
        failed = 0;
        metrics = [ { H.name = "bad name"; unit_ = "s"; value = 1. } ];
      }
  with
  | _ -> Alcotest.fail "an invalid name was emitted"
  | exception Invalid_argument _ -> ()

let test_round_trip () =
  let r =
    {
      H.correct = false;
      attempted = 23;
      failed = 1;
      metrics =
        [
          { H.name = "wall_s"; unit_ = "s"; value = 15.203411 };
          { H.name = "engine.events"; unit_ = "count"; value = 38_800_000. };
          { H.name = "cache.l1_hit_ratio"; unit_ = "ratio"; value = 0.996 };
          { H.name = "store.hits"; unit_ = "count"; value = 0. };
        ];
    }
  in
  let line = Json.to_string (H.result_to_json r) in
  (match Json.parse line with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match H.result_of_json j with
      | Error e -> Alcotest.fail e
      | Ok r' -> Alcotest.(check bool) "result survives the round trip" true (r = r')));
  let s = span ~parent:3 4 "core.render" 1_000_000_000_000 1_000_000_500_000 in
  match H.span_of_json (H.span_to_json s) with
  | Ok s' -> Alcotest.(check bool) "span survives the round trip" true (s = s')
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "bench_e2e"
    [
      ( "harness",
        [
          Alcotest.test_case "self time, nested spans" `Quick test_self_nested;
          Alcotest.test_case "self time, zero-length spans" `Quick
            test_self_zero_length;
          Alcotest.test_case "percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "result JSON round trip" `Quick test_round_trip;
        ] );
    ]
