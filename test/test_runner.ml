open Satin_runner
module Obs = Satin_obs.Obs
module Metrics = Satin_obs.Metrics
module Prng = Satin_engine.Prng

(* A trial body with enough per-trial work that a 4-domain pool genuinely
   interleaves claims, yet a result that depends only on the index. *)
let busy_trial i =
  let prng = Prng.create (Prng.derive 42 i) in
  let acc = ref 0.0 in
  for _ = 1 to 1_000 do
    acc := !acc +. Prng.float01 prng
  done;
  (i, !acc)

let test_submission_order () =
  let pool = Runner.create ~clamp:false ~jobs:4 () in
  let results = Runner.map pool 100 busy_trial in
  Alcotest.(check int) "all trials ran" 100 (Array.length results);
  Array.iteri
    (fun i (j, _) -> Alcotest.(check int) "index in submission slot" i j)
    results

let test_parallel_matches_sequential () =
  let seq = Runner.map Runner.sequential 50 busy_trial in
  let par = Runner.map (Runner.create ~clamp:false ~jobs:4 ()) 50 busy_trial in
  Alcotest.(check bool) "identical results" true (seq = par)

let test_empty_and_negative () =
  let pool = Runner.create ~clamp:false ~jobs:4 () in
  Alcotest.(check int) "empty batch" 0 (Array.length (Runner.map pool 0 busy_trial));
  try
    ignore (Runner.map pool (-1) busy_trial);
    Alcotest.fail "negative batch accepted"
  with Invalid_argument _ -> ()

let test_create_rejects_bad_jobs () =
  try
    ignore (Runner.create ~jobs:0 ());
    Alcotest.fail "jobs=0 accepted"
  with Invalid_argument _ -> ()

(* The clamp caps dispatch width at the host's core count while the
   requested width stays visible for reporting; ~clamp:false (which the
   rest of this suite uses to genuinely exercise the multi-domain path on
   small hosts) keeps the requested width. *)
let test_jobs_clamped_to_cores () =
  let cores = Domain.recommended_domain_count () in
  let over = Runner.create ~jobs:(cores + 7) () in
  Alcotest.(check int) "requested width kept" (cores + 7) (Runner.jobs over);
  Alcotest.(check int) "dispatch width clamped" cores
    (Runner.effective_jobs over);
  let under = Runner.create ~jobs:1 () in
  Alcotest.(check int) "within-cores width untouched" 1
    (Runner.effective_jobs under);
  let unclamped = Runner.create ~clamp:false ~jobs:(cores + 7) () in
  Alcotest.(check int) "clamp:false keeps requested width" (cores + 7)
    (Runner.effective_jobs unclamped);
  (* A clamped pool still runs every trial and preserves order. *)
  let results = Runner.map over 25 busy_trial in
  Alcotest.(check int) "clamped pool ran the batch" 25 (Array.length results);
  Array.iteri (fun i (j, _) -> Alcotest.(check int) "order" i j) results

exception Boom of int

(* Whatever domain finishes first, the re-raised failure must be the
   lowest-indexed one — the same exception a sequential run stops on. *)
let test_exception_propagation () =
  List.iter
    (fun jobs ->
      let pool = Runner.create ~clamp:false ~jobs () in
      try
        ignore
          (Runner.map pool 20 (fun i ->
               ignore (busy_trial i);
               if i mod 7 = 3 then raise (Boom i);
               i));
        Alcotest.fail "expected Boom"
      with Boom i ->
        Alcotest.(check int)
          (Printf.sprintf "lowest failure at jobs=%d" jobs)
          3 i)
    [ 1; 4 ]

(* All trials run to completion even when one fails early: the pool's
   failure policy is collect-then-raise, not cancel. *)
let test_failure_does_not_cancel () =
  let ran = Array.make 10 false in
  (try
     ignore
       (Runner.map (Runner.create ~clamp:false ~jobs:4 ()) 10 (fun i ->
            ran.(i) <- true;
            if i = 0 then failwith "early"))
   with Failure _ -> ());
  Array.iteri
    (fun i r -> Alcotest.(check bool) (Printf.sprintf "trial %d ran" i) true r)
    ran

let test_nested_use_rejected () =
  List.iter
    (fun jobs ->
      let pool = Runner.create ~clamp:false ~jobs () in
      let inner = Runner.create () in
      try
        ignore
          (Runner.map pool 2 (fun _ -> ignore (Runner.map inner 2 busy_trial)));
        Alcotest.failf "nested map accepted at jobs=%d" jobs
      with Invalid_argument _ -> ())
    [ 1; 4 ];
  (* The rejection flag must not stick after a batch completes. *)
  let pool = Runner.create ~clamp:false ~jobs:4 () in
  ignore (Runner.map pool 4 busy_trial);
  ignore (Runner.map pool 4 busy_trial)

let test_wall_clock_recorded () =
  let pool = Runner.create ~clamp:false ~jobs:2 () in
  ignore (Runner.map pool 8 busy_trial);
  Alcotest.(check bool) "wall clock non-negative" true
    (Runner.last_batch_wall_s pool >= 0.0)

(* A sink does not narrow the pool, and the batch is fully accounted:
   same results, the trial count in the deterministic registry, and each
   domain's share — which scheduling decides — in the wall-clock one. *)
let test_metrics_under_sink () =
  let obs = Obs.create () in
  Obs.install obs;
  Fun.protect ~finally:Obs.uninstall (fun () ->
      let pool = Runner.create ~clamp:false ~jobs:4 () in
      let results = Runner.map pool 12 busy_trial in
      Alcotest.(check bool) "results unchanged under sink" true
        (results = Runner.map Runner.sequential 12 busy_trial);
      let m = Obs.metrics obs and wall = Obs.wall_metrics obs in
      Alcotest.(check (option int)) "trials counted" (Some 24)
        (Metrics.counter_value m "runner.trials");
      Alcotest.(check (option int)) "batches counted" (Some 2)
        (Metrics.counter_value m "runner.batches");
      let shares = ref 0.0 in
      Metrics.iter_sorted wall (fun name _ v ->
          match v with
          | `Histogram s when name = "runner.domain_trials" ->
              shares := !shares +. Satin_engine.Stats.total s
          | _ -> ());
      Alcotest.(check (float 0.0)) "every trial on some domain" 24.0 !shares;
      Alcotest.(check (option (float 0.0))) "the pool ran 4 wide" (Some 4.0)
        (Option.map Satin_engine.Stats.max
           (Metrics.histogram_stats wall "runner.jobs_effective"));
      Alcotest.(check (option (float 0.0))) "queue drained" (Some 0.0)
        (Metrics.gauge_value m "runner.queue_depth"))

let suite =
  [
    Alcotest.test_case "submission order" `Quick test_submission_order;
    Alcotest.test_case "parallel = sequential" `Quick test_parallel_matches_sequential;
    Alcotest.test_case "empty and negative batches" `Quick test_empty_and_negative;
    Alcotest.test_case "bad jobs rejected" `Quick test_create_rejects_bad_jobs;
    Alcotest.test_case "jobs clamped to cores" `Quick test_jobs_clamped_to_cores;
    Alcotest.test_case "lowest-index exception wins" `Quick test_exception_propagation;
    Alcotest.test_case "failure does not cancel" `Quick test_failure_does_not_cancel;
    Alcotest.test_case "nested use rejected" `Quick test_nested_use_rejected;
    Alcotest.test_case "wall clock recorded" `Quick test_wall_clock_recorded;
    Alcotest.test_case "metrics under sink" `Quick test_metrics_under_sink;
  ]
