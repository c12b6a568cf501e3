open Satin_engine

let feed xs =
  let s = Stats.create () in
  List.iter (Stats.add s) xs;
  s

let checkf = Alcotest.(check (float 1e-9))

let test_basic () =
  let s = feed [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "count" 4 (Stats.count s);
  checkf "mean" 2.5 (Stats.mean s);
  checkf "min" 1.0 (Stats.min s);
  checkf "max" 4.0 (Stats.max s);
  checkf "total" 10.0 (Stats.total s)

let test_stddev () =
  let s = feed [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  (* population sd of this classic set is 2; sample sd = sqrt(32/7) *)
  checkf "sample stddev" (sqrt (32.0 /. 7.0)) (Stats.stddev s);
  let single = feed [ 42.0 ] in
  checkf "single sample sd" 0.0 (Stats.stddev single)

let test_empty_raises () =
  let s = Stats.create () in
  Alcotest.(check bool) "is_empty" true (Stats.is_empty s);
  (try
     ignore (Stats.mean s);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_quantiles () =
  let s = feed [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  checkf "median" 3.0 (Stats.median s);
  checkf "q0" 1.0 (Stats.quantile s 0.0);
  checkf "q1" 5.0 (Stats.quantile s 1.0);
  checkf "q25" 2.0 (Stats.quantile s 0.25);
  (* interpolation between order statistics *)
  let s2 = feed [ 0.0; 10.0 ] in
  checkf "interpolated median" 5.0 (Stats.median s2)

let test_quantile_unsorted_input () =
  let s = feed [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  checkf "median of shuffled" 3.0 (Stats.median s)

let test_add_after_quantile () =
  (* The sorted cache must be invalidated by a later add. *)
  let s = feed [ 1.0; 3.0 ] in
  checkf "median before" 2.0 (Stats.median s);
  Stats.add s 100.0;
  checkf "median after add" 3.0 (Stats.median s)

let test_boxplot_no_outliers () =
  let s = feed [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  let b = Stats.boxplot s in
  checkf "median" 3.0 b.Stats.median;
  checkf "q1" 2.0 b.Stats.q1;
  checkf "q3" 4.0 b.Stats.q3;
  checkf "low whisker" 1.0 b.Stats.low_whisker;
  checkf "high whisker" 5.0 b.Stats.high_whisker;
  Alcotest.(check int) "no outliers" 0 (List.length b.Stats.outliers)

let test_boxplot_outlier () =
  let s = feed [ 1.0; 2.0; 3.0; 4.0; 100.0 ] in
  let b = Stats.boxplot s in
  Alcotest.(check (list (float 1e-9))) "outlier found" [ 100.0 ] b.Stats.outliers;
  checkf "high whisker excludes outlier" 4.0 b.Stats.high_whisker

let test_add_time () =
  let s = Stats.create () in
  Stats.add_time s (Sim_time.ms 2);
  checkf "seconds conversion" 0.002 (Stats.mean s)

let test_to_array_order () =
  let s = feed [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check (array (float 1e-9))) "insertion order" [| 3.0; 1.0; 2.0 |]
    (Stats.to_array s)

let test_append () =
  let s = feed [ 5.0; 1.0 ] in
  checkf "median before" 3.0 (Stats.median s);
  let a = feed [ 4.0 ] and b = feed [ 2.0; 9.0 ] in
  List.iter (Stats.append s) [ a; Stats.create (); b ];
  let check_samples what expected t =
    Alcotest.(check (array (float 1e-9))) what expected (Stats.to_array t)
  in
  check_samples "sources appended in order" [| 5.0; 1.0; 4.0; 2.0; 9.0 |] s;
  checkf "sorted cache invalidated" 4.0 (Stats.median s);
  (* Appending shares sample arrays: later adds on either side stay
     their own. *)
  Stats.add b 8.0;
  Stats.add s 7.0;
  check_samples "adds after an append" [| 5.0; 1.0; 4.0; 2.0; 9.0; 7.0 |] s;
  check_samples "source still usable" [| 2.0; 9.0; 8.0 |] b;
  let u = feed [ 0.5 ] in
  Stats.append u s;
  check_samples "appended stats carry their own runs"
    [| 0.5; 5.0; 1.0; 4.0; 2.0; 9.0; 7.0 |] u;
  Alcotest.(check int) "count" 7 (Stats.count u);
  checkf "min" 0.5 (Stats.min u);
  checkf "max" 9.0 (Stats.max u);
  checkf "total" 28.5 (Stats.total u)

let test_summary_row () =
  let s = feed [ 1e-4; 2e-4; 3e-4 ] in
  Alcotest.(check string) "paper format" "2.00e-04 / 3.00e-04 / 1.00e-04"
    (Stats.summary_row s)

let test_running_matches_exact () =
  let xs = List.init 1000 (fun i -> float_of_int ((i * 37) mod 101)) in
  let exact = feed xs in
  let r = Stats.Running.create () in
  List.iter (Stats.Running.add r) xs;
  checkf "mean" (Stats.mean exact) (Stats.Running.mean r);
  Alcotest.(check (float 1e-6)) "stddev" (Stats.stddev exact) (Stats.Running.stddev r);
  checkf "min" (Stats.min exact) (Stats.Running.min r);
  checkf "max" (Stats.max exact) (Stats.Running.max r);
  Alcotest.(check (float 1e-6)) "total" (Stats.total exact) (Stats.Running.total r)


let test_histogram () =
  let s = feed [ 0.0; 0.5; 1.0; 1.5; 2.0 ] in
  let h = Stats.histogram s ~bins:2 in
  (match h with
  | [ (e0, c0); (e1, c1) ] ->
      checkf "first edge" 0.0 e0;
      checkf "second edge" 1.0 e1;
      Alcotest.(check int) "low bin" 2 c0;
      Alcotest.(check int) "high bin (max inclusive)" 3 c1
  | _ -> Alcotest.fail "two bins expected");
  let const = feed [ 5.0; 5.0; 5.0 ] in
  (match Stats.histogram const ~bins:4 with
  | (_, c) :: rest ->
      Alcotest.(check int) "constant sample in one bin" 3 c;
      List.iter (fun (_, c) -> Alcotest.(check int) "others empty" 0 c) rest
  | [] -> Alcotest.fail "bins expected");
  try
    ignore (Stats.histogram s ~bins:0);
    Alcotest.fail "zero bins accepted"
  with Invalid_argument _ -> ()

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile monotone in q"
    QCheck.(list_of_size Gen.(2 -- 50) (float_bound_inclusive 100.0))
    (fun xs ->
      let s = feed xs in
      let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 1.0 ] in
      let vals = List.map (Stats.quantile s) qs in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-12 && mono rest
        | _ -> true
      in
      mono vals)

let test_nan_rejected () =
  let s = feed [ 1.0; 2.0 ] in
  Alcotest.(check bool) "add nan raises" true
    (try
       Stats.add s Float.nan;
       false
     with Invalid_argument _ -> true);
  (* The rejected sample must not have touched the accumulator. *)
  Alcotest.(check int) "count unchanged" 2 (Stats.count s);
  checkf "mean unchanged" 1.5 (Stats.mean s);
  let r = Stats.Running.create () in
  Stats.Running.add r 1.0;
  Alcotest.(check bool) "Running.add nan raises" true
    (try
       Stats.Running.add r (0.0 /. 0.0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "running count unchanged" 1 (Stats.Running.count r)

let test_infinities_accepted () =
  (* The contract draws the line at NaN: infinities order correctly. *)
  let s = feed [ 1.0; Float.infinity; Float.neg_infinity ] in
  Alcotest.(check int) "count" 3 (Stats.count s);
  Alcotest.(check bool) "min is -inf" true (Stats.min s = Float.neg_infinity);
  Alcotest.(check bool) "max is +inf" true (Stats.max s = Float.infinity)

let prop_mean_between_min_max =
  QCheck.Test.make ~name:"min <= mean <= max"
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let s = feed xs in
      Stats.min s <= Stats.mean s +. 1e-9 && Stats.mean s <= Stats.max s +. 1e-9)

let suite =
  [
    Alcotest.test_case "basic" `Quick test_basic;
    Alcotest.test_case "stddev" `Quick test_stddev;
    Alcotest.test_case "empty raises" `Quick test_empty_raises;
    Alcotest.test_case "quantiles" `Quick test_quantiles;
    Alcotest.test_case "quantile unsorted" `Quick test_quantile_unsorted_input;
    Alcotest.test_case "cache invalidation" `Quick test_add_after_quantile;
    Alcotest.test_case "boxplot no outliers" `Quick test_boxplot_no_outliers;
    Alcotest.test_case "boxplot outlier" `Quick test_boxplot_outlier;
    Alcotest.test_case "add_time" `Quick test_add_time;
    Alcotest.test_case "to_array order" `Quick test_to_array_order;
    Alcotest.test_case "append" `Quick test_append;
    Alcotest.test_case "summary row format" `Quick test_summary_row;
    Alcotest.test_case "running matches exact" `Quick test_running_matches_exact;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "nan rejected" `Quick test_nan_rejected;
    Alcotest.test_case "infinities accepted" `Quick test_infinities_accepted;
    QCheck_alcotest.to_alcotest prop_quantile_monotone;
    QCheck_alcotest.to_alcotest prop_mean_between_min_max;
  ]
