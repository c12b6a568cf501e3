open Satin_engine

let test_determinism () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_seed_independence () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Int64.equal (Prng.next_int64 a) (Prng.next_int64 b) then incr same
  done;
  Alcotest.(check int) "distinct streams" 0 !same

let test_copy_replays () =
  let a = Prng.create 3 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy replays" (Prng.next_int64 a) (Prng.next_int64 b)

let test_split_diverges () =
  let a = Prng.create 5 in
  let b = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.next_int64 a) (Prng.next_int64 b) then incr same
  done;
  Alcotest.(check int) "split independent" 0 !same

let test_float01_range () =
  let p = Prng.create 11 in
  for _ = 1 to 10_000 do
    let x = Prng.float01 p in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float01 out of range: %f" x
  done

let test_float01_mean () =
  let p = Prng.create 13 in
  let sum = ref 0.0 in
  let n = 100_000 in
  for _ = 1 to n do
    sum := !sum +. Prng.float01 p
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.01 then Alcotest.failf "mean off: %f" mean

let test_int_bounds () =
  let p = Prng.create 17 in
  for _ = 1 to 10_000 do
    let x = Prng.int p 7 in
    if x < 0 || x >= 7 then Alcotest.failf "int out of bound: %d" x
  done;
  (* power of two path *)
  for _ = 1 to 1_000 do
    let x = Prng.int p 8 in
    if x < 0 || x >= 8 then Alcotest.failf "int pow2 out of bound: %d" x
  done

let test_int_uniform () =
  let p = Prng.create 19 in
  let counts = Array.make 5 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let x = Prng.int p 5 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iteri
    (fun i c ->
      let frac = float_of_int c /. float_of_int n in
      if Float.abs (frac -. 0.2) > 0.02 then
        Alcotest.failf "bucket %d skewed: %f" i frac)
    counts

let test_gaussian_moments () =
  let p = Prng.create 23 in
  let n = 100_000 in
  let sum = ref 0.0 and ss = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.gaussian p ~mu:3.0 ~sigma:2.0 in
    sum := !sum +. x;
    ss := !ss +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!ss /. float_of_int n) -. (mean *. mean) in
  if Float.abs (mean -. 3.0) > 0.05 then Alcotest.failf "gaussian mean %f" mean;
  if Float.abs (var -. 4.0) > 0.15 then Alcotest.failf "gaussian var %f" var

let test_exponential_mean () =
  let p = Prng.create 29 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.exponential p ~mean:0.5 in
    if x < 0.0 then Alcotest.fail "exponential negative";
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.02 then Alcotest.failf "exp mean %f" mean

let test_triangular_support_and_mean () =
  let p = Prng.create 31 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.triangular p ~low:1.0 ~mode:2.0 ~high:4.0 in
    if x < 1.0 || x > 4.0 then Alcotest.failf "triangular out of support: %f" x;
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  (* mean of triangular = (low + mode + high) / 3 *)
  if Float.abs (mean -. (7.0 /. 3.0)) > 0.02 then Alcotest.failf "tri mean %f" mean

let test_pareto_support () =
  let p = Prng.create 37 in
  for _ = 1 to 10_000 do
    let x = Prng.pareto p ~scale:2.0 ~shape:3.0 in
    if x < 2.0 then Alcotest.failf "pareto below scale: %f" x
  done

let test_shuffle_permutation () =
  let p = Prng.create 41 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_bernoulli_extremes () =
  let p = Prng.create 43 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Prng.bernoulli p 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always" true (Prng.bernoulli p 1.0)
  done

let test_sim_duration_positive () =
  let p = Prng.create 47 in
  for _ = 1 to 1_000 do
    let d = Prng.sim_duration p ~mean_s:1e-6 ~jitter:0.5 in
    if d <= 0 then Alcotest.fail "sim_duration not positive"
  done

(* Known answers recorded from the boxed-state implementation: the state's
   representation must not change a single output. *)
let test_known_answers () =
  let draws p n = List.init n (fun _ -> Prng.next_int64 p) in
  let check name want got = Alcotest.(check (list int64)) name want got in
  check "create 42" [ -7450291807549245335L; 2958219263312191191L ]
    (draws (Prng.create 42) 2);
  let parent = Prng.create 42 in
  let child = Prng.split parent in
  check "split child"
    [ 3734525477312840781L; -3743987319569077566L; -6540948407623921172L ]
    (draws child 3);
  check "parent after split" [ 2958219263312191191L; 3069497704473277141L ]
    (draws parent 2);
  let c = Prng.copy parent in
  check "copy" [ 885919558081284366L; -353919125003956057L ] (draws c 2);
  check "original after copy" [ 885919558081284366L; -353919125003956057L ]
    (draws parent 2);
  let q = Prng.create 7 in
  let b1 = Prng.bits q in
  let b2 = Prng.bits q in
  let f = Prng.float01 q in
  let i = Prng.int q 1000 in
  Alcotest.(check (list int)) "bits" [ 2418118848055258963; 1393370355107282181 ]
    [ b1; b2 ];
  Alcotest.(check (float 0.0)) "float01" 0x1.e1ca420e19806p-1 f;
  Alcotest.(check int) "int" 718 i

let test_bits_allocation_free () =
  let p = Prng.create 1 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    acc := !acc lxor Prng.bits p
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check (float 0.0)) "minor words for 1e5 draws" 0.0 words

let prop_pick_member =
  QCheck.Test.make ~name:"pick returns a member"
    QCheck.(array_of_size Gen.(1 -- 20) small_int)
    (fun a ->
      let p = Prng.create 53 in
      Array.mem (Prng.pick p a) a)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed independence" `Quick test_seed_independence;
    Alcotest.test_case "copy replays" `Quick test_copy_replays;
    Alcotest.test_case "known answers" `Quick test_known_answers;
    Alcotest.test_case "bits allocation-free" `Quick test_bits_allocation_free;
    Alcotest.test_case "split diverges" `Quick test_split_diverges;
    Alcotest.test_case "float01 range" `Quick test_float01_range;
    Alcotest.test_case "float01 mean" `Slow test_float01_mean;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int uniformity" `Slow test_int_uniform;
    Alcotest.test_case "gaussian moments" `Slow test_gaussian_moments;
    Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
    Alcotest.test_case "triangular support+mean" `Slow test_triangular_support_and_mean;
    Alcotest.test_case "pareto support" `Quick test_pareto_support;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "sim_duration positive" `Quick test_sim_duration_positive;
    QCheck_alcotest.to_alcotest prop_pick_member;
  ]
