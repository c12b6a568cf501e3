(* The observability layer: metrics registry semantics, Chrome trace-event
   export (golden), and determinism of exports across same-seed runs. *)

module Json = Satin_obs.Json
module Metrics = Satin_obs.Metrics
module Tracing = Satin_obs.Tracing
module Obs = Satin_obs.Obs
module Histogram = Satin_obs.Histogram
module Capsule = Satin_obs.Capsule
module Stats = Satin_engine.Stats
module E = Satin.Experiment

let test_counter () =
  let m = Metrics.create () in
  Metrics.incr m "hits";
  Metrics.incr m ~by:4 "hits";
  Alcotest.(check (option int)) "accumulates" (Some 5)
    (Metrics.counter_value m "hits");
  Alcotest.(check (option int)) "unknown series" None
    (Metrics.counter_value m "misses");
  let h = Metrics.counter m (Metrics.key "hits") in
  incr h;
  Alcotest.(check (option int)) "handle shares storage" (Some 6)
    (Metrics.counter_value m "hits")

let test_gauge () =
  let m = Metrics.create () in
  Metrics.set m "depth" 3.5;
  Metrics.set m "depth" 1.25;
  Alcotest.(check (option (float 0.0))) "last write wins" (Some 1.25)
    (Metrics.gauge_value m "depth")

let test_histogram () =
  let m = Metrics.create () in
  List.iter (Metrics.observe m "lat") [ 1.0; 2.0; 3.0; 4.0 ];
  match Metrics.histogram_stats m "lat" with
  | None -> Alcotest.fail "missing histogram"
  | Some s ->
      Alcotest.(check int) "count" 4 (Stats.count s);
      Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
      Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min s);
      Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max s)

let test_label_order_insensitive () =
  let m = Metrics.create () in
  Metrics.incr m ~labels:[ ("core", "0"); ("world", "s") ] "x";
  Metrics.incr m ~labels:[ ("world", "s"); ("core", "0") ] "x";
  Alcotest.(check int) "one series" 1 (Metrics.series_count m);
  Alcotest.(check (option int))
    "both orders hit it" (Some 2)
    (Metrics.counter_value m ~labels:[ ("core", "0"); ("world", "s") ] "x")

let test_duplicate_label_key () =
  let m = Metrics.create () in
  Alcotest.check_raises "duplicate key"
    (Invalid_argument "Metrics: duplicate label key \"core\" on metric \"x\"")
    (fun () -> Metrics.incr m ~labels:[ ("core", "0"); ("core", "1") ] "x")

let test_kind_mismatch () =
  let m = Metrics.create () in
  Metrics.incr m "x";
  Alcotest.check_raises "counter reused as gauge"
    (Invalid_argument "Metrics.gauge: \"x\" is already a counter") (fun () ->
      Metrics.set m "x" 1.0);
  Alcotest.check_raises "counter reused as histogram"
    (Invalid_argument "Metrics.histogram: \"x\" is already a counter")
    (fun () -> Metrics.observe m "x" 1.0);
  (* Same name under different labels is a distinct series: no clash. *)
  Metrics.set m ~labels:[ ("k", "v") ] "x" 1.0

(* Golden render of a tiny two-span scenario: a world switch on core 0
   wrapping an area check, with a detection instant on another track. *)
let test_chrome_golden () =
  let tr = Tracing.create () in
  Tracing.set_track_name tr 0 "core 0";
  Tracing.begin_span tr ~time:1_000 ~track:0 ~cat:"world" "secure-world";
  Tracing.begin_span tr ~time:2_500 ~track:0 ~cat:"introspect"
    ~args:[ ("area", Json.Int 14) ]
    "check area 14";
  Tracing.end_span tr ~time:4_000 ~track:0;
  Tracing.instant tr ~time:4_500 ~track:1 ~cat:"alarm" "detection";
  Tracing.end_span tr ~time:5_000 ~track:0;
  let expected =
    String.concat ""
      [
        {|{"traceEvents":[|};
        {|{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"satin"}},|};
        {|{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"core 0"}},|};
        {|{"name":"secure-world","ph":"B","ts":1,"pid":0,"tid":0,"cat":"world"},|};
        {|{"name":"check area 14","ph":"B","ts":2.5,"pid":0,"tid":0,"cat":"introspect","args":{"area":14}},|};
        {|{"name":"check area 14","ph":"E","ts":4,"pid":0,"tid":0},|};
        {|{"name":"detection","ph":"i","ts":4.5,"pid":0,"tid":1,"cat":"alarm","s":"t"},|};
        {|{"name":"secure-world","ph":"E","ts":5,"pid":0,"tid":0}|};
        {|],"displayTimeUnit":"ns"}|};
      ]
  in
  let actual = Json.to_string (Tracing.to_chrome_json tr) in
  Alcotest.(check string) "golden chrome trace" expected actual;
  (* The export must survive our own strict parser. *)
  match Json.parse actual with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("export does not reparse: " ^ e)

let test_end_span_pops_innermost () =
  let tr = Tracing.create () in
  Tracing.begin_span tr ~time:0 ~track:3 "outer";
  Tracing.begin_span tr ~time:1 ~track:3 "inner";
  Tracing.end_span tr ~time:2 ~track:3;
  Tracing.end_span tr ~time:3 ~track:3;
  let names =
    List.filter_map
      (fun (e : Tracing.event) ->
        if e.Tracing.ph = Tracing.End then Some e.Tracing.name else None)
      (Tracing.events tr)
  in
  Alcotest.(check (list string)) "LIFO ends" [ "inner"; "outer" ] names

let run_e10_with_obs () =
  let obs = Obs.create () in
  Obs.install obs;
  Fun.protect ~finally:Obs.uninstall (fun () ->
      ignore (E.run_e10 ~seed:11 ~target_rounds:6 ()));
  obs

let test_determinism () =
  let a = run_e10_with_obs () in
  let b = run_e10_with_obs () in
  Alcotest.(check string) "trace exports byte-identical"
    (Json.to_string (Obs.trace_json a))
    (Json.to_string (Obs.trace_json b));
  Alcotest.(check string) "metrics exports byte-identical"
    (Json.to_string (Obs.metrics_json a))
    (Json.to_string (Obs.metrics_json b));
  (* And the campaign actually produced spans, not an empty document. *)
  match Json.member "traceEvents" (Obs.trace_json a) with
  | Some (Json.List evs) ->
      Alcotest.(check bool) "non-trivial trace" true (List.length evs > 10)
  | _ -> Alcotest.fail "missing traceEvents"

let test_wall_metrics_segregated () =
  (* The --metrics byte-stability fix: wall-clock observations land in a
     separate registry and never leak into the deterministic export. Two
     runs that differ ONLY in their wall-clock samples must export
     byte-identical metrics_json. *)
  let run wall_sample =
    let obs = Obs.create () in
    Obs.install obs;
    Fun.protect ~finally:Obs.uninstall (fun () ->
        Obs.incr (Obs.key "deterministic.counter");
        Obs.observe (Obs.key "deterministic.histo") 0.25;
        Obs.observe_wall (Obs.key "runner.batch_wall_s") wall_sample);
    obs
  in
  let a = run 0.001 and b = run 123.456 in
  Alcotest.(check string) "metrics_json ignores wall-clock samples"
    (Json.to_string (Obs.metrics_json a))
    (Json.to_string (Obs.metrics_json b));
  (* The wall registry did record them, under its own schema... *)
  (match Json.member "schema" (Obs.wall_metrics_json a) with
  | Some (Json.String s) ->
      Alcotest.(check string) "wall schema" "satin-wall-metrics/v1" s
  | _ -> Alcotest.fail "wall export missing schema");
  Alcotest.(check bool) "wall exports differ (they saw different samples)"
    true
    (Json.to_string (Obs.wall_metrics_json a)
    <> Json.to_string (Obs.wall_metrics_json b));
  (* ...and the deterministic export does not mention the wall metric. *)
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no wall metric in deterministic export" false
    (contains (Json.to_string (Obs.metrics_json a)) "batch_wall")

(* ---- Json float codec ----

   The emitter promises shortest round-trip numbers (with the "5." patch
   for %g's bare-dot output); the parser returns Int for numbers without
   a fraction or exponent. So the invariant is numeric, not syntactic:
   whatever shape comes back must equal the emitted float exactly. *)

let float_shape_gen =
  QCheck.Gen.(
    oneof
      [
        float;
        (* integral values: "%g" prints "5", which reparses as Int *)
        map float_of_int int;
        map Float.of_int small_signed_int;
        (* spread across the exponent range, negatives included *)
        map
          (fun ((m, e), neg) ->
            let v = Float.ldexp m e in
            if neg then -.v else v)
          (pair (pair (float_range 0.5 1.0) (int_range (-300) 300)) bool);
      ])

let prop_json_float_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"Json.float round-trips numerically"
    (QCheck.make ~print:string_of_float float_shape_gen)
    (fun x ->
      let s = Json.to_string (Json.List [ Json.float x ]) in
      match Json.parse s with
      | Ok (Json.List [ v ]) -> (
          if Float.is_nan x || not (Float.is_finite x) then v = Json.Null
          else
            match v with
            | Json.Int n -> float_of_int n = x
            | Json.Float f -> f = x
            | _ -> QCheck.Test.fail_reportf "non-number back from %s" s)
      | Ok _ | Error _ -> QCheck.Test.fail_reportf "reparse failed: %s" s)

let test_json_float_edges () =
  let rt x =
    let s = Json.to_string (Json.float x) in
    Alcotest.(check bool)
      (Printf.sprintf "%S has no bare trailing dot" s)
      false
      (String.length s > 0 && s.[String.length s - 1] = '.');
    match Json.parse s with
    | Ok (Json.Int n) ->
        Alcotest.(check bool) (s ^ " numeric") true (float_of_int n = x)
    | Ok (Json.Float f) -> Alcotest.(check bool) (s ^ " numeric") true (f = x)
    | Ok _ | Error _ -> Alcotest.failf "bad reparse of %s" s
  in
  List.iter rt
    [
      5.0; -5.0; 0.5; -0.5; 1e6; 1e22; -1.5e-8; 123456789.25;
      Float.max_float; -.Float.min_float; 0.0;
    ];
  Alcotest.(check string) "NaN becomes null" "null"
    (Json.to_string (Json.float Float.nan));
  Alcotest.(check string) "infinity becomes null" "null"
    (Json.to_string (Json.float Float.infinity))

(* ---- mergeable histograms ---- *)

let hist_of_list l =
  let t = Histogram.create () in
  List.iter (Histogram.add t) l;
  t

let samples_arb =
  let sample =
    QCheck.Gen.(
      oneof
        [
          float;
          map float_of_int small_signed_int;
          return 0.0;
          map
            (fun ((m, e), neg) ->
              let v = Float.ldexp m e in
              if neg then -.v else v)
            (pair (pair (float_range 0.5 1.0) (int_range (-80) 80)) bool);
        ])
  in
  QCheck.make
    ~print:QCheck.Print.(list string_of_float)
    QCheck.Gen.(
      list_size (int_range 0 40)
        (map (fun x -> if Float.is_nan x then 0.0 else x) sample))

let prop_histogram_merge_laws =
  QCheck.Test.make ~count:500
    ~name:"histogram merge is commutative, associative, = concatenation"
    QCheck.(triple samples_arb samples_arb samples_arb)
    (fun (xs, ys, zs) ->
      let a = hist_of_list xs and b = hist_of_list ys and c = hist_of_list zs in
      Histogram.equal (Histogram.merge a b) (Histogram.merge b a)
      && Histogram.equal
           (Histogram.merge (Histogram.merge a b) c)
           (Histogram.merge a (Histogram.merge b c))
      && Histogram.equal (Histogram.merge a b) (hist_of_list (xs @ ys)))

let prop_histogram_codec_and_bounds =
  QCheck.Test.make ~count:500
    ~name:"histogram codec round-trips; stats stay in [min, max]"
    samples_arb
    (fun xs ->
      let t = hist_of_list xs in
      let s = Json.to_string (Histogram.to_json t) in
      match Result.bind (Json.parse s) Histogram.of_json with
      | Error e -> QCheck.Test.fail_reportf "decode: %s" e
      | Ok t' ->
          Histogram.equal t t'
          && Json.to_string (Histogram.to_json t') = s
          && (Histogram.is_empty t
             || begin
                  let mn = Histogram.min t and mx = Histogram.max t in
                  let inside v = mn <= v && v <= mx in
                  inside (Histogram.mean t)
                  && List.for_all
                       (fun q -> inside (Histogram.quantile t q))
                       [ 0.0; 0.5; 0.9; 0.99; 1.0 ]
                end))

(* [Histogram.add] reads a sample's bucket from its IEEE bits; the
   definition is frexp's: v = m * 2^e with m in [0.5, 1), sub-bucket
   floor((2m - 1) * 16) of e clamped to [-64, 64]. *)
let frexp_index v =
  let m, e = Float.frexp v in
  let e = max (-64) (min 64 e) in
  ((e + 64) * 16) + int_of_float (((2.0 *. m) -. 1.0) *. 16.0)

let prop_histogram_bucket_is_frexp =
  let magnitude =
    QCheck.Gen.(
      oneof
        [
          map Float.abs float;
          map2 Float.ldexp (float_range 0.5 1.0) (int_range (-1074) 1023);
          map
            (fun i -> Float.ldexp (float_of_int i) (-1074))
            (int_range 1 (1 lsl 20));
          oneofl [ Float.min_float; Float.max_float; 4.9e-324; 1.0; 0.5 ];
        ])
  in
  QCheck.Test.make ~count:2000 ~name:"histogram bucket = frexp definition"
    (QCheck.make ~print:(Printf.sprintf "%h") magnitude)
    (fun v ->
      QCheck.assume (Float.is_finite v && v > 0.0);
      let sparse t side =
        match Json.member side (Histogram.to_json t) with
        | Some (Json.List [ Json.List [ Json.Int i; Json.Int 1 ] ]) -> i
        | _ -> -1
      in
      let i = frexp_index v in
      sparse (hist_of_list [ v ]) "pos" = i
      && sparse (hist_of_list [ -.v ]) "neg" = i)

let test_histogram_exact_extremes () =
  let t = hist_of_list [ 4.0; 1.0; 9.5; -2.0; 0.0 ] in
  Alcotest.(check int) "count" 5 (Histogram.count t);
  Alcotest.(check (float 0.0)) "min exact" (-2.0) (Histogram.min t);
  Alcotest.(check (float 0.0)) "max exact" 9.5 (Histogram.max t);
  Alcotest.(check (float 0.0)) "q=0 is min" (-2.0) (Histogram.quantile t 0.0);
  Alcotest.(check (float 0.0)) "q=1 is max" 9.5 (Histogram.quantile t 1.0);
  (* single sample: every statistic collapses to it, clamp included *)
  let one = hist_of_list [ 1.0 ] in
  Alcotest.(check (float 0.0)) "singleton mean" 1.0 (Histogram.mean one);
  Alcotest.(check (float 0.0)) "singleton p50" 1.0 (Histogram.quantile one 0.5);
  Alcotest.check_raises "empty mean raises"
    (Invalid_argument "Histogram.mean: empty histogram") (fun () ->
      ignore (Histogram.mean (Histogram.create ())))

(* ---- capsules ---- *)

let test_capsule_roundtrip () =
  let m = Metrics.create () in
  Metrics.incr m ~by:3 "sched.dispatches";
  Metrics.incr m ~labels:[ ("core", "1") ] "kprober.suspects";
  Metrics.set m "engine.queue_depth" 4.0;
  List.iter (Metrics.observe m "checker.scan") [ 0.5; 1.25; 8.0 ];
  let c =
    Capsule.of_metrics ~experiment:"rt" ~seed:7 ~trial:2
      ~fingerprint:(String.make 32 'a')
      ~config:[ ("rounds", "50"); ("ctx:check", "1") ]
      m
  in
  let s = Json.to_string (Capsule.to_json c) in
  match Capsule.of_string s with
  | Error e -> Alcotest.fail e
  | Ok c2 ->
      Alcotest.(check string) "canonical re-render byte-identical" s
        (Json.to_string (Capsule.to_json c2));
      Alcotest.(check string) "experiment survives" "rt" c2.Capsule.experiment;
      Alcotest.(check int) "trial survives" 2 c2.Capsule.trial;
      Alcotest.(check int) "seed survives" 7 c2.Capsule.seed;
      Alcotest.(check int) "all series survive" 4
        (List.length c2.Capsule.series);
      (* config comes back sorted by field name *)
      Alcotest.(check (list (pair string string)))
        "config sorted"
        [ ("ctx:check", "1"); ("rounds", "50") ]
        c2.Capsule.config

let test_capsule_rejects_duplicate_config () =
  let m = Metrics.create () in
  try
    ignore
      (Capsule.of_metrics ~experiment:"x" ~seed:0 ~trial:0 ~fingerprint:"f"
         ~config:[ ("a", "1"); ("a", "2") ]
         m);
    Alcotest.fail "duplicate config field accepted"
  with Invalid_argument _ -> ()

let test_capsule_rejects_junk () =
  (match Capsule.of_string "{\"schema\":\"satin-capsule/v9\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign schema accepted");
  match Capsule.of_string "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk accepted"

(* ---- per-domain capture ---- *)

(* Sample count of a capture registry's (bucketed) histogram series, or
   -1 when the registry holds no bucketed histogram of that name. *)
let captured_count m name =
  let n = ref (-1) in
  Metrics.iter_sorted m (fun name' _ v ->
      match v with
      | `Buckets h when name' = name -> n := Histogram.count h
      | _ -> ());
  !n

let test_with_capture () =
  Alcotest.(check bool) "idle: no observer" false (Obs.active ());
  let outer, () =
    Obs.with_capture (fun () ->
        Alcotest.(check bool) "active without a sink" true (Obs.active ());
        Obs.incr (Obs.key "c");
        Obs.observe (Obs.key "h") 1.0;
        (* nesting: the innermost capture wins for its extent *)
        let inner, () = Obs.with_capture (fun () -> Obs.incr (Obs.key "c")) in
        Alcotest.(check (option int))
          "inner saw only its own" (Some 1)
          (Metrics.counter_value (Obs.metrics inner) "c"))
  in
  let outer = Obs.metrics outer in
  Alcotest.(check (option int))
    "outer missed the nested incr" (Some 1)
    (Metrics.counter_value outer "c");
  Alcotest.(check int) "histogram captured, bucketed" 1
    (captured_count outer "h");
  Alcotest.(check bool) "inactive afterwards" false (Obs.active ())

let test_capture_is_per_domain () =
  (* A capture on this domain must not leak samples from another domain,
     and the other domain must not observe a capture it never opened. *)
  let m, () =
    Obs.with_capture (fun () ->
        Obs.incr (Obs.key "mine");
        let d =
          Domain.spawn (fun () ->
              let was_active = Obs.active () in
              Obs.incr (Obs.key "theirs");
              was_active)
        in
        Alcotest.(check bool)
          "worker domain has no observer" false (Domain.join d))
  in
  let m = Obs.metrics m in
  Alcotest.(check (option int)) "own sample kept" (Some 1)
    (Metrics.counter_value m "mine");
  Alcotest.(check (option int)) "foreign sample excluded" None
    (Metrics.counter_value m "theirs")

let test_merge_captures () =
  let sink = Obs.create () in
  let c = Obs.key "m.c" and g = Obs.key "m.g" and h = Obs.key "m.h" in
  let capture f = fst (Obs.with_capture ~like:sink f) in
  let a =
    capture (fun () ->
        Obs.incr c;
        Obs.set_gauge g 1.0;
        List.iter (Obs.observe h) [ 1.0; 2.0 ];
        Obs.span_begin ~time:10 ~track:1 "x";
        Obs.span_end ~time:20 ~track:1)
  and b =
    capture (fun () ->
        Obs.incr c ~by:2;
        Obs.set_gauge g 2.0;
        Obs.observe h 3.0;
        Obs.instant ~time:5 ~track:1 "y")
  in
  Obs.merge ~into:sink a;
  Obs.merge ~into:sink b;
  Obs.merge ~into:sink (capture (fun () -> Obs.observe h 4.0));
  let m = Obs.metrics sink in
  Alcotest.(check (option int)) "counters sum" (Some 3)
    (Metrics.counter_value m "m.c");
  Alcotest.(check (option (float 0.0))) "last gauge wins" (Some 2.0)
    (Metrics.gauge_value m "m.g");
  Alcotest.(check (option (array (float 0.0)))) "samples in capture order"
    (Some [| 1.0; 2.0; 3.0; 4.0 |])
    (Option.map Stats.to_array (Metrics.histogram_stats m "m.h"));
  let names =
    match Json.member "traceEvents" (Obs.trace_json sink) with
    | Some (Json.List evs) ->
        List.filter_map
          (fun e ->
            match (Json.member "ph" e, Json.member "name" e) with
            | Some (Json.String "M"), _ -> None
            | Some (Json.String ph), Some (Json.String n) -> Some (ph ^ n)
            | _ -> None)
          evs
    | _ -> []
  in
  Alcotest.(check (list string)) "trace events in capture order"
    [ "Bx"; "Ex"; "iy" ] names;
  let bucketed, () = Obs.with_capture (fun () -> Obs.observe h 5.0) in
  match Obs.merge ~into:sink bucketed with
  | () -> Alcotest.fail "a bucketed capture merged into a sink"
  | exception Invalid_argument _ -> ()

(* ---- keyed hooks and bucketed capture ----

   The capture exactness oracle: a capsule sealed from [Obs.with_capture]
   (keyed hooks, histograms bucketed on arrival) renders byte-identically
   to one sealed from an exact registry fed the same stream by name
   (samples kept in [Stats], bucketed at seal time by
   [Histogram.of_stats]). *)

type op =
  | Incr of int * int * int (* name, labels, by *)
  | Set of int * int * float
  | Observe of int * int * float
  | Observe_time of int * int * int (* nanoseconds *)

let counter_names = [| "o.c0"; "o.c1" |]
let gauge_names = [| "o.g0"; "o.g1" |]
let histogram_names = [| "o.h0"; "o.h1"; "o.h2" |]

let label_sets =
  [| []; [ ("core", "0") ]; [ ("core", "1") ]; [ ("core", "1"); ("area", "14") ] |]

let op_name = function
  | Incr (n, _, _) -> counter_names.(n)
  | Set (n, _, _) -> gauge_names.(n)
  | Observe (n, _, _) | Observe_time (n, _, _) -> histogram_names.(n)

let op_labels = function
  | Incr (_, l, _) | Set (_, l, _) | Observe (_, l, _) | Observe_time (_, l, _) ->
      label_sets.(l)

let edge_values =
  [
    0.0; -0.0; -1.5; 1.0; 4.9e-324; -4.9e-324; Float.min_float /. 4.0;
    Float.max_float; -.Float.max_float; Float.infinity; Float.neg_infinity;
    1e-30; 3e25; 0.1;
  ]

let op_gen =
  let open QCheck.Gen in
  let value =
    oneof
      [
        oneofl edge_values;
        map (fun x -> if Float.is_nan x then 0.0 else x) float;
        float_range (-1e3) 1e3;
      ]
  in
  let labels = int_bound (Array.length label_sets - 1) in
  frequency
    [
      ( 3,
        map3
          (fun n l by -> Incr (n, l, by))
          (int_bound 1) labels (int_range (-3) 1000) );
      (2, map3 (fun n l v -> Set (n, l, v)) (int_bound 1) labels value);
      (4, map3 (fun n l v -> Observe (n, l, v)) (int_bound 2) labels value);
      ( 1,
        map3
          (fun n l ns -> Observe_time (n, l, ns))
          (int_bound 2) labels (int_range 0 1_000_000_000) );
    ]

let print_op op =
  let series =
    Printf.sprintf "%s{%s}" (op_name op)
      (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) (op_labels op)))
  in
  match op with
  | Incr (_, _, by) -> Printf.sprintf "incr %s by %d" series by
  | Set (_, _, v) -> Printf.sprintf "set %s %h" series v
  | Observe (_, _, v) -> Printf.sprintf "observe %s %h" series v
  | Observe_time (_, _, ns) -> Printf.sprintf "observe_time %s %dns" series ns

let seal m =
  Json.to_string
    (Capsule.to_json
       (Capsule.of_metrics ~experiment:"oracle" ~seed:1 ~trial:0
          ~fingerprint:"f" ~config:[] m))

let prop_capture_exact =
  QCheck.Test.make ~count:300
    ~name:"capture capsule = exact registry bucketed at seal"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 0 80) op_gen))
    (fun ops ->
      let keyed op = Obs.key ~labels:(op_labels op) (op_name op) in
      let capture ?like () =
        fst
          (Obs.with_capture ?like (fun () ->
               (* Creates engine.batch_size (a histogram never observed
                  here), engine.events_fired and engine.queue_depth. *)
               Obs.attach_engine (Satin_engine.Engine.create ());
               List.iter
                 (fun op ->
                   match op with
                   | Incr (_, _, by) -> Obs.incr ~by (keyed op)
                   | Set (_, _, v) -> Obs.set_gauge (keyed op) v
                   | Observe (_, _, v) -> Obs.observe (keyed op) v
                   | Observe_time (_, _, ns) -> Obs.observe_time (keyed op) ns)
                 ops))
      in
      let exact = Metrics.create () in
      Metrics.incr exact ~by:0 "engine.events_fired";
      Metrics.set exact "engine.queue_depth" 0.0;
      ignore (Metrics.histogram exact (Metrics.key "engine.batch_size"));
      List.iter
        (fun op ->
          let labels = op_labels op and name = op_name op in
          match op with
          | Incr (_, _, by) -> Metrics.incr exact ~labels ~by name
          | Set (_, _, v) -> Metrics.set exact ~labels name v
          | Observe (_, _, v) -> Metrics.observe exact ~labels name v
          | Observe_time (_, _, ns) -> Metrics.observe_time exact ~labels name ns)
        ops;
      let a = seal (Obs.metrics (capture ())) and b = seal exact in
      if a <> b then QCheck.Test.fail_reportf "capture:\n%s\nexact:\n%s" a b;
      (* A capture taken like a sink keeps exact samples; sealed, it is
         the same capsule. *)
      let c = seal (Obs.metrics (capture ~like:(Obs.create ()) ())) in
      if c <> b then
        QCheck.Test.fail_reportf "exact capture:\n%s\nexact:\n%s" c b;
      true)

let test_capture_memory () =
  let k = Obs.key "mem.h" in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  let m, () =
    Obs.with_capture (fun () ->
        for i = 1 to 1_000_000 do
          Obs.observe k (float_of_int (i land 1023))
        done)
  in
  let added = (Gc.quick_stat ()).Gc.major_words -. before in
  Alcotest.(check int) "every sample counted" 1_000_000
    (captured_count (Obs.metrics m) "mem.h");
  if added >= 65536.0 then
    Alcotest.failf "1M captured samples added %.0f major words (bound 65536)" added

let test_key_interning () =
  let labels_ab = [ ("a", "1"); ("b", "2") ] in
  let labels_ba = [ ("b", "2"); ("a", "1") ] in
  let keys =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let labels = if d mod 2 = 0 then labels_ab else labels_ba in
            Obs.key ~labels "intern.x"))
    |> List.map Domain.join
  in
  let k = Obs.key ~labels:labels_ab "intern.x" in
  Alcotest.(check bool) "one key from 4 domains, any label order" true
    (List.for_all (fun k' -> k' = k) keys);
  Alcotest.(check bool) "another label value, another key" false
    (Obs.key ~labels:[ ("a", "1"); ("b", "3") ] "intern.x" = k);
  Alcotest.(check bool) "no labels, another key" false (Obs.key "intern.x" = k);
  (* Keyed and by-name access reach one series, in either order. *)
  let m, () = Obs.with_capture (fun () -> Obs.incr ~by:2 k) in
  let m = Obs.metrics m in
  Metrics.incr m ~labels:labels_ba ~by:3 "intern.x";
  Alcotest.(check (option int)) "keyed then by name" (Some 5)
    (Metrics.counter_value m ~labels:labels_ab "intern.x");
  let r = Metrics.create () in
  Metrics.incr r ~labels:labels_ab "intern.x";
  incr (Metrics.counter r k);
  Alcotest.(check (option int)) "by name then keyed" (Some 2)
    (Metrics.counter_value r ~labels:labels_ba "intern.x");
  Alcotest.(check int) "one series" 1 (Metrics.series_count r);
  Alcotest.check_raises "keyed kind mismatch"
    (Invalid_argument "Metrics.gauge: \"intern.x\" is already a counter")
    (fun () -> ignore (Metrics.gauge r k))

(* ---- per-domain track ownership ---- *)

let test_tracing_cross_domain_raises () =
  let tr = Tracing.create () in
  Tracing.begin_span tr ~time:0 ~track:5 "owner-span";
  let intrude f =
    Domain.join
      (Domain.spawn (fun () ->
           try
             f ();
             false
           with Invalid_argument _ -> true))
  in
  Alcotest.(check bool) "foreign begin_span on open track raises" true
    (intrude (fun () -> Tracing.begin_span tr ~time:1 ~track:5 "intruder"));
  Alcotest.(check bool) "foreign end_span raises" true
    (intrude (fun () -> Tracing.end_span tr ~time:2 ~track:5));
  (* the owner is unaffected and can close normally *)
  Tracing.end_span tr ~time:3 ~track:5;
  (* with the stack empty, ownership transfers cleanly *)
  let d =
    Domain.spawn (fun () ->
        try
          Tracing.begin_span tr ~time:4 ~track:5 "new-owner";
          Tracing.end_span tr ~time:5 ~track:5;
          true
        with Invalid_argument _ -> false)
  in
  Alcotest.(check bool) "empty track transfers ownership" true (Domain.join d)

(* Progress ETA formatting: before any trial completes (or with a frozen
   clock) the rate is 0 and the naive ETA is inf/nan — the heartbeat must
   show a "--" placeholder, never "infs" or "nans". *)
let test_progress_eta_placeholder () =
  let eta = Satin_obs.Progress.eta_string in
  let check name want got =
    Alcotest.(check (option string)) name want got
  in
  check "no trial finished yet" (Some "--")
    (eta ~finished:0 ~total:10 ~elapsed:3.0);
  check "zero elapsed (frozen clock)" (Some "--")
    (eta ~finished:5 ~total:10 ~elapsed:0.0);
  check "negative elapsed (clock skew)" (Some "--")
    (eta ~finished:5 ~total:10 ~elapsed:(-1.0));
  check "steady rate" (Some "5.0s") (eta ~finished:5 ~total:10 ~elapsed:5.0);
  check "done" None (eta ~finished:10 ~total:10 ~elapsed:5.0);
  check "overshoot" None (eta ~finished:12 ~total:10 ~elapsed:5.0);
  check "empty batch" None (eta ~finished:0 ~total:0 ~elapsed:1.0)

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick test_counter;
    Alcotest.test_case "gauge semantics" `Quick test_gauge;
    Alcotest.test_case "histogram semantics" `Quick test_histogram;
    Alcotest.test_case "label order insensitivity" `Quick
      test_label_order_insensitive;
    Alcotest.test_case "duplicate label key raises" `Quick
      test_duplicate_label_key;
    Alcotest.test_case "kind mismatch raises" `Quick test_kind_mismatch;
    Alcotest.test_case "chrome trace golden" `Quick test_chrome_golden;
    Alcotest.test_case "end_span pops innermost" `Quick
      test_end_span_pops_innermost;
    Alcotest.test_case "wall metrics segregated" `Quick
      test_wall_metrics_segregated;
    QCheck_alcotest.to_alcotest prop_json_float_roundtrip;
    Alcotest.test_case "json float edge cases" `Quick test_json_float_edges;
    QCheck_alcotest.to_alcotest prop_histogram_merge_laws;
    QCheck_alcotest.to_alcotest prop_histogram_codec_and_bounds;
    QCheck_alcotest.to_alcotest prop_histogram_bucket_is_frexp;
    Alcotest.test_case "histogram exact extremes" `Quick
      test_histogram_exact_extremes;
    Alcotest.test_case "capsule round-trip" `Quick test_capsule_roundtrip;
    Alcotest.test_case "capsule duplicate config rejected" `Quick
      test_capsule_rejects_duplicate_config;
    Alcotest.test_case "capsule rejects junk" `Quick test_capsule_rejects_junk;
    Alcotest.test_case "with_capture scoping" `Quick test_with_capture;
    Alcotest.test_case "capture is per-domain" `Quick
      test_capture_is_per_domain;
    QCheck_alcotest.to_alcotest prop_capture_exact;
    Alcotest.test_case "merge captures in order" `Quick test_merge_captures;
    Alcotest.test_case "capture memory is fixed" `Quick test_capture_memory;
    Alcotest.test_case "keys intern once" `Quick test_key_interning;
    Alcotest.test_case "tracing cross-domain guard" `Quick
      test_tracing_cross_domain_raises;
    Alcotest.test_case "progress eta placeholder" `Quick
      test_progress_eta_placeholder;
    Alcotest.test_case "same-seed exports identical" `Slow test_determinism;
  ]
