(* End-to-end benchmark of the SATIN simulator.

   Four workloads run the public Experiment API the way users run the CLI.
   Each runs in a child process of its own (this executable re-run with
   --child), so peak RSS and GC heap state never leak from one workload
   into the next, and is timed in host time on the monotonic clock. Every
   report is checked: against a reference MD5 at seeds 42 and 7, for
   determinism across the passes of a run, and, for the campaign, warm
   store replays against the cold pass. A traced run (--trace 1) reads
   per-layer counts from the Satin_obs sink and adds host-time spans around
   each call this file makes into a layer. README.md in this directory
   describes the workloads, the metrics and how to compare two commits.

   Every workload runs at jobs 1. With two domains on a 2-core host, runs
   of one seed varied by a quarter in wall time and peak RSS; at jobs 1
   they vary by a few percent.

   Usage (from the repository root):
     sh bench_e2e/run.sh [--workload all|NAME[,NAME...]] [--seed N]
       [--seconds S] [--trace 0|1]

   The last line on stdout is one JSON object with the keys correct,
   attempted, failed and metrics. With --trace 1 the spans are also written
   as Chrome trace-event JSON to _bench_e2e/trace.json. *)

module E = Satin.Experiment
module Scenario = Satin.Scenario
module Json = Satin_obs.Json
module Obs = Satin_obs.Obs
module Metrics = Satin_obs.Metrics
module Store = Satin_store.Store
module Stats = Satin_engine.Stats
module H = E2e_harness

let work_dir = "_bench_e2e"
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* User + system time of the process. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- host-time spans ----

   Recorded only while [recording] is set: during the set-up builds and the
   traced pass of a traced run. The untraced passes that give the
   end-to-end metrics pay nothing for them. *)

let recording = ref false
let spans : H.span list ref = ref []
let open_spans = ref []
let next_span = ref 0

let span name f =
  if not !recording then f ()
  else begin
    let id = !next_span in
    incr next_span;
    let parent = match !open_spans with p :: _ -> Some p | [] -> None in
    open_spans := id :: !open_spans;
    let start_ns = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        open_spans := List.tl !open_spans;
        spans := { H.id; parent; name; start_ns; stop_ns = now_ns () } :: !spans)
      f
  end

let unrecorded f =
  let saved = !recording in
  recording := false;
  Fun.protect ~finally:(fun () -> recording := saved) f

(* ---- output checks ---- *)

let attempted = ref 0
let failed = ref 0
let notes = ref []
let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    note "FAILED: %s" what
  end

(* ---- workloads ---- *)

type experiment = string * (int -> Format.formatter -> unit)

let experiment name run print : experiment =
  ( name,
    fun seed fmt ->
      span ("core.experiment." ^ name) (fun () ->
          let r = run seed in
          span "core.render" (fun () -> print fmt r)) )

(* The experiments and --quick sizes of `satin_cli campaign --quick`, in the
   CLI's order. [satin-detect], [fig7] and [cache-fidelity] are left out
   because the detect, overhead and sidechannel workloads run them alone;
   [fleet] is named explicitly, as the CLI requires. *)
let campaign_experiments =
  [
    experiment "e1" (fun seed -> E.run_e1 ~seed ()) E.print_e1;
    experiment "table1"
      (fun seed -> E.run_table1 ~seed ())
      E.print_table1;
    experiment "e3" (fun seed -> E.run_e3 ~seed ()) E.print_e3;
    experiment "uprober"
      (fun seed -> E.run_uprober ~seed ~trials:6 ())
      E.print_uprober;
    experiment "table2"
      (fun seed -> E.run_table2 ~seed ~rounds:15 ())
      E.print_table2;
    experiment "e6" (fun seed -> E.run_e6 ~seed ~rounds:15 ()) E.print_e6;
    experiment "evasion"
      (fun seed -> E.run_e8 ~seed ~duration_s:120 ())
      E.print_e8;
    experiment "ablation"
      (fun seed -> E.run_ablation ~seed ~passes:1 ())
      E.print_ablation;
    experiment "dkom" (fun seed -> E.run_e13 ~seed ~checks:10 ()) E.print_e13;
    experiment "cache-channel"
      (fun seed -> E.run_e14 ~seed ~passes:1 ())
      E.print_e14;
    experiment "sweep"
      (fun seed -> E.run_tgoal_sweep ~seed ~trials:2 ())
      E.print_tgoal_sweep;
    experiment "inject"
      (fun seed -> E.run_inject ~seed ~trials:2 ~window_s:25 ())
      E.print_inject;
    experiment "degrade"
      (fun seed -> E.run_degrade ~seed ~trials:2 ~window_s:25 ())
      E.print_degrade;
    experiment "fleet"
      (fun seed -> E.run_fleet ~seed ~devices:16 ~window_s:10 ())
      E.print_fleet;
  ]

type workload = {
  name : string;
  experiments : experiment list;
  campaign : bool;
      (* Per-experiment headers as `satin_cli campaign` prints them, a fresh
         result store, and warm replays after the cold pass. *)
  digests : (int * string) list;
      (* Seed -> MD5 of the report, equal to the stdout of the matching
         satin_cli command at that seed. *)
}

let workloads =
  [
    (* `satin_cli fig7 --quick`: scheduler dispatches and their 8 KiB cache
       footprint, nearly all L1 hits; light introspection. *)
    {
      name = "overhead";
      experiments =
        [
          experiment "fig7"
            (fun seed -> E.run_fig7 ~seed ~window_s:8 ())
            E.print_fig7;
        ];
      campaign = false;
      digests =
        [
          (42, "b25420f27029bd4ee16856386e5b9051");
          (7, "c0890cc1762c0306012a3f804ebbc953");
        ];
    };
    (* `satin_cli satin-detect`, paper scale: event queue and checker bound,
       with KProber and TZ-Evader active; the cache is nearly idle. *)
    {
      name = "detect";
      experiments =
        [
          experiment "satin-detect"
            (fun seed -> E.run_e10 ~seed ~target_rounds:190 ())
            E.print_e10;
        ];
      campaign = false;
      digests =
        [
          (42, "19a98d1669985ed348c9ee07a1701550");
          (7, "28f27480f49df50046eaedbcfe5aca64");
        ];
    };
    (* `satin_cli cache-fidelity --quick`: the cache model's miss path
       (fills, L2 evictions, back-invalidations) read by real probers. *)
    {
      name = "sidechannel";
      experiments =
        [
          experiment "cache-fidelity"
            (fun seed ->
              E.run_cache_fidelity ~seed ~trials:1 ~window_s:6 ())
            E.print_cache_fidelity;
        ];
      campaign = false;
      digests =
        [
          (42, "7bdeac13efb1857c1d488322dce2501c");
          (7, "f48c5b7a714ef71943ed286af1202354");
        ];
    };
    (* Many short mixed trials: runner batches, store writes with capsule
       capture, then store reads on the warm replays. *)
    {
      name = "campaign";
      experiments = campaign_experiments;
      campaign = true;
      digests =
        [
          (42, "b161e3b4eccd0cc53b74943857d5cc56");
          (7, "8279b5e68e0ab99a912a14ee80437e46");
        ];
    };
  ]

let render w seed =
  let buf = Buffer.create 65536 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter
    (fun (name, run) ->
      if w.campaign then
        Format.fprintf fmt "==== campaign: %s seed=%d ====@." name seed;
      run seed fmt)
    w.experiments;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* ---- the result store of the campaign workload ---- *)

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let invariant_violations = ref 0

(* Open, install, run [f], audit, close. Returns [f]'s result with the
   handle's counters and live bytes, read before the close. *)
let with_store dir f =
  let s = span "store.open" (fun () -> Store.open_ dir) in
  Store.install s;
  Fun.protect
    ~finally:(fun () ->
      Store.uninstall ();
      Store.close s)
    (fun () ->
      let r = f () in
      let violations = List.length (Store.invariant_violations s) in
      let c = Store.counters s in
      invariant_violations := !invariant_violations + violations;
      check "store invariants hold with no corrupt record"
        (violations = 0 && c.Store.corrupt = 0);
      (r, c, Store.live_bytes s))

(* ---- one pass of a workload ---- *)

type pass = {
  report : string;
  wall : float;  (* the run and print; for the campaign, the cold pass *)
  cpu : float;
  replays : float list;  (* campaign: seconds per warm replay *)
  live_bytes : int;
}

let warm_replays = 20

let run_pass w seed =
  let timed f =
    let c0 = cpu_s () and t0 = now_ns () in
    let r = f () in
    (r, seconds_since t0, cpu_s () -. c0)
  in
  if not w.campaign then
    let report, wall, cpu = timed (fun () -> render w seed) in
    { report; wall; cpu; replays = []; live_bytes = 0 }
  else begin
    Store.mkdir_p work_dir;
    let dir =
      Filename.concat work_dir (Printf.sprintf "store-%d" (Unix.getpid ()))
    in
    remove_tree dir;
    Fun.protect
      ~finally:(fun () -> remove_tree dir)
      (fun () ->
        let (report, _, live_bytes), wall, cpu =
          timed (fun () -> with_store dir (fun () -> render w seed))
        in
        let replays =
          List.init warm_replays (fun _ ->
              let (warm, c, _), dt, _ =
                timed (fun () ->
                    span "store.warm_replay" (fun () ->
                        unrecorded (fun () ->
                            with_store dir (fun () -> render w seed))))
              in
              check "warm replay is byte-identical to the cold pass, all hits"
                (warm = report && c.Store.misses = 0 && c.Store.writes = 0);
              dt)
        in
        { report; wall; cpu; replays; live_bytes })
  end

(* Untraced passes until the next one would end after [seconds]; at least
   one. *)
let measure w seed ~seconds =
  let t0 = now_ns () in
  let rec loop acc n =
    let acc = run_pass w seed :: acc in
    let elapsed = seconds_since t0 in
    if elapsed +. (elapsed /. float_of_int n) <= seconds then loop acc (n + 1)
    else List.rev acc
  in
  loop [] 1

let check_reports w seed passes =
  let first = List.hd passes in
  let got = Digest.to_hex (Digest.string first.report) in
  (match List.assoc_opt seed w.digests with
  | None -> note "report: unchecked (no reference MD5 for seed %d)" seed
  | Some want ->
      check
        (Printf.sprintf "report MD5 %s equals the reference %s" got want)
        (got = want);
      if got = want then note "report: MD5 matches the reference"
      else begin
        let path =
          Filename.concat work_dir (Printf.sprintf "%s-seed%d.txt" w.name seed)
        in
        Store.mkdir_p work_dir;
        Out_channel.with_open_bin path (fun oc -> output_string oc first.report);
        note "report written to %s" path
      end);
  List.iter
    (fun p ->
      check "report is byte-identical across passes" (p.report = first.report))
    (List.tl passes)

(* ---- metrics ---- *)

let setup_builds = 10

(* The set-up every trial pays: a fresh platform with SATIN installed. *)
let setup seed =
  span "e2e.setup" (fun () ->
      List.init setup_builds (fun _ ->
          let t0 = now_ns () in
          let s = span "core.scenario_create" (fun () -> Scenario.create ~seed ()) in
          ignore
            (span "introspect.install_satin" (fun () ->
                 Scenario.install_satin s ()));
          seconds_since t0))

let peak_rss_mb () =
  let vm_hwm () =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l ->
           Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  in
  match vm_hwm () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

let metric name unit_ value = { H.name; unit_; value }

let end_to_end passes builds =
  [
    metric "wall_s" "s" (H.median (List.map (fun p -> p.wall) passes));
    metric "cpu_s" "s" (H.median (List.map (fun p -> p.cpu) passes));
    metric "setup_s" "s" (H.median builds);
    metric "peak_rss_mb" "MiB" (peak_rss_mb ());
  ]

(* Sums over every label set of a series. *)
let counter m name =
  let n = ref 0 in
  Metrics.iter_sorted m (fun n' _ v ->
      match v with `Counter c when n' = name -> n := !n + c | _ -> ());
  !n

let histogram m name =
  let count = ref 0 and total = ref 0. in
  Metrics.iter_sorted m (fun n' _ v ->
      match v with
      | `Histogram s when n' = name && not (Stats.is_empty s) ->
          count := !count + Stats.count s;
          total := !total +. Stats.total s
      | _ -> ());
  (!count, !total)

let per_layer ~passes ~traced obs =
  let m = Obs.metrics obs in
  let c name = float_of_int (counter m name) in
  let ratio a b = if b = 0. then 0. else a /. b in
  let wall = H.median (List.map (fun p -> p.wall) passes) in
  let cpu = H.median (List.map (fun p -> p.cpu) passes) in
  let self = H.self_ns !spans in
  let span_s name =
    match List.filter (fun ((s : H.span), _) -> s.name = name) self with
    | [] -> 0.
    | l -> H.median (List.map (fun (_, ns) -> float_of_int ns *. 1e-9) l)
  in
  let events = c "engine.events_fired" in
  let batches = float_of_int (fst (histogram m "engine.batch_size")) in
  let dispatches = c "sched.dispatches" in
  let accesses = c "cache.l1.hits" +. c "cache.l1.misses" in
  let rehashed = c "scan.blocks_rehashed" and cached = c "scan.blocks_cached" in
  let trials = c "runner.trials" in
  let replays = List.concat_map (fun p -> p.replays) passes in
  let count name v = metric name "count" v in
  [
    count "engine.events" events;
    count "engine.batches" batches;
    metric "engine.events_per_batch" "events/batch" (ratio events batches);
    metric "engine.ns_per_event" "ns" (ratio (wall *. 1e9) events);
    count "kernel.dispatches" dispatches;
    count "kernel.preemptions" (c "sched.preemptions");
    count "cache.accesses" accesses;
    metric "cache.accesses_per_dispatch" "acc/dispatch" (ratio accesses dispatches);
    metric "cache.l1_hit_ratio" "ratio" (ratio (c "cache.l1.hits") accesses);
    metric "cache.ns_per_access" "ns" (ratio (wall *. 1e9) accesses);
    count "cache.l2_misses" (c "cache.l2.misses");
    count "cache.l2_evictions" (c "cache.l2.evictions");
    count "cache.back_invalidations" (c "cache.back_invalidations");
    count "cache.autolock_skips" (c "cache.autolock_skips");
    count "introspect.rounds" (c "satin.rounds");
    count "introspect.scans" (c "checker.scans");
    metric "introspect.scan_bytes" "bytes" (snd (histogram m "checker.scan_bytes"));
    count "introspect.blocks_rehashed" rehashed;
    count "introspect.blocks_cached" cached;
    metric "introspect.rehash_ratio" "ratio" (ratio rehashed (rehashed +. cached));
    count "introspect.detections" (c "satin.detections");
    metric "introspect.install_satin_s" "s" (span_s "introspect.install_satin");
    count "hw.world_switches" (c "monitor.world_switches");
    count "hw.smc_calls" (c "monitor.smc_calls");
    count "attack.probe_suspects" (c "kprober.suspects");
    count "attack.hides" (c "evader.hides");
    metric "core.scenario_create_s" "s" (span_s "core.scenario_create");
    metric "core.trial_s_mean" "s"
      (ratio (snd (histogram (Obs.wall_metrics obs) "runner.batch_wall_s")) trials);
    metric "core.render_s" "s" (span_s "core.render");
  ]
  @ List.map
      (fun (name, _) ->
        metric ("core.experiment_s." ^ name) "s"
          (span_s ("core.experiment." ^ name)))
      campaign_experiments
  @ [
      count "runner.trials" trials;
      count "runner.batches" (c "runner.batches");
      metric "runner.utilization" "ratio" (ratio cpu wall);
      count "store.writes" (c "store.writes");
      count "store.capsule_writes" (c "store.capsule_writes");
      count "store.hits" (c "store.hits");
      count "store.misses" (c "store.misses");
      metric "store.warm_replay_s" "s"
        (if replays = [] then 0. else H.median replays);
      metric "store.live_bytes" "bytes" (float_of_int traced.live_bytes);
      metric "store.open_s" "s" (span_s "store.open");
      count "store.failures"
        (c "store.corrupt" +. c "store.write_errors"
        +. float_of_int !invariant_violations);
      metric "obs.trace_overhead" "ratio" (ratio traced.wall wall -. 1.);
    ]

(* ---- child: one workload in this process ---- *)

let child w ~seed ~seconds ~trace =
  recording := trace;
  let builds = setup seed in
  recording := false;
  let metrics =
    match measure w seed ~seconds with
    | exception e ->
        check (Printf.sprintf "run raised %s" (Printexc.to_string e)) false;
        []
    | passes ->
        check "run raised no exception" true;
        check_reports w seed passes;
        let n = List.length passes in
        note "wall_s: %s" (H.summarize ~unit_:"s" (List.map (fun p -> p.wall) passes));
        note "cpu_s: %s" (H.summarize ~unit_:"s" (List.map (fun p -> p.cpu) passes));
        note "setup_s: %s" (H.summarize ~unit_:"s" builds);
        if w.campaign then
          note "warm replay: %s (%d per pass, %d pass(es))"
            (H.summarize ~unit_:"s" (List.concat_map (fun p -> p.replays) passes))
            warm_replays n;
        if not trace then end_to_end passes builds
        else begin
          let obs = Obs.create () in
          Obs.install obs;
          recording := true;
          let traced =
            Fun.protect
              ~finally:(fun () ->
                recording := false;
                Obs.uninstall ())
              (fun () -> span "e2e.pass" (fun () -> run_pass w seed))
          in
          check "traced report is byte-identical to the untraced one"
            (traced.report = (List.hd passes).report);
          per_layer ~passes ~traced obs
        end
  in
  let result =
    {
      H.correct = !failed = 0;
      attempted = !attempted;
      failed = !failed;
      metrics;
    }
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("result", H.result_to_json result);
            ("spans", Json.List (List.rev_map H.span_to_json !spans));
            ("notes", Json.List (List.rev_map (fun s -> Json.String s) !notes));
          ]))

(* ---- parent: one child per workload ---- *)

type outcome = { result : H.result; spans : H.span list; notes : string list }

let crashed what =
  {
    result = { H.correct = false; attempted = 1; failed = 1; metrics = [] };
    spans = [];
    notes = [ "FAILED: " ^ what ];
  }

let decode out =
  let ( let* ) = Result.bind in
  let all_ok f l =
    List.fold_right
      (fun x acc ->
        let* acc = acc in
        let* y = f x in
        Ok (y :: acc))
      l (Ok [])
  in
  let* doc = Json.parse out in
  let* result =
    Option.to_result ~none:"no result" (Json.member "result" doc)
    |> Fun.flip Result.bind H.result_of_json
  in
  let list key = Option.value ~default:[] (Option.bind (Json.member key doc) Json.to_list_opt) in
  let* spans = all_ok H.span_of_json (list "spans") in
  let* notes =
    all_ok (function Json.String s -> Ok s | _ -> Error "malformed note") (list "notes")
  in
  Ok { result; spans; notes }

let run_child w ~seed ~seconds ~trace =
  let exe = Sys.executable_name in
  let argv =
    [|
      exe; "--child"; w.name; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> (
      match decode out with
      | Ok o -> o
      | Error e -> crashed (Printf.sprintf "unreadable child output: %s" e))
  | Unix.WEXITED code -> crashed (Printf.sprintf "child exited with %d" code)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      crashed (Printf.sprintf "child killed by signal %d" s)

let print_self_times spans =
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun ((s : H.span), ns) ->
      Hashtbl.replace by_name s.name
        ((float_of_int ns *. 1e-9)
        :: Option.value ~default:[] (Hashtbl.find_opt by_name s.name)))
    (H.self_ns spans);
  Printf.printf "  %-34s %10s  %s\n" "span (self time)" "total s" "per span";
  Hashtbl.fold (fun name l acc -> (List.fold_left ( +. ) 0. l, name, l) :: acc) by_name []
  |> List.sort (fun a b -> compare b a)
  |> List.iter (fun (total, name, l) ->
         Printf.printf "  %-34s %10.4f  %s\n" name total (H.summarize ~unit_:"s" l))

let usage =
  "usage: e2e.exe [--workload all|NAME[,NAME...]] [--seed N] [--seconds S] \
   [--trace 0|1]"

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      prerr_endline usage;
      exit 2)
    fmt

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
      fail "unknown workload %S; valid: %s" name
        (String.concat ", " (List.map (fun w -> w.name) workloads))

let () =
  let child_of = ref None and selected = ref workloads in
  let seed = ref 42 and seconds = ref 0. and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        selected :=
          if v = "all" then workloads
          else List.map find_workload (String.split_on_char ',' v);
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some s -> seed := s
        | None -> fail "--seed wants an integer, got %S" v);
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s >= 0. -> seconds := s
        | _ -> fail "--seconds wants a non-negative number, got %S" v);
        parse rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := false
        | "1" -> trace := true
        | _ -> fail "--trace wants 0 or 1, got %S" v);
        parse rest
    | "--child" :: v :: rest ->
        child_of := Some (find_workload v);
        parse rest
    | arg :: _ -> fail "unexpected argument %S" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !child_of with
  | Some w -> child w ~seed:!seed ~seconds:!seconds ~trace:!trace
  | None ->
      Printf.printf "build: %s\n%!" (Json.to_string (Satin.Summary.identity ()));
      let single = List.length !selected = 1 in
      let outcomes =
        List.map
          (fun w ->
            let o = run_child w ~seed:!seed ~seconds:!seconds ~trace:!trace in
            Printf.printf "==== %s (seed %d, %s) ====\n" w.name !seed
              (if !trace then "traced" else "untraced");
            List.iter
              (fun (m : H.metric) ->
                Printf.printf "  %-34s %16.10g %s\n" m.name m.value m.unit_)
              o.result.metrics;
            List.iter (Printf.printf "  %s\n") o.notes;
            if !trace then print_self_times o.spans;
            Printf.printf "  checks: %d attempted, %d failed\n%!"
              o.result.attempted o.result.failed;
            (w, o))
          !selected
      in
      if !trace then begin
        Store.mkdir_p work_dir;
        let path = Filename.concat work_dir "trace.json" in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc
              (Json.to_string
                 (H.chrome_trace
                    (List.map (fun (w, o) -> (w.name, o.spans)) outcomes)));
            output_char oc '\n');
        Printf.printf "host-time spans: %s (open in ui.perfetto.dev)\n" path
      end;
      let sum f = List.fold_left (fun acc (_, o) -> acc + f o.result) 0 outcomes in
      let failed = sum (fun r -> r.H.failed) in
      let result =
        {
          H.correct = failed = 0;
          attempted = sum (fun r -> r.H.attempted);
          failed;
          metrics =
            List.concat_map
              (fun (w, o) ->
                List.map
                  (fun (m : H.metric) ->
                    if single then m else { m with name = w.name ^ "." ^ m.name })
                  o.result.metrics)
              outcomes;
        }
      in
      print_endline (Json.to_string (H.result_to_json result));
      if List.exists (fun (_, o) -> o.result.H.metrics = []) outcomes then exit 1
