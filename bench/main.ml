(* Micro-benchmark harness.

   Usage: dune exec bench/main.exe -- [--json FILE] [--jobs N] [subcommand...]
   where subcommand is one of (default: micro):

   - micro   Bechamel OLS estimates of the hot primitive behind each paper
             artifact (the hash behind Table I, the probe round behind
             Table II/Figure 4, the scan behind E8/E10, the work-unit check
             behind Figure 7) and of the simulation substrate.
   - runner  the registry's pooled experiments at quick scale, timed at
             jobs=1 vs jobs=N (N = --jobs, or 4), plus hash throughput on a
             multi-MiB region (BENCH_runner.json).
   - engine  event-queue push/pop throughput and allocation per event
             against the boxed binary-heap baseline, plus the full engine
             drain loop (BENCH_engine.json).
   - cache   cache-hierarchy lookup/fill throughput and allocation per
             access, and a warm task-footprint re-dispatch by replay vs
             by touch_range (BENCH_cache.json).
   - scan    cold / warm-quiescent / N%-dirty introspection rescans with
             incremental hashing against the forced full-re-hash reference
             (BENCH_scan.json).

   [--json FILE] also writes a satin-bench/v1 document of every result.
   Host times come from bechamel's monotonic clock. For end-to-end
   campaign timings see bench_e2e/README.md; experiments themselves run
   through [satin_cli <name> [--json FILE]]. *)

open Bechamel
module Scenario = Satin.Scenario
module Sim_time = Satin_engine.Sim_time
module Engine = Satin_engine.Engine
module Prng = Satin_engine.Prng
module Platform = Satin_hw.Platform
module World = Satin_hw.World
module Hash = Satin_introspect.Hash
module Checker = Satin_introspect.Checker
module Board = Satin_attack.Board
module S = Satin.Summary
module Registry = Satin.Registry
module Json = Satin_obs.Json
module Runner = Satin_runner.Runner

(* ---- micro-benchmark fixtures (built once, outside the staged code) ---- *)

let region_len = 65_536

let fixture =
  lazy
    (let s = Scenario.create ~seed:101 () in
     let base = 6 * 1024 * 1024 in
     ignore (Checker.enroll s.Scenario.checker ~base ~len:region_len);
     let board =
       Board.create ~platform:s.Scenario.platform ~period:(Sim_time.us 200)
     in
     for core = 0 to 5 do
       Board.report board ~core
     done;
     (s, base, board))

(* Table I's primitive: streaming djb2 over physical kernel memory. *)
let bench_table1_hash =
  Test.make ~name:"table1/djb2-direct-hash-64KiB"
    (Staged.stage (fun () ->
         let s, base, _ = Lazy.force fixture in
         ignore
           (Hash.hash_region s.Scenario.platform.Platform.memory
              ~world:World.Secure ~addr:base ~len:region_len)))

(* Table II / Figure 4's primitive: one KProber comparer pass over 6 cores. *)
let bench_table2_probe =
  Test.make ~name:"table2/kprober-comparer-pass"
    (Staged.stage (fun () ->
         let _, _, board = Lazy.force fixture in
         let worst = ref neg_infinity in
         for target = 1 to 5 do
           let l = Board.lateness board ~reader:0 ~target ~staleness_scale:1.0 in
           if l > !worst then worst := l
         done;
         ignore !worst))

(* E8/E10's primitive: a full race-aware scan of an enrolled region,
   including the simulated event drain. *)
let bench_scan =
  Test.make ~name:"e10/checker-scan-64KiB"
    (Staged.stage (fun () ->
         let s, base, _ = Lazy.force fixture in
         let engine = Scenario.engine s in
         ignore
           (Checker.start_scan s.Scenario.checker ~engine
              ~core:(Platform.core s.Scenario.platform 4)
              ~base ~len:region_len
              ~on_verdict:(fun _ -> ()));
         Engine.run_all engine ()))

(* Figure 7's primitive: the work-unit dilation decision. *)
let bench_fig7_dilation =
  Test.make ~name:"fig7/workload-dilation-check"
    (Staged.stage (fun () ->
         let s, _, _ = Lazy.force fixture in
         ignore
           (Array.exists Satin_hw.Cpu.in_secure s.Scenario.platform.Platform.cores)))

(* Substrate: event queue throughput (everything above rides on this). *)
let bench_engine =
  Test.make ~name:"substrate/engine-1000-events"
    (Staged.stage (fun () ->
         let e = Engine.create () in
         for i = 1 to 1000 do
           ignore (Engine.schedule e ~after:i (fun () -> ()))
         done;
         Engine.run_all e ()))

let bench_prng =
  Test.make ~name:"substrate/prng-gaussian"
    (let prng = Prng.create 7 in
     Staged.stage (fun () -> ignore (Prng.gaussian prng ~mu:0.0 ~sigma:1.0)))

let micro_tests =
  [
    bench_table1_hash;
    bench_table2_probe;
    bench_scan;
    bench_fig7_dilation;
    bench_engine;
    bench_prng;
  ]

(* Prints the table and returns (name, ns-per-run estimate, r^2) rows for
   the machine-readable summary. *)
let run_micro () =
  print_endline "==== Bechamel micro-benchmarks (ns per run, OLS estimate) ====";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let clock = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let rows = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ clock ] test in
      let analyzed = Analyze.all ols clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let est =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> Some x
            | Some [] | None -> None
          in
          let r2 = Analyze.OLS.r_square ols_result in
          let estimate =
            match est with
            | Some x -> Printf.sprintf "%12.1f ns/run" x
            | None -> "no estimate"
          in
          let r2_s =
            match r2 with
            | Some r -> Printf.sprintf "r2=%.4f" r
            | None -> ""
          in
          Printf.printf "  %-40s %s  %s\n%!" name estimate r2_s;
          rows := (name, est, r2) :: !rows)
        analyzed)
    micro_tests;
  print_newline ();
  List.rev !rows

let micro_json rows =
  Json.List
    (List.map
       (fun (name, est, r2) ->
         Json.Obj
           [
             ("name", Json.String name);
             ("ns_per_run", match est with Some x -> Json.float x | None -> Json.Null);
             ("r_square", match r2 with Some r -> Json.float r | None -> Json.Null);
           ])
       rows)

(* ---- runner benchmark: pooled experiments at jobs=1 vs jobs=N, plus a
   hash-throughput microbenchmark on a multi-MiB region ---- *)

(* Seconds on bechamel's monotonic clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The registry's trial fan-outs worth parallelizing, run at quick scale
   with their reports discarded. *)
let runner_experiments = [ "uprober"; "table2"; "fig7"; "sweep" ]

let run_quick name pool =
  let discard = Format.make_formatter (fun _ _ _ -> ()) ignore in
  ignore (Registry.run discard ~pool ~seed:42 ~quick:true name)

let hash_throughput_len = 4 * 1024 * 1024

(* Bytes/s of one full pass; repeated thrice, best pass reported. *)
let throughput f =
  let best = ref infinity in
  for _ = 1 to 3 do
    let (), dt = time f in
    if dt < !best then best := dt
  done;
  float_of_int hash_throughput_len /. !best

let run_runner ~jobs =
  let len = hash_throughput_len in
  let s = Scenario.create ~seed:101 () in
  let memory = s.Scenario.platform.Platform.memory in
  let base = 6 * 1024 * 1024 in
  (* Baseline: the generic one-closure-per-byte fold [hash_sub] replaced. *)
  let generic_pass () =
    let h = ref Hash.init in
    Satin_hw.Memory.fold_pages memory ~world:World.Secure ~addr:base ~len
      ~init:() ~f:(fun () data off n ->
        for i = off to off + n - 1 do
          h := Hash.step !h (Char.code (Bytes.get data i))
        done);
    ignore !h
  in
  let specialized_pass () =
    ignore (Hash.hash_region memory ~world:World.Secure ~addr:base ~len)
  in
  let generic_bps = throughput generic_pass in
  let specialized_bps = throughput specialized_pass in
  Printf.printf
    "==== runner benchmark (jobs=1 vs jobs=%d; hash over %d MiB) ====\n" jobs
    (len / 1024 / 1024);
  Printf.printf
    "  hash throughput: generic %7.1f MiB/s, specialized %7.1f MiB/s (%.2fx)\n%!"
    (generic_bps /. 1048576.) (specialized_bps /. 1048576.)
    (specialized_bps /. generic_bps);
  let cores = Domain.recommended_domain_count () in
  if cores < jobs then
    Printf.printf
      "  note: only %d core(s) available; expect the jobs=%d side to lose \
       to GC synchronization here and win on a multicore host\n%!"
      cores jobs;
  let seq = Runner.sequential in
  let par = Runner.create ~jobs () in
  let effective = Runner.effective_jobs par in
  if effective <> jobs then
    Printf.printf "  oversubscription clamp: jobs=%d dispatches at %d domain(s)\n%!"
      jobs effective;
  (* With a single effective domain the jobs-N side dispatches exactly like
     jobs=1, so timing it again measures only scheduler noise — a clamped
     host used to report "speedups" of 0.84–1.18x from one pool. Skip the
     pass and say so, in text and JSON. *)
  let clamped = effective = 1 in
  if clamped then begin
    Printf.printf
      "  single effective domain: skipping the jobs=%d pass (it would \
       re-run the jobs=1 dispatch and report noise as speedup)\n%!"
      jobs;
    (* Shout on stderr too: a BENCH_runner.json produced here contains no
       parallel measurement at all, and must not be read as one. *)
    Printf.eprintf
      "WARNING: bench runner: host clamped to 1 effective domain — every \
       jobs=%d comparison below is SKIPPED.\n\
       WARNING: the emitted JSON carries \"all_skipped\": true and holds no \
       real parallel speedups; rerun on a multicore host.\n\
       %!"
      jobs
  end;
  let rows =
    List.map
      (fun name ->
        let (), seq_s = time (fun () -> run_quick name seq) in
        if clamped then begin
          Printf.printf
            "  %-10s jobs=1 %6.2f s   jobs=%d skipped (clamped to 1 core)\n%!"
            name seq_s jobs;
          (name, seq_s, None)
        end
        else begin
          let (), par_s = time (fun () -> run_quick name par) in
          Printf.printf
            "  %-10s jobs=1 %6.2f s   jobs=%d %6.2f s   (%.2fx)\n%!" name
            seq_s jobs par_s (seq_s /. par_s);
          (name, seq_s, Some par_s)
        end)
      runner_experiments
  in
  Json.Obj
    [
      ("jobs", Json.Int jobs);
      ("jobs_effective", Json.Int effective);
      ("host_cores", Json.Int cores);
      ("all_skipped", Json.Bool clamped);
      ( "hash_throughput",
        Json.Obj
          [
            ("len_bytes", Json.Int len);
            ("generic_bytes_per_s", Json.float generic_bps);
            ("specialized_bytes_per_s", Json.float specialized_bps);
            ("speedup", Json.float (specialized_bps /. generic_bps));
          ] );
      ( "experiments",
        Json.List
          (List.map
             (fun (name, seq_s, par_s) ->
               Json.Obj
                 ([
                    ("name", Json.String name);
                    ("host_cores", Json.Int cores);
                    ("jobs_requested", Json.Int jobs);
                    ("jobs_effective", Json.Int effective);
                    ("wall_s_jobs1", Json.float seq_s);
                  ]
                 @
                 match par_s with
                 | None -> [ ("skipped", Json.String "clamped to 1 core") ]
                 | Some par_s ->
                     [
                       ( Printf.sprintf "wall_s_jobs%d" jobs,
                         Json.float par_s );
                       ("speedup", Json.float (seq_s /. par_s));
                     ]))
             rows) );
    ]

(* ---- engine benchmark: the 4-ary unboxed event queue vs the boxed
   binary-heap baseline it replaced, with [Gc.minor_words] allocation
   accounting per event (DESIGN §10) ---- *)

module Legacy_queue = struct
  (* The boxed 2-ary queue this representation replaced — one entry record,
     one handle record and one [Some] per event, popped as an option pair.
     Kept verbatim as the benchmark baseline so BENCH_engine.json measures
     the representation change, not workload drift. *)
  type state = Pending | Fired | Cancelled
  type handle = { mutable state : state }

  type 'a entry = {
    time : int;
    seq : int;
    mutable payload : 'a option;
    handle : handle;
  }

  type 'a t = {
    mutable heap : 'a entry array;
    mutable size : int;
    mutable next_seq : int;
    mutable live : int;
    filler : 'a entry;
  }

  let create () =
    let filler =
      { time = 0; seq = -1; payload = None; handle = { state = Cancelled } }
    in
    { heap = [||]; size = 0; next_seq = 0; live = 0; filler }

  let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let swap t i j =
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(j);
    t.heap.(j) <- tmp

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if before t.heap.(i) t.heap.(parent) then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let grow t =
    let cap = Array.length t.heap in
    if t.size = cap then begin
      let ncap = if cap = 0 then 16 else 2 * cap in
      let nheap = Array.make ncap t.filler in
      Array.blit t.heap 0 nheap 0 t.size;
      t.heap <- nheap
    end

  let push t ~time payload =
    let handle = { state = Pending } in
    let entry = { time; seq = t.next_seq; payload = Some payload; handle } in
    t.next_seq <- t.next_seq + 1;
    grow t;
    t.heap.(t.size) <- entry;
    t.size <- t.size + 1;
    t.live <- t.live + 1;
    sift_up t (t.size - 1);
    handle

  let remove_top t =
    t.size <- t.size - 1;
    if t.size > 0 then t.heap.(0) <- t.heap.(t.size);
    t.heap.(t.size) <- t.filler;
    if t.size > 1 then sift_down t 0

  let rec pop t =
    if t.size = 0 then None
    else
      let top = t.heap.(0) in
      remove_top t;
      match top.handle.state with
      | Cancelled | Fired -> pop t
      | Pending -> (
          top.handle.state <- Fired;
          t.live <- t.live - 1;
          match top.payload with Some p -> Some (top.time, p) | None -> assert false)
end

module Event_queue = Satin_engine.Event_queue

let engine_bench_events = 200_000

(* Deterministic pseudorandom schedule times (xorshift, 20-bit range) so
   both queue implementations sort exactly the same key sequence. *)
let lcg_next st =
  let x = !st in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  st := x land max_int;
  !st land 0xfffff

(* Best-of-3 after one warm-up pass; allocation is the per-pass minimum of
   [Gc.minor_words] deltas (major-heap traffic shows up as minor words
   first — everything here is minor-sized). *)
let measure_events ~events f =
  f ();
  let best = ref infinity and words = ref infinity in
  for _ = 1 to 3 do
    let w0 = Gc.minor_words () in
    let (), dt = time f in
    let dw = Gc.minor_words () -. w0 in
    if dt < !best then best := dt;
    if dw < !words then words := dw
  done;
  (float_of_int events /. !best, !words /. float_of_int events)

let eq_bench_legacy n =
  let q = Legacy_queue.create () in
  let st = ref 42 in
  for _ = 1 to n do
    ignore (Legacy_queue.push q ~time:(lcg_next st) ())
  done;
  let rec drain () =
    match Legacy_queue.pop q with Some _ -> drain () | None -> ()
  in
  drain ()

(* One shared sink closure: the steady-state pop path must not allocate. *)
let eq_sink (_ : int) () = ()

let eq_bench_new n =
  let q = Event_queue.create () in
  let st = ref 42 in
  for _ = 1 to n do
    ignore (Event_queue.push q ~time:(lcg_next st) ())
  done;
  while Event_queue.pop_into q eq_sink do
    ()
  done

(* The full dispatch loop the experiments actually run: schedule through
   the engine, drain with [run_all] (which rides [pop_into]). *)
let eq_bench_drain n =
  let e = Engine.create () in
  let st = ref 7 in
  let tick () = () in
  for _ = 1 to n do
    ignore (Engine.schedule e ~after:(lcg_next st) tick)
  done;
  ignore (Engine.run_all e ())

let run_engine_bench () =
  let n = engine_bench_events in
  Printf.printf "==== engine benchmark (%d events, best of 3) ====\n" n;
  let legacy_eps, legacy_wpe =
    measure_events ~events:n (fun () -> eq_bench_legacy n)
  in
  let new_eps, new_wpe = measure_events ~events:n (fun () -> eq_bench_new n) in
  let drain_eps, drain_wpe =
    measure_events ~events:n (fun () -> eq_bench_drain n)
  in
  let speedup = new_eps /. legacy_eps in
  Printf.printf
    "  queue push/pop  legacy %10.0f ev/s  %6.2f words/ev\n\
    \                  packed %10.0f ev/s  %6.2f words/ev  (%.2fx)\n"
    legacy_eps legacy_wpe new_eps new_wpe speedup;
  Printf.printf "  engine drain           %10.0f ev/s  %6.2f words/ev\n%!"
    drain_eps drain_wpe;
  Json.Obj
    [
      ("events", Json.Int n);
      ( "queue_legacy",
        Json.Obj
          [
            ("events_per_s", Json.float legacy_eps);
            ("words_per_event", Json.float legacy_wpe);
          ] );
      ( "queue",
        Json.Obj
          [
            ("events_per_s", Json.float new_eps);
            ("words_per_event", Json.float new_wpe);
          ] );
      ("push_pop_speedup", Json.float speedup);
      ( "engine_drain",
        Json.Obj
          [
            ("events_per_s", Json.float drain_eps);
            ("words_per_event", Json.float drain_wpe);
          ] );
    ]

(* ---- cache benchmark: hierarchy lookup/fill throughput with
   [Gc.minor_words] accounting per access — the unboxed-int-array claim of
   DESIGN §14 (scan fills and task footprints stay off the GC) ---- *)

module Cache = Satin_cache.Cache

let cache_bench_accesses = 1_000_000

let cache_fixture cfg =
  Cache.create ~clusters:[| [| 0; 1; 2; 3 |]; [| 4; 5 |] |] cfg

(* Hot loop: a 16 KiB working set resident in one core's L1. *)
let cache_bench_l1 cache n =
  let line = Cache.line_size cache in
  let lines = 16 * 1024 / line in
  let base = 1 lsl 22 in
  for i = 0 to n - 1 do
    ignore (Cache.touch cache ~core:0 ~addr:(base + (i mod lines * line)))
  done

(* Streaming fill: a cyclic 4 MiB sweep — every access misses both levels
   and runs the whole victim/back-invalidation path. *)
let cache_bench_stream cache n =
  let line = Cache.line_size cache in
  let lines = 4 * 1024 * 1024 / line in
  let base = 1 lsl 24 in
  for i = 0 to n - 1 do
    ignore (Cache.touch cache ~core:1 ~addr:(base + (i mod lines * line)))
  done

(* Evict+Reload's pattern: cores 0 and 1 of one cluster take turns
   cycling 17 lines, one L2 span apart, through one 16-way set. Under true
   LRU every access misses both levels, evicts an L2 line and
   back-invalidates it from an L1 (under the default Tree-PLRU only ~8%
   of them would miss the L2). *)
let cache_bench_thrash cache n =
  let span = Cache.l2_sets cache * Cache.line_size cache in
  let base = 1 lsl 28 in
  for i = 0 to n - 1 do
    ignore (Cache.touch cache ~core:(i land 1) ~addr:(base + (i mod 17 * span)))
  done

(* Evict+Reload's round, as the prober runs it: cores 0 and 1 of one
   cluster take turns reloading a target line and sweeping its 16-member
   eviction set through [Cache.sweep], 17 accesses a turn. *)
let cache_bench_sweep cache n =
  let target = 1 lsl 28 in
  let evset =
    Cache.eviction_set cache
      ~l2_set:(Cache.l2_set_of_addr cache ~addr:target)
      ~base:(1 lsl 26)
  in
  let tally = Array.make 3 0 in
  for i = 0 to (n / (1 + Array.length evset)) - 1 do
    let core = i land 1 in
    ignore (Cache.touch cache ~core ~addr:target);
    Cache.sweep cache ~core evset tally
  done

(* The checker's path: chunked [touch_range] fills over a 2 MiB region. *)
let cache_bench_scan cache n =
  let chunk = 16 * 1024 in
  let span = 2 * 1024 * 1024 in
  let line = Cache.line_size cache in
  let per_chunk = chunk / line in
  let base = 1 lsl 25 in
  let chunks = n / per_chunk in
  for c = 0 to chunks - 1 do
    Cache.touch_range cache ~core:2 ~addr:(base + (c * chunk mod span)) ~len:chunk
  done

(* The scheduler's path: one task's 8 KiB footprint re-dispatched on its
   core, warm — by replay, or by the plain walk the replay must equal. *)
let footprint_addr = 1 lsl 27
let footprint_len = 8 * 1024

let cache_bench_redispatch touch cache n =
  for _ = 1 to n / (footprint_len / Cache.line_size cache) do
    touch cache
  done

let run_cache_bench () =
  let n = cache_bench_accesses in
  Printf.printf "==== cache benchmark (%d accesses, best of 3) ====\n" n;
  let measure ?(cfg = Cache.default_config) name f =
    let cache = cache_fixture cfg in
    let aps, wpa = measure_events ~events:n (fun () -> f cache n) in
    Printf.printf "  %-30s %12.0f acc/s  %6.3f words/access\n%!" name aps wpa;
    if wpa > 0.01 then
      Printf.printf "  warning: %s allocates %.3f words/access (expected 0)\n%!"
        name wpa;
    (aps, wpa)
  in
  let fields aps wpa =
    [ ("accesses_per_s", Json.float aps); ("words_per_access", Json.float wpa) ]
  in
  let row ?cfg name f =
    let aps, wpa = measure ?cfg name f in
    (name, Json.Obj (fields aps wpa))
  in
  let l1 = row "l1 hit (16 KiB loop)" cache_bench_l1 in
  let stream = row "full miss (4 MiB stream)" cache_bench_stream in
  let thrash =
    row
      ~cfg:{ Cache.default_config with Cache.policy = Satin_cache.Policy.Lru }
      "same-set thrash" cache_bench_thrash
  in
  (* Rand draws its victim from the PRNG on every miss: the thrash under
     it, with and without AutoLock's pinned ways, gates that draw. *)
  let rand = { Cache.default_config with Cache.policy = Satin_cache.Policy.Rand } in
  let rand_thrash = row ~cfg:rand "same-set thrash, Rand" cache_bench_thrash in
  let rand_lock_thrash =
    row
      ~cfg:{ rand with Cache.autolock = true }
      "same-set thrash, Rand+AutoLock" cache_bench_thrash
  in
  let sweep = row "eviction-set sweep" cache_bench_sweep in
  let scan = row "touch_range scan fill" cache_bench_scan in
  let fp = Cache.footprint ~addr:footprint_addr ~len:footprint_len in
  let replay_aps, replay_wpa =
    measure "footprint re-dispatch"
      (cache_bench_redispatch (fun c -> Cache.touch_footprint c fp ~core:3))
  in
  let walk_aps, walk_wpa =
    measure "  same, by touch_range"
      (cache_bench_redispatch (fun c ->
           Cache.touch_range c ~core:3 ~addr:footprint_addr ~len:footprint_len))
  in
  let speedup = replay_aps /. walk_aps in
  Printf.printf "  footprint replay vs walk: %.1fx\n%!" speedup;
  Json.Obj
    [
      ("accesses", Json.Int n);
      l1;
      stream;
      thrash;
      rand_thrash;
      rand_lock_thrash;
      sweep;
      scan;
      ( "footprint re-dispatch",
        Json.Obj
          (fields replay_aps replay_wpa
          @ [
              ("touch_range_accesses_per_s", Json.float walk_aps);
              ("touch_range_words_per_access", Json.float walk_wpa);
              ("speedup", Json.float speedup);
            ]) );
    ]

(* ---- scan benchmark: incremental (generation-gated) rescans vs the full
   re-hash reference over a multi-MiB enrolled region — the O(changed
   bytes) claim behind BENCH_scan.json. Simulated timing is identical in
   every configuration (the front still covers every byte); only host
   wall-clock differs. ---- *)

module Memory = Satin_hw.Memory
module Incremental = Satin_introspect.Incremental

let scan_bench_len = 4 * 1024 * 1024
let scan_bench_base = 6 * 1024 * 1024

let scan_fixture () =
  let platform = Platform.juno_r1 ~seed:11 () in
  let memory = platform.Platform.memory in
  (* Deterministic non-zero fill so compares and hashes chew real data. *)
  let v = ref 0x9E3779B97F4A7C15L in
  for i = 0 to (scan_bench_len / 8) - 1 do
    v := Int64.add (Int64.mul !v 6364136223846793005L) 1442695040888963407L;
    Memory.write_int64_le memory ~world:World.Secure
      ~addr:(scan_bench_base + (8 * i))
      !v
  done;
  let checker =
    Checker.create ~memory ~cycle:platform.Platform.cycle
      ~prng:(Platform.split_prng platform) ()
  in
  ignore (Checker.enroll checker ~base:scan_bench_base ~len:scan_bench_len);
  (platform, checker)

let scan_round platform checker =
  let engine = platform.Platform.engine in
  ignore
    (Checker.start_scan checker ~engine
       ~core:(Platform.core platform 4)
       ~base:scan_bench_base ~len:scan_bench_len
       ~on_verdict:(fun _ -> ()));
  ignore (Engine.run_all engine ())

(* Warm rounds are microseconds; time a batch and divide so per-call
   clock overhead doesn't dominate. Best of [samples]. *)
let scan_time_rounds ?(samples = 5) ?(rounds = 20) platform checker =
  let best = ref infinity in
  for _ = 1 to samples do
    let (), dt =
      time (fun () ->
          for _ = 1 to rounds do
            scan_round platform checker
          done)
    in
    let dt = dt /. float_of_int rounds in
    if dt < !best then best := dt
  done;
  !best

(* One measured round with [npages] distinct pages rewritten (fresh values
   each round, so the stamps and content genuinely change) immediately
   before the scan starts — the "N% dirty between rounds" regime. *)
let scan_time_dirty_rounds ?(samples = 5) ?(rounds = 10) platform checker
    ~npages =
  let pages = scan_bench_len / Memory.gen_page_size in
  let stride = pages / npages in
  let memory = platform.Platform.memory in
  let counter = ref 0L in
  let best = ref infinity in
  for _ = 1 to samples do
    let (), dt =
      time (fun () ->
          for _ = 1 to rounds do
            for k = 0 to npages - 1 do
              counter := Int64.add !counter 1L;
              Memory.write_int64_le memory ~world:World.Secure
                ~addr:
                  (scan_bench_base + (k * stride * Memory.gen_page_size) + 64)
                !counter
            done;
            scan_round platform checker
          done)
    in
    let dt = dt /. float_of_int rounds in
    if dt < !best then best := dt
  done;
  !best

(* Minor words per write on the hot Memory write path (with generation
   stamping active): must be exactly 0. A region and a page of address
   stride keep the region walk and stamp store on the measured path. *)
let scan_words_per_write () =
  let memory = Memory.create ~size:(1 lsl 20) in
  ignore
    (Memory.add_region memory ~name:"dram" ~base:0 ~size:(1 lsl 20)
       ~security:Memory.Non_secure_region);
  let n = 200_000 in
  let v = 0x0123456789ABCDEFL in
  let byte_pass () =
    for i = 0 to n - 1 do
      Memory.write_byte memory ~world:World.Normal ~addr:(i land 0xffff) 0x5a
    done
  in
  let int64_pass () =
    for i = 0 to n - 1 do
      Memory.write_int64_le memory ~world:World.Normal
        ~addr:((i land 0xfff) * 8)
        v
    done
  in
  let words f =
    f ();
    let w0 = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  (words byte_pass, words int64_pass)

let run_scan_bench () =
  let len = scan_bench_len in
  let blocks = len / Memory.gen_page_size in
  Printf.printf
    "==== scan benchmark (incremental rescan over %d MiB, %d blocks) ====\n"
    (len / 1024 / 1024) blocks;
  (* Cold: first-ever round on a fresh enrollment (every block compared),
     best of 3 fresh fixtures. *)
  let cold_s = ref infinity in
  let fixture = ref None in
  for _ = 1 to 3 do
    let platform, checker = scan_fixture () in
    let (), dt = time (fun () -> scan_round platform checker) in
    if dt < !cold_s then cold_s := dt;
    fixture := Some (platform, checker)
  done;
  let platform, checker = Option.get !fixture in
  let warm_s = scan_time_rounds platform checker in
  let full_s =
    Incremental.with_enabled false (fun () ->
        scan_time_rounds ~rounds:5 platform checker)
  in
  let dirty1_s =
    scan_time_dirty_rounds platform checker ~npages:(max 1 (blocks / 100))
  in
  let dirty10_s =
    scan_time_dirty_rounds platform checker ~npages:(max 1 (blocks / 10))
  in
  let wpb, wpi = scan_words_per_write () in
  let cold_speedup = !cold_s /. warm_s in
  let in_run_speedup = full_s /. warm_s in
  Printf.printf "  cold full scan        %10.3f ms\n" (!cold_s *. 1e3);
  Printf.printf "  warm quiescent rescan %10.3f ms   (%.1fx vs cold)\n"
    (warm_s *. 1e3) cold_speedup;
  Printf.printf "  warm, full re-hash    %10.3f ms   (%.1fx vs incremental)\n"
    (full_s *. 1e3) in_run_speedup;
  Printf.printf "  1%% pages dirty        %10.3f ms\n" (dirty1_s *. 1e3);
  Printf.printf "  10%% pages dirty       %10.3f ms\n" (dirty10_s *. 1e3);
  Printf.printf
    "  write path: %.3f words/write_byte, %.3f words/write_int64 (want 0)\n"
    wpb wpi;
  Printf.printf "  blocks: %d rehashed, %d cached over this fixture's rounds\n%!"
    (Checker.blocks_rehashed checker)
    (Checker.blocks_cached checker);
  Json.Obj
    [
      ("len_bytes", Json.Int len);
      ("blocks", Json.Int blocks);
      ("block_bytes", Json.Int Memory.gen_page_size);
      ("cold_full_scan_s", Json.float !cold_s);
      ("warm_quiescent_s", Json.float warm_s);
      ("warm_full_rehash_s", Json.float full_s);
      ("dirty_1pct_s", Json.float dirty1_s);
      ("dirty_10pct_s", Json.float dirty10_s);
      ("speedup_cold_vs_warm", Json.float cold_speedup);
      ("speedup_in_run", Json.float in_run_speedup);
      ("blocks_rehashed", Json.Int (Checker.blocks_rehashed checker));
      ("blocks_cached", Json.Int (Checker.blocks_cached checker));
      ( "write_path",
        Json.Obj
          [
            ("words_per_write_byte", Json.float wpb);
            ("words_per_write_int64", Json.float wpi);
          ] );
    ]

let benches =
  [
    ("micro", fun ~jobs:_ -> micro_json (run_micro ()));
    (* The comparison needs a parallel side; without an explicit --jobs,
       measure against a 4-domain pool. *)
    ("runner", fun ~jobs -> run_runner ~jobs:(if jobs > 1 then jobs else 4));
    ("engine", fun ~jobs:_ -> run_engine_bench ());
    ("cache", fun ~jobs:_ -> run_cache_bench ());
    ("scan", fun ~jobs:_ -> run_scan_bench ());
  ]

let () =
  let rec parse json jobs acc = function
    | "--json" :: file :: rest -> parse (Some file) jobs acc rest
    | "--jobs" :: n :: rest when int_of_string_opt n > Some 0 ->
        parse json (int_of_string n) acc rest
    | ("--json" | "--jobs") :: _ ->
        prerr_endline "usage: main.exe [--json FILE] [--jobs N>=1] [bench...]";
        exit 1
    | x :: rest -> parse json jobs (x :: acc) rest
    | [] -> (json, jobs, List.rev acc)
  in
  let json_out, jobs, names =
    parse None 1 [] (List.tl (Array.to_list Sys.argv))
  in
  let names = if names = [] then [ "micro" ] else names in
  List.iter
    (fun name ->
      if not (List.mem_assoc name benches) then begin
        Printf.eprintf
          "unknown bench %S; valid subcommands: %s (experiments: satin_cli \
           <name>)\n"
          name
          (String.concat ", " (List.map fst benches));
        exit 1
      end)
    names;
  let results =
    List.map (fun name -> (name, (List.assoc name benches) ~jobs)) names
  in
  Option.iter
    (fun file -> S.write_document file ~subcommands:names results)
    json_out
