module Engine = Satin_engine.Engine
module Sim_time = Satin_engine.Sim_time
module Trace = Satin_engine.Trace
module Platform = Satin_hw.Platform
module Kernel = Satin_kernel.Kernel
module Task = Satin_kernel.Task
module Timer_irq = Satin_kernel.Timer_irq
module Vector_table = Satin_kernel.Vector_table
module Obs = Satin_obs.Obs

module Metric = struct
  let clears = Obs.key "kprober.clears"
  let suspects = Obs.key "kprober.suspects"

  let probe_gap core =
    Obs.key ~labels:[ ("core", string_of_int core) ] "kprober.probe_gap"
end

type reporter_kind = Tick_reporter | Rt_reporter

type config = {
  period : Sim_time.t;
  reporter : reporter_kind;
  threshold : float;
  watched_cores : int list;
}

let default_config =
  {
    period = Sim_time.us 200;
    reporter = Rt_reporter;
    threshold = 1.8e-3;
    watched_cores = [];
  }

type detection = {
  det_core : int;
  det_time : Sim_time.t;
  det_lateness : float;
}

type t = {
  kernel : Kernel.t;
  platform : Platform.t;
  config : config;
  watched : int list;
  board : Board.t;
  suspected : bool array;
  mutable suspect_hooks : (detection -> unit) list;
  mutable clear_hooks : (core:int -> unit) list;
  mutable detections : detection list; (* newest first *)
  staleness_scale : float;
  lateness_trace : (int * float) Trace.t;
  last_probe : Sim_time.t option array; (* per-core previous probe instant *)
  probe_gap : Obs.key array; (* kprober.probe_gap{core} *)
  mutable record_lateness : bool;
  mutable running : bool;
  mutable hijacked_vector : bool;
  mutable tick_hook : Timer_irq.hook_id option;
  mutable spinners : Task.t list;
}

let now t = Engine.now t.platform.Platform.engine

(* Comparer pass executed from core [reader]: evaluate every other watched
   core's report age against the expected cadence. *)
let compare_pass t ~reader =
  List.iter
    (fun target ->
      if target <> reader && Board.reports_count t.board ~core:target > 0 then begin
        let lateness =
          Board.lateness t.board ~reader ~target ~staleness_scale:t.staleness_scale
        in
        if t.record_lateness then
          Trace.record t.lateness_trace (now t) (target, lateness);
        if lateness > t.config.threshold then begin
          if not t.suspected.(target) then begin
            t.suspected.(target) <- true;
            let det =
              { det_core = target; det_time = now t; det_lateness = lateness }
            in
            t.detections <- det :: t.detections;
            if Obs.active () then begin
              Obs.incr Metric.suspects;
              Obs.instant ~time:det.det_time ~track:target ~cat:"attack"
                ~args:[ ("lateness_s", Satin_obs.Json.float lateness) ]
                "kprober-suspect"
            end;
            List.iter (fun f -> f det) t.suspect_hooks
          end
        end
        else if t.suspected.(target) && lateness < t.config.threshold /. 2.0 then begin
          t.suspected.(target) <- false;
          Obs.incr Metric.clears;
          List.iter (fun f -> f ~core:target) t.clear_hooks
        end
      end)
    t.watched

let next_boundary t =
  Sim_time.until_next_multiple ~period:t.config.period (now t)

let note_probe t ~core =
  if Obs.active () then begin
    let instant = now t in
    (match t.last_probe.(core) with
    | Some prev ->
        Obs.observe_time t.probe_gap.(core) (Sim_time.diff instant prev)
    | None -> ());
    t.last_probe.(core) <- Some instant
  end

let rt_probe_body t ~core ~reports task =
  ignore task;
  if not t.running then { Task.cpu = Sim_time.zero; after = (fun () -> Task.Exit) }
  else
    {
      Task.cpu = Sim_time.us 2;
      after =
        (fun () ->
          if reports then Board.report t.board ~core;
          note_probe t ~core;
          compare_pass t ~reader:core;
          Task.Sleep (next_boundary t));
    }

let deploy kernel config =
  let platform = kernel.Kernel.platform in
  let watched =
    match config.watched_cores with
    | [] -> List.init (Platform.ncores platform) (fun i -> i)
    | cores -> cores
  in
  if List.length watched < 2 then
    invalid_arg
      "Kprober.deploy: need at least two watched cores (a lone reporter has \
       no peer to compare against)";
  let board_period =
    match config.reporter with
    | Rt_reporter -> config.period
    | Tick_reporter -> Timer_irq.period kernel.Kernel.tick
  in
  let t =
    {
      kernel;
      platform;
      config;
      watched;
      board = Board.create ~platform ~period:board_period;
      suspected = Array.make (Platform.ncores platform) false;
      suspect_hooks = [];
      clear_hooks = [];
      detections = [];
      (* Coherence traffic on the shared report buffer grows with the number
         of reporting cores; probing a single core sees roughly a quarter of
         the all-core threshold (§IV-B2, last paragraph). *)
      staleness_scale =
        (let k = List.length watched and n = Platform.ncores platform in
         sqrt (float_of_int (k - 1) /. float_of_int (max 1 (n - 1))));
      lateness_trace = Trace.create ();
      last_probe = Array.make (Platform.ncores platform) None;
      probe_gap = Array.init (Platform.ncores platform) Metric.probe_gap;
      record_lateness = false;
      running = true;
      hijacked_vector = false;
      tick_hook = None;
      spinners = [];
    }
  in
  (match config.reporter with
  | Rt_reporter ->
      (* KProber-II: one pthread per watched core, SCHED_FIFO priority 99. *)
      List.iter
        (fun core ->
          let task =
            Task.create
              ~name:(Printf.sprintf "kprober2/%d" core)
              ~policy:(Task.Rt_fifo Task.rt_priority_max) ~affinity:core
              ~body:(rt_probe_body t ~core ~reports:true)
              ()
          in
          Kernel.spawn kernel task)
        watched
  | Tick_reporter ->
      (* KProber-I: hijack the IRQ vector (a detectable kernel-text write),
         report from the tick path, keep cores out of NO_HZ idle with
         spinners, and compare from RT threads (the paper's combination). *)
      Vector_table.hijack_irq kernel.Kernel.vectors ~world:Satin_hw.World.Normal;
      t.hijacked_vector <- true;
      t.tick_hook <-
        Some
          (Timer_irq.add_hook kernel.Kernel.tick (fun ~core ->
               if t.running && List.mem core t.watched then
                 Board.report t.board ~core));
      List.iter
        (fun core ->
          (* Like Kernel.spawn_spinner, but the hog exits on retire: the
             attacker removes its load generators with its other traces. *)
          let spinner =
            Task.create
              ~name:(Printf.sprintf "kprober1-spin/%d" core)
              ~policy:Task.Cfs ~affinity:core
              ~body:(fun _ ->
                if not t.running then
                  { Task.cpu = Sim_time.zero; after = (fun () -> Task.Exit) }
                else
                  { Task.cpu = Sim_time.us 1_000; after = (fun () -> Task.Reenter) })
              ()
          in
          Kernel.spawn kernel spinner;
          t.spinners <- spinner :: t.spinners;
          let task =
            Task.create
              ~name:(Printf.sprintf "kprober1-cmp/%d" core)
              ~policy:(Task.Rt_fifo Task.rt_priority_max) ~affinity:core
              ~body:(rt_probe_body t ~core ~reports:false)
              ()
          in
          Kernel.spawn kernel task)
        watched);
  t

let board t = t.board
let on_suspect t f = t.suspect_hooks <- t.suspect_hooks @ [ f ]
let on_clear t f = t.clear_hooks <- t.clear_hooks @ [ f ]
let suspected t ~core = t.suspected.(core)
let suspected_any t = Array.exists Fun.id t.suspected
let lateness_trace t = t.lateness_trace
let set_record_lateness t v = t.record_lateness <- v
let detections t = List.rev t.detections

let retire t =
  t.running <- false;
  if t.hijacked_vector then begin
    Vector_table.restore_irq t.kernel.Kernel.vectors ~world:Satin_hw.World.Normal;
    (match t.tick_hook with
    | Some id ->
        Timer_irq.remove_hook t.kernel.Kernel.tick id;
        t.tick_hook <- None
    | None -> ());
    t.hijacked_vector <- false
  end
