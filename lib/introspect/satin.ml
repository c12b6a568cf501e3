module Engine = Satin_engine.Engine
module Sim_time = Satin_engine.Sim_time
module Prng = Satin_engine.Prng
module Trace = Satin_engine.Trace
module Platform = Satin_hw.Platform
module Cpu = Satin_hw.Cpu
module Timer = Satin_hw.Timer
module Monitor = Satin_hw.Monitor
module Secure_memory = Satin_tz.Secure_memory
module Obs = Satin_obs.Obs

module Metric = struct
  let detections = Obs.key "satin.detections"
  let rounds = Obs.key "satin.rounds"

  let check_duration (area : Area.t) =
    Obs.key
      ~labels:[ ("area", string_of_int area.Area.index) ]
      "satin.check_duration"
end

type config = {
  t_goal : Sim_time.t;
  randomize_area : bool;
  randomize_period : bool;
  randomize_core : bool;
}

let default_config =
  {
    t_goal = Sim_time.s 152;
    randomize_area = true;
    randomize_period = true;
    randomize_core = true;
  }

type t = {
  tsp : Satin_tz.Tsp.t;
  platform : Platform.t;
  checker : Checker.t;
  smem : Secure_memory.t;
  config : config;
  prng : Prng.t;
  areas : Area.t array;
  check_duration : Obs.key array; (* satin.check_duration{area}, as [areas] *)
  tp : Sim_time.t;
  (* Secure-memory state: the shared area set, the wake-up time queue and
     its availability bits, and the next generation's base instant. *)
  area_set : Secure_memory.cell;
  wake_queue : Secure_memory.cell;
  wake_live : Secure_memory.cell;
  gen_base : Secure_memory.cell;
  trace : Round.t Trace.t;
  alarms : Round.t Trace.t;
  mutable round_hooks : (Round.t -> unit) list;
  mutable round_index : int;
  mutable area_cursor : int; (* ablation: in-order area selection *)
  mutable detections : int;
  mutable full_passes : int;
  mutable running : bool;
}

let ncores t = Platform.ncores t.platform
let m t = Array.length t.areas

(* ---- area set in secure memory ---- *)

let area_set_refill t =
  for i = 0 to m t - 1 do
    Secure_memory.set t.smem t.area_set i 1L
  done

let area_set_available t =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (if Secure_memory.get t.smem t.area_set i = 1L then i :: acc else acc)
  in
  go (m t - 1) []

let next_area t =
  let available = area_set_available t in
  let available =
    match available with
    | [] ->
        (* Set exhausted: refill with all areas (§V-B). *)
        area_set_refill t;
        area_set_available t
    | _ :: _ -> available
  in
  let choice =
    if t.config.randomize_area then
      List.nth available (Prng.int t.prng (List.length available))
    else begin
      (* Ablation: deterministic address-order sweep. *)
      let c = t.area_cursor mod m t in
      t.area_cursor <- t.area_cursor + 1;
      if List.mem c available then c else List.hd available
    end
  in
  Secure_memory.set t.smem t.area_set choice 0L;
  (* Drawing the last area completes one whole-kernel pass. *)
  if area_set_available t = [] then t.full_passes <- t.full_passes + 1;
  choice

(* ---- wake-up time queue in secure memory (§V-D) ---- *)

let deviation t =
  if t.config.randomize_period then
    let tp_s = Sim_time.to_sec_f t.tp in
    Sim_time.of_sec_f (Prng.uniform t.prng (-.tp_s) tp_s)
  else Sim_time.zero

let generate_generation t =
  (* Fill the queue with the next n wake instants: base + (j+1)·tp ± dev. *)
  let base = Secure_memory.get_time t.smem t.gen_base 0 in
  let n = ncores t in
  for j = 0 to n - 1 do
    let time =
      Sim_time.add base (Sim_time.add (Sim_time.scale t.tp (float_of_int (j + 1))) (deviation t))
    in
    Secure_memory.set_time t.smem t.wake_queue j (Sim_time.max Sim_time.zero time);
    Secure_memory.set t.smem t.wake_live j 1L
  done;
  Secure_memory.set_time t.smem t.gen_base 0
    (Sim_time.add base (Sim_time.scale t.tp (float_of_int n)))

let queue_extract t =
  let n = ncores t in
  let live = ref [] in
  for j = n - 1 downto 0 do
    if Secure_memory.get t.smem t.wake_live j = 1L then live := j :: !live
  done;
  let live =
    match !live with
    | [] ->
        generate_generation t;
        List.init n (fun j -> j)
    | l -> l
  in
  (* Random slot choice realizes the per-generation random assignment. *)
  let slot =
    if t.config.randomize_core then List.nth live (Prng.int t.prng (List.length live))
    else List.hd live
  in
  Secure_memory.set t.smem t.wake_live slot 0L;
  Secure_memory.get_time t.smem t.wake_queue slot

(* ---- rounds ---- *)

let handle t ~core =
  if t.running then begin
    let cpu = Platform.core t.platform core in
    if Cpu.in_secure cpu then
      (* Secure timer raced our own round; push the wake slightly. *)
      Timer.arm_after t.platform.Platform.secure_timers.(core) (Sim_time.ms 1)
    else begin
      let engine = t.platform.Platform.engine in
      let started = Engine.now engine in
      let index = t.round_index in
      t.round_index <- t.round_index + 1;
      Monitor.enter_secure t.platform.Platform.monitor ~cpu
        ~payload:(fun () ->
          let choice = next_area t in
          let area = t.areas.(choice) in
          let scan_started = Engine.now engine in
          if Obs.active () then
            Obs.span_begin ~time:scan_started ~track:core ~cat:"introspect"
              ~args:
                [
                  ("area", Satin_obs.Json.Int area.Area.index);
                  ("base", Satin_obs.Json.Int area.Area.base);
                  ("len", Satin_obs.Json.Int area.Area.size);
                ]
              (Printf.sprintf "check area %d" area.Area.index);
          let duration =
            Checker.start_scan t.checker ~engine ~core:cpu ~base:area.Area.base
              ~len:area.Area.size
              ~on_verdict:(fun verdict ->
                let round =
                  {
                    Round.index;
                    core;
                    area_index = area.Area.index;
                    base = area.Area.base;
                    len = area.Area.size;
                    started;
                    scan_started;
                    duration = Sim_time.diff (Engine.now engine) scan_started;
                    verdict;
                  }
                in
                if Obs.active () then begin
                  Obs.span_end ~time:(Engine.now engine) ~track:core;
                  Obs.incr Metric.rounds;
                  Obs.observe_time t.check_duration.(choice)
                    round.Round.duration
                end;
                if verdict.Checker.v_tampered then begin
                  t.detections <- t.detections + 1;
                  if Obs.active () then begin
                    Obs.incr Metric.detections;
                    Obs.instant ~time:(Engine.now engine) ~track:core
                      ~cat:"alarm"
                      ~args:[ ("area", Satin_obs.Json.Int area.Area.index) ]
                      "detection"
                  end;
                  Trace.record t.alarms (Engine.now engine) round
                end;
                Trace.record t.trace (Engine.now engine) round;
                List.iter (fun f -> f round) t.round_hooks)
          in
          (* Self activation (§V-C): still in the secure world, take the next
             assigned wake time from the queue and program the secure timer.
             Never arm inside our own round's secure window, and keep a
             floor between consecutive rounds of one core so a late-drawn
             wake time cannot glue two rounds together. The floor scales
             with tp so sub-second Tgoal configurations keep their cadence. *)
          let next_wake = queue_extract t in
          let floor = Sim_time.min (Sim_time.ms 50) (Sim_time.ns (t.tp / 4)) in
          let not_before =
            Sim_time.add (Engine.now engine) (Sim_time.add duration floor)
          in
          Timer.arm_at t.platform.Platform.secure_timers.(core)
            (Sim_time.max next_wake not_before);
          duration)
        ()
    end
  end

let start t =
  if not t.running then begin
    t.running <- true;
    let now = Engine.now t.platform.Platform.engine in
    Secure_memory.set_time t.smem t.gen_base 0 now;
    (* Trusted boot: deal the first generation straight to the timers. *)
    generate_generation t;
    let n = ncores t in
    if t.config.randomize_core then begin
      let order = Array.init n (fun i -> i) in
      Prng.shuffle t.prng order;
      Array.iteri
        (fun slot core ->
          Secure_memory.set t.smem t.wake_live slot 0L;
          Timer.arm_at t.platform.Platform.secure_timers.(core)
            (Secure_memory.get_time t.smem t.wake_queue slot))
        order
    end
    else begin
      (* Ablation: a single fixed core serves every round. *)
      Secure_memory.set t.smem t.wake_live 0 0L;
      Timer.arm_at t.platform.Platform.secure_timers.(0)
        (Secure_memory.get_time t.smem t.wake_queue 0)
    end
  end

let install ~tsp ~kernel ~checker ~secure_memory ?areas config =
  let platform = Satin_tz.Tsp.platform tsp in
  let layout = kernel.Satin_kernel.Kernel.layout in
  let areas =
    match areas with Some a -> Array.of_list a | None -> Array.of_list (Area.of_layout layout)
  in
  if Array.length areas = 0 then invalid_arg "Satin.install: no areas";
  Array.iter
    (fun a -> ignore (Checker.enroll checker ~base:a.Area.base ~len:a.Area.size))
    areas;
  let n = Platform.ncores platform in
  let t =
    {
      tsp;
      platform;
      checker;
      smem = secure_memory;
      config;
      prng = Platform.split_prng platform;
      areas;
      check_duration = Array.map Metric.check_duration areas;
      tp = Sim_time.ns (config.t_goal / Array.length areas);
      area_set = Secure_memory.alloc secure_memory ~name:"satin.area_set" ~slots:(Array.length areas);
      wake_queue = Secure_memory.alloc secure_memory ~name:"satin.wake_queue" ~slots:n;
      wake_live = Secure_memory.alloc secure_memory ~name:"satin.wake_live" ~slots:n;
      gen_base = Secure_memory.alloc secure_memory ~name:"satin.gen_base" ~slots:1;
      trace = Trace.create ();
      alarms = Trace.create ();
      round_hooks = [];
      round_index = 0;
      area_cursor = 0;
      detections = 0;
      full_passes = 0;
      running = false;
    }
  in
  area_set_refill t;
  Satin_tz.Tsp.set_timer_handler tsp (fun ~core -> handle t ~core);
  t

let stop t =
  t.running <- false;
  Satin_tz.Tsp.clear_timer_handler t.tsp;
  Array.iter Timer.disarm t.platform.Platform.secure_timers

let areas t = Array.to_list t.areas
let tp t = t.tp
let rounds t = Trace.values t.trace
let rounds_count t = Trace.length t.trace
let detections t = t.detections
let alarms t = Trace.values t.alarms
let on_round t f = t.round_hooks <- t.round_hooks @ [ f ]
let full_passes t = t.full_passes
