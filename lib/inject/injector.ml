module Engine = Satin_engine.Engine
module Sim_time = Satin_engine.Sim_time
module Prng = Satin_engine.Prng
module Platform = Satin_hw.Platform
module Timer = Satin_hw.Timer
module Monitor = Satin_hw.Monitor
module Memory = Satin_hw.Memory
module World = Satin_hw.World
module Kernel = Satin_kernel.Kernel
module Task = Satin_kernel.Task
module Area = Satin_introspect.Area
module Obs = Satin_obs.Obs

module Metric = struct
  let bit_flips = Obs.key "inject.bit_flips"
  let switch_spikes = Obs.key "inject.switch_spikes"
  let timer_delays = Obs.key "inject.timer_delays"
  let timer_drops = Obs.key "inject.timer_drops"
end

type t = {
  plan : Fault_plan.t;
  platform : Platform.t;
  mutable switch_spikes : int;
  mutable flips : int;
  mutable flip_sites : (int * Sim_time.t) list; (* addr, instant; newest first *)
}

let plan t = t.plan

let timer_drops t =
  Array.fold_left
    (fun acc timer -> acc + Timer.dropped_count timer)
    0 t.platform.Platform.secure_timers

let timer_delays t =
  Array.fold_left
    (fun acc timer -> acc + Timer.delayed_count timer)
    0 t.platform.Platform.secure_timers

let switch_spikes t = t.switch_spikes
let flip_sites t = List.rev t.flip_sites

let fault_events t =
  timer_drops t + timer_delays t + t.switch_spikes + t.flips

(* Duty-cycle hog: [burst] of CPU, then sleep long enough that
   burst / (burst + sleep) = duty. *)
let hog_body ~burst ~duty =
  let sleep = Sim_time.scale burst ((1.0 -. duty) /. duty) in
  fun _task -> { Task.cpu = burst; after = (fun () -> Task.Sleep sleep) }

let install ~plan ~seed ~platform ~kernel ~areas =
  Fault_plan.validate plan;
  let prng = Prng.create seed in
  let engine = platform.Platform.engine in
  let t =
    { plan; platform; switch_spikes = 0; flips = 0; flip_sites = [] }
  in
  (match plan with
  | Fault_plan.Control -> ()
  | Fault_plan.Drop_timer_irqs { prob } ->
      Array.iter
        (fun timer ->
          Timer.set_fault_hook timer
            (Some
               (fun ~deadline:_ ->
                 if Prng.bernoulli prng prob then begin
                   Obs.incr Metric.timer_drops;
                   Timer.Drop
                 end
                 else Timer.Deliver)))
        platform.Platform.secure_timers
  | Fault_plan.Delay_timer_irqs { prob; max_delay } ->
      Array.iter
        (fun timer ->
          Timer.set_fault_hook timer
            (Some
               (fun ~deadline:_ ->
                 if Prng.bernoulli prng prob then begin
                   Obs.incr Metric.timer_delays;
                   Timer.Delay
                     (Sim_time.of_sec_f
                        (Prng.uniform prng 0.0 (Sim_time.to_sec_f max_delay)))
                 end
                 else Timer.Deliver)))
        platform.Platform.secure_timers
  | Fault_plan.Spike_world_switch { prob; factor } ->
      Monitor.set_switch_fault platform.Platform.monitor
        (Some
           (fun cost ->
             if Prng.bernoulli prng prob then begin
               t.switch_spikes <- t.switch_spikes + 1;
               Obs.incr Metric.switch_spikes;
               Sim_time.scale cost factor
             end
             else cost))
  | Fault_plan.Flip_kernel_bits { period; flips } ->
      let areas = Array.of_list areas in
      if Array.length areas = 0 then
        invalid_arg "Injector.install: Flip_kernel_bits needs areas";
      let memory = platform.Platform.memory in
      ignore
        (Engine.every engine ~period (fun () ->
             for _ = 1 to flips do
               let area = Prng.pick prng areas in
               let addr = area.Area.base + Prng.int prng area.Area.size in
               let bit = Prng.int prng 8 in
               let old = Memory.read_byte memory ~world:World.Normal ~addr in
               Memory.write_byte memory ~world:World.Normal ~addr
                 (old lxor (1 lsl bit));
               t.flips <- t.flips + 1;
               t.flip_sites <- (addr, Engine.now engine) :: t.flip_sites;
               Obs.incr Metric.bit_flips
             done))
  | Fault_plan.Starve_rt_probers { priority; burst; duty } ->
      for core = 0 to Platform.ncores platform - 1 do
        Kernel.spawn kernel
          (Task.create
             ~name:(Printf.sprintf "rt-hog-%d" core)
             ~policy:(Task.Rt_fifo priority) ~affinity:core
             ~body:(hog_body ~burst ~duty) ())
      done
  | Fault_plan.Cfs_storm { tasks_per_core; burst; duty } ->
      for core = 0 to Platform.ncores platform - 1 do
        for i = 0 to tasks_per_core - 1 do
          ignore
            (Kernel.spawn_load kernel
               ~name:(Printf.sprintf "storm-%d-%d" core i)
               ~affinity:core ~burst ~duty ())
        done
      done);
  t
