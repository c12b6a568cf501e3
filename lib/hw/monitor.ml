module Engine = Satin_engine.Engine
module Sim_time = Satin_engine.Sim_time
module Prng = Satin_engine.Prng
module Obs = Satin_obs.Obs

module Metric = struct
  let switch_entry_cost = Obs.key "monitor.switch_entry_cost"
  let world_switches = Obs.key "monitor.world_switches"

  let smc_calls core =
    Obs.key ~labels:[ ("core", string_of_int core) ] "monitor.smc_calls"
end

type t = {
  engine : Engine.t;
  gic : Gic.t;
  cycle : Cycle_model.t;
  prng : Prng.t;
  smc_calls : Obs.key array; (* monitor.smc_calls{core} *)
  mutable switches : int;
  mutable switch_fault : (Sim_time.t -> Sim_time.t) option;
}

let create ~engine ~gic ~cycle ~prng ~ncores =
  {
    engine;
    gic;
    cycle;
    prng;
    smc_calls = Array.init ncores Metric.smc_calls;
    switches = 0;
    switch_fault = None;
  }

let set_switch_fault t f = t.switch_fault <- f

let sample_switch t ~cpu =
  let cost =
    Cycle_model.sample_time t.prng
      (t.cycle.Cycle_model.world_switch (Cpu.core_type cpu))
  in
  match t.switch_fault with
  | None -> cost
  | Some f ->
      let cost = f cost in
      if Sim_time.is_negative cost then
        invalid_arg "Monitor switch fault: transformed cost is negative";
      cost

let payload_start_delay t ~cpu = sample_switch t ~cpu

let enter_secure t ~cpu ~payload ?on_exit () =
  if Cpu.in_secure cpu then
    invalid_arg
      (Printf.sprintf "Monitor.enter_secure: core %d already secure" (Cpu.id cpu));
  let entry_cost = sample_switch t ~cpu in
  if Obs.active () then begin
    let core = Cpu.id cpu in
    Obs.incr t.smc_calls.(core);
    Obs.observe_time Metric.switch_entry_cost entry_cost;
    Obs.span_begin ~time:(Engine.now t.engine) ~track:core ~cat:"world"
      "secure-world"
  end;
  Cpu.set_world cpu World.Secure;
  ignore
    (Engine.schedule t.engine ~after:entry_cost (fun () ->
         let duration = payload () in
         if Sim_time.is_negative duration then
           invalid_arg "Monitor.enter_secure: payload returned negative duration";
         let exit_cost = sample_switch t ~cpu in
         ignore
           (Engine.schedule t.engine ~after:(Sim_time.add duration exit_cost)
              (fun () ->
                Cpu.set_world cpu World.Normal;
                t.switches <- t.switches + 1;
                if Obs.active () then begin
                  Obs.span_end ~time:(Engine.now t.engine) ~track:(Cpu.id cpu);
                  Obs.incr Metric.world_switches
                end;
                Gic.flush_pending t.gic ~core:(Cpu.id cpu)
                  ~world_of_core:(fun () -> Cpu.world cpu);
                match on_exit with Some f -> f () | None -> ()))))

let switches t = t.switches
