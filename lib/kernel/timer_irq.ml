module Sim_time = Satin_engine.Sim_time
module Platform = Satin_hw.Platform
module Timer = Satin_hw.Timer
module Gic = Satin_hw.Gic

type hook = core:int -> unit

type hook_id = int

type t = {
  platform : Platform.t;
  sched : Sched.t;
  hz : int;
  period : Sim_time.t;
  mutable hooks : (hook_id * hook) list;
  mutable next_hook_id : hook_id;
  ticks : int array;
  alive : bool array;
}

let arm t core =
  t.alive.(core) <- true;
  Timer.arm_after t.platform.Platform.tick_timers.(core) t.period

let handle t ~core =
  t.ticks.(core) <- t.ticks.(core) + 1;
  List.iter (fun (_, f) -> f ~core) t.hooks;
  Sched.scheduler_tick t.sched ~core;
  (* NO_HZ_IDLE: only keep ticking while there is work. *)
  if Sched.has_work t.sched ~core then arm t core
  else t.alive.(core) <- false

let create ~platform ~sched ~hz =
  if hz < 100 || hz > 1000 then
    invalid_arg "Timer_irq.create: HZ outside Linux's 100..1000 range";
  let n = Platform.ncores platform in
  let t =
    {
      platform;
      sched;
      hz;
      period = Sim_time.ns (1_000_000_000 / hz);
      hooks = [];
      next_hook_id = 0;
      ticks = Array.make n 0;
      alive = Array.make n false;
    }
  in
  Gic.set_normal_handler platform.Platform.gic ~irq:Platform.tick_irq
    (fun ~core -> handle t ~core);
  Sched.on_enqueue sched (fun ~core -> if not t.alive.(core) then arm t core);
  t

let start t =
  for core = 0 to Platform.ncores t.platform - 1 do
    arm t core
  done

let add_hook t hook =
  let id = t.next_hook_id in
  t.next_hook_id <- id + 1;
  t.hooks <- t.hooks @ [ (id, hook) ];
  id

let remove_hook t id = t.hooks <- List.filter (fun (i, _) -> i <> id) t.hooks
let hz t = t.hz
let period t = t.period
let ticks_delivered t ~core = t.ticks.(core)
let tick_alive t ~core = t.alive.(core)
