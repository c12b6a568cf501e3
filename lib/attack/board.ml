module Engine = Satin_engine.Engine
module Sim_time = Satin_engine.Sim_time
module Prng = Satin_engine.Prng
module Platform = Satin_hw.Platform
module Cycle_model = Satin_hw.Cycle_model

type t = {
  platform : Platform.t;
  prng : Prng.t;
  period : Sim_time.t;
  window_len : int; (* [period], at least 1 ns: the staleness window *)
  law : Cycle_model.staleness_law;
  slots : Sim_time.t array;
  counts : int array;
  (* One staleness draw per target per probing round: the delay reflects the
     state of the target's report cacheline in this round, so every comparer
     reading it within the round sees the same delay. *)
  stale_window : int array;
  stale_sample : float array;
}

let create ~platform ~period =
  let n = Platform.ncores platform in
  {
    platform;
    prng = Platform.split_prng platform;
    period;
    window_len = max 1 period;
    law =
      Cycle_model.staleness_law platform.Platform.cycle
        ~period_s:(Sim_time.to_sec_f period);
    slots = Array.make n Sim_time.zero;
    counts = Array.make n 0;
    stale_window = Array.make n (-1);
    stale_sample = Array.make n 0.0;
  }

let period t = t.period

let report t ~core =
  t.slots.(core) <- Engine.now t.platform.Platform.engine;
  t.counts.(core) <- t.counts.(core) + 1

let last_report t ~core = t.slots.(core)

let staleness_of t ~target =
  let now = Engine.now t.platform.Platform.engine in
  let window = now / t.window_len in
  if t.stale_window.(target) <> window then begin
    t.stale_window.(target) <- window;
    t.stale_sample.(target) <- Cycle_model.sample_staleness t.prng t.law
  end;
  t.stale_sample.(target)

let observed_age t ~reader ~target ~staleness_scale =
  ignore reader;
  let now = Engine.now t.platform.Platform.engine in
  let age = Sim_time.to_sec_f (Sim_time.diff now t.slots.(target)) in
  age +. (staleness_of t ~target *. staleness_scale)

let lateness t ~reader ~target ~staleness_scale =
  observed_age t ~reader ~target ~staleness_scale
  -. Sim_time.to_sec_f t.period

let reports_count t ~core = t.counts.(core)
