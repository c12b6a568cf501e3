module Engine = Satin_engine.Engine
module Prng = Satin_engine.Prng
module Cache = Satin_cache.Cache

type t = {
  engine : Engine.t;
  prng : Prng.t;
  cycle : Cycle_model.t;
  memory : Memory.t;
  cores : Cpu.t array;
  gic : Gic.t;
  secure_timers : Timer.t array;
  tick_timers : Timer.t array;
  monitor : Monitor.t;
  clusters : int array array;
  cache : Cache.t;
}

let secure_timer_irq = 29
let tick_irq = 30

(* Cluster topology: consecutive cores of the same type share an L2 (the
   Juno's big.LITTLE layout; a homogeneous platform is one cluster). *)
let clusters_of_core_types types =
  let groups = ref [] and current = ref [ 0 ] in
  for i = 1 to Array.length types - 1 do
    if Cycle_model.equal_core_type types.(i) types.(i - 1) then
      current := i :: !current
    else begin
      groups := List.rev !current :: !groups;
      current := [ i ]
    end
  done;
  groups := List.rev !current :: !groups;
  Array.of_list (List.rev_map Array.of_list !groups)

let create ?(seed = 42) ?(cycle = Cycle_model.default)
    ?(mem_size = 32 * 1024 * 1024) ?(cache = Cache.default_config) ~core_types
    () =
  let ncores = Array.length core_types in
  if ncores = 0 then invalid_arg "Platform.create: need at least one core";
  let engine = Engine.create () in
  let prng = Prng.create seed in
  let memory = Memory.create ~size:mem_size in
  let cores =
    Array.mapi (fun id core_type -> Cpu.create ~engine ~id ~core_type) core_types
  in
  let gic = Gic.create ~ncores in
  Gic.define gic ~irq:secure_timer_irq ~group:Gic.Group0_secure
    ~name:"cntps (secure physical timer)";
  Gic.define gic ~irq:tick_irq ~group:Gic.Group1_non_secure
    ~name:"cntp (non-secure physical timer)";
  let monitor = Monitor.create ~engine ~gic ~cycle ~prng ~ncores in
  let timer_for irq cpu = Timer.create ~engine ~gic ~cpu ~irq in
  let clusters = clusters_of_core_types core_types in
  (* The cache draws only for the Rand policy, from a stream derived purely
     from the seed: building (or replacing) a cache never advances the
     platform PRNG, so every pre-cache experiment output is unchanged. *)
  let cache_prng = Prng.create (Prng.derive seed 0xCAC4E) in
  {
    engine;
    prng;
    cycle;
    memory;
    cores;
    gic;
    secure_timers = Array.map (timer_for secure_timer_irq) cores;
    tick_timers = Array.map (timer_for tick_irq) cores;
    monitor;
    clusters;
    cache = Cache.create ~prng:cache_prng ~clusters cache;
  }

let juno_r1 ?seed ?cycle ?cache () =
  let open Cycle_model in
  create ?seed ?cycle ?cache ~core_types:[| A53; A53; A53; A53; A57; A57 |] ()

let ncores t = Array.length t.cores
let core t i = t.cores.(i)
let split_prng t = Prng.split t.prng
let clusters t = t.clusters
let cluster_of_core t ~core = Cache.cluster_of_core t.cache ~core

let cores_of_type t ct =
  Array.to_list t.cores
  |> List.filter (fun c -> Cycle_model.equal_core_type (Cpu.core_type c) ct)
