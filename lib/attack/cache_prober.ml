module Engine = Satin_engine.Engine
module Sim_time = Satin_engine.Sim_time
module Prng = Satin_engine.Prng
module Platform = Satin_hw.Platform
module Cpu = Satin_hw.Cpu
module Cycle_model = Satin_hw.Cycle_model
module Cache = Satin_cache.Cache
module Kernel = Satin_kernel.Kernel
module Task = Satin_kernel.Task

type fidelity = Abstract | Prime_probe | Evict_reload

let fidelity_to_string = function
  | Abstract -> "abstract"
  | Prime_probe -> "prime+probe"
  | Evict_reload -> "evict+reload"

type config = {
  fidelity : fidelity;
  period : Sim_time.t;
  eviction_lag : Sim_time.t;
  noise_rate_hz : float;
  hit_latency_s : float;
  miss_latency_s : float;
  monitored_sets : int;
  pp_threshold : float;
  er_region : (int * int) option;
}

let default_config =
  {
    fidelity = Abstract;
    period = Sim_time.us 200;
    eviction_lag = Sim_time.us 100;
    noise_rate_hz = 0.02;
    hit_latency_s = 2.0e-8;
    miss_latency_s = 1.4e-7;
    monitored_sets = 8;
    pp_threshold = 0.5;
    er_region = None;
  }

type detection = {
  det_cluster : int;
  det_time : Sim_time.t;
  det_latency_s : float;
  det_noise : bool;
}

type t = {
  platform : Platform.t;
  config : config;
  prng : Prng.t;
  clusters : int array array; (* cluster -> member core ids *)
  (* Prime+Probe: per cluster, [monitored_sets] eviction sets (line-address
     arrays) in the cluster's private attacker window. *)
  pp_sets : int array array array;
  (* Evict+Reload: per cluster, the watched victim lines and, aligned with
     them, the eviction set that flushes each one. *)
  er_targets : int array array;
  er_evsets : int array array array;
  tally : int array; (* this round's serves per level: L1, L2, memory *)
  flushed : int array; (* Evict+Reload flush serves, never read *)
  primed_since : Sim_time.t array;
  warmed : bool array; (* modeled modes: first round only primes *)
  suspected : bool array;
  mutable suspect_hooks : (detection -> unit) list;
  mutable clear_hooks : (cluster:int -> unit) list;
  mutable detections : detection list; (* newest first *)
  mutable false_alarms : int;
  mutable running : bool;
}

let clusters_of_platform platform = Platform.clusters platform
let cluster_of_core platform ~core = Platform.cluster_of_core platform ~core

let now t = Engine.now t.platform.Platform.engine

(* Did any cluster core spend >= eviction_lag in the secure world since the
   set was last primed? The abstract mode's detector — and the modeled
   modes' ground-truth noise classifier. *)
let evicted_since t ~cluster =
  let since = t.primed_since.(cluster) in
  Array.exists
    (fun core ->
      let cpu = Platform.core t.platform core in
      let overlap =
        if Cpu.in_secure cpu then
          match Cpu.last_entry_time cpu with
          | Some entry -> Sim_time.diff (now t) (Sim_time.max entry since)
          | None -> Sim_time.zero
        else
          match Cpu.last_entry_time cpu, Cpu.last_exit_time cpu with
          | Some entry, Some exit when exit > since ->
              Sim_time.diff exit (Sim_time.max entry since)
          | _ -> Sim_time.zero
      in
      overlap >= t.config.eviction_lag)
    t.clusters.(cluster)

let fire_suspect t ~cluster ~latency ~noise =
  let det =
    { det_cluster = cluster; det_time = now t; det_latency_s = latency;
      det_noise = noise }
  in
  t.detections <- det :: t.detections;
  if noise then t.false_alarms <- t.false_alarms + 1;
  t.suspected.(cluster) <- true;
  List.iter (fun f -> f det) t.suspect_hooks

let fire_clear t ~cluster =
  if t.suspected.(cluster) then begin
    t.suspected.(cluster) <- false;
    List.iter (fun f -> f ~cluster) t.clear_hooks
  end

(* ---- Abstract: the residency heuristic (the pre-cache model) ---- *)

let probe_abstract t ~cluster =
  let evicted = evicted_since t ~cluster in
  let noise =
    (not evicted)
    && Prng.bernoulli t.prng
         (t.config.noise_rate_hz *. Sim_time.to_sec_f t.config.period)
  in
  t.primed_since.(cluster) <- now t;
  if evicted || noise then
    let latency =
      t.config.miss_latency_s *. Prng.lognormal t.prng ~mu:0.0 ~sigma:0.1
    in
    fire_suspect t ~cluster ~latency ~noise
  else fire_clear t ~cluster

(* ---- Modeled modes: timing real accesses against the hierarchy ---- *)

let probe_core t ~cluster = t.clusters.(cluster).(0)

(* Mean observed per-access latency for a round that was served [l1],
   [l2] and [mem] times per level: one sampled deviate per level actually
   exercised, as a round-aggregate timing would show it. *)
let round_latency t ~l1 ~l2 ~mem =
  let total = l1 + l2 + mem in
  if total = 0 then 0.0
  else begin
    let cycle = t.platform.Platform.cycle in
    let part n level =
      if n = 0 then 0.0
      else float_of_int n *. Cycle_model.load_latency t.prng cycle ~level
    in
    (part l1 0 +. part l2 1 +. part mem 2) /. float_of_int total
  end

(* Prime+Probe: touching the whole eviction set is simultaneously this
   round's probe (timing which lines fell out of the L2 since last round)
   and the next round's prime. A full miss means the line had to come back
   from DRAM — somebody streamed through the shared L2. L1-only evictions
   (same-core task footprints) still hit L2 and are not counted, which is
   what keeps the channel cluster-grained. *)
let probe_prime_probe t ~cluster =
  let core = probe_core t ~cluster in
  let cache = t.platform.Platform.cache in
  let tally = t.tally and sets = t.pp_sets.(cluster) in
  Array.fill tally 0 3 0;
  for i = 0 to Array.length sets - 1 do
    Cache.sweep cache ~core sets.(i) tally
  done;
  Cache.publish cache;
  (* The very first round only establishes the prime: the sets were never
     resident, so their cold misses say nothing about anyone else. *)
  if not t.warmed.(cluster) then begin
    t.warmed.(cluster) <- true;
    t.primed_since.(cluster) <- now t
  end
  else begin
    let l1 = tally.(0) and l2 = tally.(1) and mem = tally.(2) in
    let total = l1 + l2 + mem in
    let miss_fraction =
      if total = 0 then 0.0 else float_of_int mem /. float_of_int total
    in
    let alarm = miss_fraction > t.config.pp_threshold in
    let noise = alarm && not (evicted_since t ~cluster) in
    t.primed_since.(cluster) <- now t;
    if alarm then
      fire_suspect t ~cluster ~latency:(round_latency t ~l1 ~l2 ~mem) ~noise
    else fire_clear t ~cluster
  end

(* Evict+Reload: reload each watched kernel line (a hit means someone —
   the scan front — touched it since we last flushed it), then flush it
   again by priming its eviction set. Under AutoLock the flush fails
   whenever the line sits in the scanning core's L1, so the signal decays
   into stale "hits" — the false-alarm explosion the cache_fidelity
   experiment tabulates. *)
let probe_evict_reload t ~cluster =
  let core = probe_core t ~cluster in
  let cache = t.platform.Platform.cache in
  let tally = t.tally in
  let targets = t.er_targets.(cluster) and evsets = t.er_evsets.(cluster) in
  Array.fill tally 0 3 0;
  for i = 0 to Array.length targets - 1 do
    let level = Cache.touch cache ~core ~addr:targets.(i) in
    tally.(level) <- tally.(level) + 1;
    Cache.sweep cache ~core evsets.(i) t.flushed
  done;
  Cache.publish cache;
  if not t.warmed.(cluster) then begin
    t.warmed.(cluster) <- true;
    t.primed_since.(cluster) <- now t
  end
  else begin
    let l1 = tally.(0) and l2 = tally.(1) and mem = tally.(2) in
    let alarm = l1 + l2 > 0 in
    let noise = alarm && not (evicted_since t ~cluster) in
    t.primed_since.(cluster) <- now t;
    if alarm then
      fire_suspect t ~cluster ~latency:(round_latency t ~l1 ~l2 ~mem) ~noise
    else fire_clear t ~cluster
  end

let probe t ~cluster =
  match t.config.fidelity with
  | Abstract -> probe_abstract t ~cluster
  | Prime_probe -> probe_prime_probe t ~cluster
  | Evict_reload -> probe_evict_reload t ~cluster

let probe_body t ~cluster task =
  ignore task;
  if not t.running then { Task.cpu = Sim_time.zero; after = (fun () -> Task.Exit) }
  else
    {
      (* Priming + timing the sets is a few microseconds of loads; the
         per-access latencies shape the observation, not the schedule. *)
      Task.cpu = Sim_time.us 4;
      after =
        (fun () ->
          probe t ~cluster;
          Task.Sleep t.config.period);
    }

(* Each cluster's prober owns a 16 MiB attacker window above the simulated
   DRAM; eviction-set members come from it. Monitored L2 set [i] gets a +i
   skew on the even stride so distinct monitored sets also land in
   distinct L1 sets — an attacker lays its eviction sets out precisely so
   its own priming does not thrash its own L1 (and, under AutoLock, so
   each whole set can stay L1-resident and pinned). *)
let pp_window cluster = (1 lsl 26) + (cluster lsl 24)

let monitored_l2_sets cache n =
  let sets = Cache.l2_sets cache in
  let stride = max 1 (sets / n) in
  Array.init n (fun i -> ((i * stride) + i) mod sets)

let build_pp_sets cache ~clusters ~n =
  Array.mapi
    (fun cluster _ ->
      let base = pp_window cluster in
      Array.map
        (fun l2_set -> Cache.eviction_set cache ~l2_set ~base)
        (monitored_l2_sets cache n))
    clusters

let build_er cache ~clusters ~n ~region:(rbase, rlen) =
  let line = Cache.line_size cache in
  let stride = max line (rlen / n / line * line) in
  let targets =
    Array.map (fun _ -> Array.init n (fun i -> rbase + (i * stride))) clusters
  in
  let evsets =
    Array.mapi
      (fun cluster targets ->
        Array.map
          (fun target ->
            Cache.eviction_set cache
              ~l2_set:(Cache.l2_set_of_addr cache ~addr:target)
              ~base:(pp_window cluster))
          targets)
      targets
  in
  targets, evsets

let deploy kernel config =
  let platform = kernel.Kernel.platform in
  let cache = platform.Platform.cache in
  let clusters = Platform.clusters platform in
  let n = Array.length clusters in
  let pp_sets =
    match config.fidelity with
    | Prime_probe -> build_pp_sets cache ~clusters ~n:config.monitored_sets
    | Abstract | Evict_reload -> Array.make n [||]
  in
  let er_targets, er_evsets =
    match config.fidelity with
    | Evict_reload ->
        let region =
          match config.er_region with
          | Some r -> r
          | None ->
              let layout = kernel.Kernel.layout in
              ( Satin_kernel.Layout.base layout,
                Satin_kernel.Layout.total_size layout )
        in
        build_er cache ~clusters ~n:config.monitored_sets ~region
    | Abstract | Prime_probe -> Array.make n [||], Array.make n [||]
  in
  let t =
    {
      platform;
      config;
      prng = Platform.split_prng platform;
      clusters;
      pp_sets;
      er_targets;
      er_evsets;
      tally = Array.make 3 0;
      flushed = Array.make 3 0;
      primed_since = Array.make n Sim_time.zero;
      warmed = Array.make n false;
      suspected = Array.make n false;
      suspect_hooks = [];
      clear_hooks = [];
      detections = [];
      false_alarms = 0;
      running = true;
    }
  in
  Array.iteri
    (fun cluster members ->
      let task =
        Task.create
          ~name:(Printf.sprintf "cacheprobe/%d" cluster)
          ~policy:(Task.Rt_fifo Task.rt_priority_max) ~affinity:members.(0)
          ~body:(probe_body t ~cluster)
          ()
      in
      Kernel.spawn kernel task)
    clusters;
  t

let on_suspect t f = t.suspect_hooks <- t.suspect_hooks @ [ f ]
let on_clear t f = t.clear_hooks <- t.clear_hooks @ [ f ]
let suspected t ~cluster = t.suspected.(cluster)
let detections t = List.rev t.detections
let false_alarms t = t.false_alarms
let retire t = t.running <- false
