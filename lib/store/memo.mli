(** Cache-aware trial fan-out: {!Satin_runner.Runner.map} wired to the
    ambient {!Store}.

    [map pool ~experiment ~seed ?config ?trial_config n f] is
    observationally [Runner.map pool n f] — same results, same submission
    order, same lowest-index failure — and every call is one loop:

    + {e resolve}: with a store installed ({!Store.install}), each trial
      [i] is looked up in index order under [Key.make ~experiment ~seed
      ~trial_index:i ~config:(config @ trial_config i)];
    + {e compute}: the misses this process owns run as one [Runner.map]
      batch, and each is persisted the moment its body returns (on
      whichever domain ran it), so an interrupted campaign resumes from
      the completed trials;
    + {e wait}: only when sharded ({!set_shard}), the trials other shards
      own are served from the store as they are published, or stolen.

    Without a store nothing is looked up or persisted, and an unsharded
    run is shard 0 of 1: it owns every trial and takes no claims. Results
    are byte-identical at any pool width, warm or cold: hits deserialize
    to exactly the bytes the trial body produced (binary-pinned by the
    key's fingerprint), and misses run the unchanged body.

    Under an {!Satin_obs.Obs} observer on the calling domain (a
    [--trace]/[--metrics] sink), every computed trial runs in its own
    capture, merged into that observer in index order (a stolen trial's
    as soon as it completes), so the observer sees what a sequential run
    would have written, at any pool width. Each call records one
    [runner.batches]; [runner.trials] counts every trial it computed,
    stolen ones included; with a store it also records
    [runner.trials_resolved], the trials served without running, the
    growth of {!Store.counters} as the [store.*] series, and a span per
    lookup on a dedicated store track ([store.hit]/[store.miss], with the
    experiment, trial index, and key as args).

    {2 Metric capsules}

    With a store installed or a live {!Satin_obs.Progress} reporter on,
    every computed trial body runs in a capture: its metrics registry is
    sealed into a {!Satin_obs.Capsule.t} (stamped with the experiment,
    seed, trial index, binary fingerprint, and the full config — ambient
    context under its ["ctx:"] namespace), fed to the reporter, and
    persisted beside the result via {!Store.add_capsule}. Warm hits replay
    the persisted capsule instead of recomputing anything. The [telemetry]
    subcommand aggregates these capsules. *)

module Runner = Satin_runner.Runner

val map :
  Runner.t ->
  experiment:string ->
  seed:int ->
  ?config:Key.config ->
  ?trial_config:(int -> Key.config) ->
  int ->
  (int -> 'a) ->
  'a array
(** [config] holds parameters shared by the whole fan-out, [trial_config]
    the per-trial ones (probing period, fault plan, ...). With no store,
    reporter or observer this is exactly [Runner.map]. A claim taken for
    a trial is released when its body returns or raises. *)

(** {2 Sharding}

    With {!set_shard} [(Some (i, n))] and an ambient store, [map]
    partitions each fan-out across [n] cooperating processes: trial [t]
    is {e owned} by shard [(t + Hashtbl.hash (experiment, seed)) mod n]
    (the hash rotation spreads single-trial fan-outs across the fleet).
    A shard claims and computes its owned misses through the pool, then
    waits for the remaining trials to be published by their owners —
    polling the store and stealing any trial whose lease ({!Store.try_claim})
    is stale, or that was never claimed within one lease TTL of the wait
    starting. Every shard therefore returns the {e full} result array,
    byte-identical to an unsharded run: trials are pure in their key, so
    even a duplicated computation (two workers racing a stale lease)
    rewrites identical bytes. *)

val set_shard : (int * int) option -> unit
(** [set_shard (Some (i, n))] makes subsequent [map] calls run as shard
    [i] of [n]; [None] (the default) and [n = 1] make every call the
    unsharded shard 0 of 1. Raises [Invalid_argument] unless
    [0 <= i < n]. Ignored while no store is installed. *)

val set_lease_ttl : float -> unit
(** Seconds a trial claim protects its owner before peers may steal it
    (default 60). Also the grace a waiting shard extends to owners that
    have not yet claimed a trial at all. Raises [Invalid_argument] unless
    the value is finite and positive: under a NaN or infinite TTL that
    grace never ends, and a shard waits forever for a trial nobody
    claimed. *)

val lease_ttl : unit -> float
