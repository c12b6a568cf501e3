module Engine = Satin_engine.Engine
module Sim_time = Satin_engine.Sim_time
module Sched = Satin_kernel.Sched
module Proc_table = Satin_kernel.Proc_table
module Obs = Satin_obs.Obs

module Metric = struct
  let checks = Obs.key "sanitizer.checks"
  let violations = Obs.key "sanitizer.violations"
end

(* ---- global state ----

   Campaigns fan trials out over domains, so the global aggregates are a
   pair of atomics plus a mutex-guarded capped message list. Per-trial
   check/violation counts are deterministic (the sanitizer only reads
   simulation state), and integer addition commutes, so the totals are
   byte-identical whatever the jobs width. *)

let mode = Atomic.make false
let set_check_mode on = Atomic.set mode on
let check_mode () = Atomic.get mode

let g_checks = Atomic.make 0
let g_violations = Atomic.make 0
let message_cap = 32
let g_messages : string list ref = ref []
let g_mutex = Mutex.create ()

type report = { checks : int; violations : int; messages : string list }

let global_report () =
  Mutex.lock g_mutex;
  let messages = List.rev !g_messages in
  Mutex.unlock g_mutex;
  {
    checks = Atomic.get g_checks;
    violations = Atomic.get g_violations;
    messages;
  }

let reset_global () =
  Atomic.set g_checks 0;
  Atomic.set g_violations 0;
  Mutex.lock g_mutex;
  g_messages := [];
  Mutex.unlock g_mutex

(* ---- per-engine instance ---- *)

type t = {
  name : string;
  engine : Engine.t;
  sched : Sched.t option;
  proc_table : Proc_table.t option;
  sample_every : int;
  mutable last_time : Sim_time.t;
  mutable events_seen : int;
  mutable checks : int;
  mutable violations : int;
}

let default_sample_every = 512

let checks t = t.checks
let violations t = t.violations

let record t found =
  t.checks <- t.checks + 1;
  Atomic.incr g_checks;
  Obs.incr Metric.checks;
  match found with
  | [] -> ()
  | found ->
      let n = List.length found in
      t.violations <- t.violations + n;
      ignore (Atomic.fetch_and_add g_violations n);
      Obs.incr Metric.violations ~by:n;
      Mutex.lock g_mutex;
      List.iter
        (fun v ->
          if List.length !g_messages < message_cap then
            g_messages := Printf.sprintf "[%s] %s" t.name v :: !g_messages)
        found;
      Mutex.unlock g_mutex

let structural_violations t =
  Engine.invariant_violations t.engine
  @ (match t.sched with
    | Some s -> List.map (fun v -> "sched: " ^ v) (Sched.invariant_violations s)
    | None -> [])
  @
  match t.proc_table with
  | Some p ->
      List.map (fun v -> "proc_table: " ^ v) (Proc_table.invariant_violations p)
  | None -> []

let check_now t =
  let clock = Engine.now t.engine in
  let found =
    if clock < t.last_time then
      [
        Printf.sprintf "clock rewound: %s observed after %s"
          (Sim_time.to_string clock)
          (Sim_time.to_string t.last_time);
      ]
    else []
  in
  if clock > t.last_time then t.last_time <- clock;
  let found = found @ structural_violations t in
  record t found;
  found

let attach ?(sample_every = default_sample_every) ?(name = "sanitizer") ?sched
    ?proc_table engine =
  if sample_every < 1 then
    invalid_arg "Sanitizer.attach: sample_every must be >= 1";
  let t =
    {
      name;
      engine;
      sched;
      proc_table;
      sample_every;
      last_time = Engine.now engine;
      events_seen = 0;
      checks = 0;
      violations = 0;
    }
  in
  (* Chain behind any previously installed observer (e.g. Obs.attach_engine)
     instead of replacing it — the engine has a single observer slot. *)
  let previous = Engine.observer engine in
  Engine.set_observer engine
    (Some
       (fun ~time ~pending ->
         (match previous with
         | Some f -> f ~time ~pending
         | None -> ());
         (* Monotonicity is one comparison, so it runs on every event; the
            structural sweeps are O(state) and run on the sampled cadence. *)
         if time < t.last_time then
           record t
             [
               Printf.sprintf "clock rewound: event at %s after %s"
                 (Sim_time.to_string time)
                 (Sim_time.to_string t.last_time);
             ]
         else t.last_time <- time;
         t.events_seen <- t.events_seen + 1;
         if t.events_seen mod t.sample_every = 0 then
           record t (structural_violations t)));
  t
