module Engine = Satin_engine.Engine
module Sim_time = Satin_engine.Sim_time
module Cpu = Satin_hw.Cpu
module Platform = Satin_hw.Platform
module Cache = Satin_cache.Cache
module Obs = Satin_obs.Obs

module Metric = struct
  let dispatches = Obs.key "sched.dispatches"
  let rt_dispatch_latency = Obs.key "sched.rt_dispatch_latency"

  let preemptions core =
    Obs.key ~labels:[ ("core", string_of_int core) ] "sched.preemptions"
end

(* Every CFS task owns a fixed 8 KiB working-set footprint in a dedicated
   address window (above the 32 MiB simulated DRAM — the cache model is
   presence-only, so footprints need no backing store). Dispatching the
   task re-touches it on the dispatching core: hot re-dispatches are all
   cache hits, a migration or a competing working set refills through the
   shared L2 — the benign-eviction noise floor the cache probers must
   threshold above. RT tasks (probers, introspection threads) model as
   footprint-free tight loops. Slots are assigned per scheduler in
   first-dispatch order — task ids come from a process-global counter, so
   keying the address on them would make the footprint (and the probers'
   noise floor) depend on how many tasks earlier scenarios created. Each
   slot keeps a [Cache.footprint] handle: a hot re-dispatch on the same
   core, with nothing written to that core's L1 in between, replays the
   recorded hits instead of re-walking the 128 lines (same cache state
   and counters as [Cache.touch_range], DESIGN §14). *)
let footprint_bytes = 8192
let footprint_window = 1 lsl 27

module Params = struct
  let sched_latency = Sim_time.us 6_000
  let min_granularity = Sim_time.us 750
  let wakeup_granularity = Sim_time.us 1_000
end

type running = {
  r_task : Task.t;
  r_after : unit -> Task.after;
  mutable r_left : Sim_time.t; (* CPU still owed to the current step *)
  mutable r_started : Sim_time.t;
  mutable r_handle : Engine.handle option;
}

type core_sched = {
  cpu : Cpu.t;
  mutable rt_queue : Task.t list; (* desc priority; FIFO within a priority *)
  mutable cfs_queue : Task.t list; (* asc vruntime *)
  mutable cur : running option;
  mutable min_vruntime : float;
  preemptions : Obs.key; (* sched.preemptions{core} *)
}

type t = {
  engine : Engine.t;
  cache : Cache.t;
  cores : core_sched array;
  mutable enqueue_hooks : (core:int -> unit) list;
  mutable switches : int;
  mutable spawned : (int, unit) Hashtbl.t;
  footprint_slots : (int, Cache.footprint) Hashtbl.t;
      (* task id -> footprint handle of its slot *)
  mutable footprint_next : int;
}

let footprint t task =
  let id = Task.id task in
  match Hashtbl.find_opt t.footprint_slots id with
  | Some fp -> fp
  | None ->
      let slot = t.footprint_next in
      t.footprint_next <- slot + 1;
      let fp =
        Cache.footprint
          ~addr:(footprint_window + (slot mod 4096 * footprint_bytes))
          ~len:footprint_bytes
      in
      Hashtbl.add t.footprint_slots id fp;
      fp

let exited task = Task.state task = Task.Exited

let rt_prio task =
  match Task.policy task with Task.Rt_fifo p -> p | Task.Cfs -> -1

(* Matches, not [Task.policy task = Task.Cfs] or [cs.cur = None]: neither
   type is immediate, so [=] on it is a polymorphic compare. *)
let is_cfs task =
  match Task.policy task with Task.Cfs -> true | Task.Rt_fifo _ -> false

let idle cs = match cs.cur with None -> true | Some _ -> false

(* ---- queue plumbing ---- *)

let insert_rt cs task ~front =
  let p = rt_prio task in
  let rec go = function
    | [] -> [ task ]
    | hd :: tl ->
        let hp = rt_prio hd in
        if p > hp || (front && p = hp) then task :: hd :: tl else hd :: go tl
  in
  cs.rt_queue <- go cs.rt_queue

let insert_cfs cs task =
  let v = Task.vruntime task in
  let rec go = function
    | [] -> [ task ]
    | hd :: tl -> if v < Task.vruntime hd then task :: hd :: tl else hd :: go tl
  in
  cs.cfs_queue <- go cs.cfs_queue

let remove_task cs task =
  cs.rt_queue <- List.filter (fun x -> x != task) cs.rt_queue;
  cs.cfs_queue <- List.filter (fun x -> x != task) cs.cfs_queue

let nr_cfs cs =
  List.length cs.cfs_queue
  + match cs.cur with
    | Some r when is_cfs r.r_task -> 1
    | Some _ | None -> 0

let cfs_slice cs =
  let n = Int.max 1 (nr_cfs cs) in
  Sim_time.max Params.min_granularity
    (Sim_time.ns (Params.sched_latency / n))

(* ---- core run loop ---- *)

(* Advance the queue floor monotonically towards the smallest vruntime
   still runnable (Linux's update_min_vruntime). *)
let update_min_vruntime cs =
  let candidate =
    match cs.cur, cs.cfs_queue with
    | Some r, head :: _ when is_cfs r.r_task ->
        Some (Float.min (Task.vruntime r.r_task) (Task.vruntime head))
    | Some r, [] when is_cfs r.r_task ->
        Some (Task.vruntime r.r_task)
    | _, head :: _ -> Some (Task.vruntime head)
    | _, [] -> None
  in
  match candidate with
  | Some v when v > cs.min_vruntime -> cs.min_vruntime <- v
  | Some _ | None -> ()

let charge cs r elapsed =
  Task.add_cpu_time r.r_task elapsed;
  (if is_cfs r.r_task then begin
     let v = Task.vruntime r.r_task +. Sim_time.to_sec_f elapsed in
     Task.set_vruntime r.r_task v;
     update_min_vruntime cs
   end);
  r.r_left <- Sim_time.sub r.r_left elapsed

let rec dispatch ?(fuel = 64) t cs =
  if idle cs && not (Cpu.in_secure cs.cpu) then begin
    match pick cs with
    | None -> ()
    | Some task ->
        (* The pick is always a queue head: pop it without filtering. *)
        (match cs.rt_queue, cs.cfs_queue with
        | hd :: tl, _ when hd == task -> cs.rt_queue <- tl
        | _, hd :: tl when hd == task -> cs.cfs_queue <- tl
        | _ -> remove_task cs task);
        Task.set_state task Task.Running;
        Task.incr_dispatches task;
        if is_cfs task then
          Cache.touch_footprint t.cache (footprint t task)
            ~core:(Cpu.id cs.cpu);
        t.switches <- t.switches + 1;
        if Obs.active () then begin
          Obs.incr Metric.dispatches;
          let enq = Task.rt_enqueued_at task in
          if enq >= 0 then begin
            Task.set_rt_enqueued_at task (-1);
            Obs.observe_time Metric.rt_dispatch_latency
              (Sim_time.diff (Engine.now t.engine) enq)
          end
        end;
        begin_step t cs task ~fuel
  end

and pick cs =
  match cs.rt_queue with
  | task :: _ -> Some task
  | [] -> ( match cs.cfs_queue with task :: _ -> Some task | [] -> None)

and begin_step t cs task ~fuel =
  let step =
    match Task.remaining task with
    | Some s ->
        Task.set_remaining task None;
        s
    | None -> Task.body task task
  in
  if step.Task.cpu = Sim_time.zero then begin
    if fuel = 0 then
      invalid_arg
        (Printf.sprintf "Sched: task %s livelocks on zero-cpu steps"
           (Task.name task));
    apply_after t cs task step.Task.after ~fuel:(fuel - 1)
  end
  else begin
    let r =
      {
        r_task = task;
        r_after = step.Task.after;
        r_left = step.Task.cpu;
        r_started = Engine.now t.engine;
        r_handle = None;
      }
    in
    cs.cur <- Some r;
    arm_slice t cs r
  end

and arm_slice t cs r =
  let grant =
    match Task.policy r.r_task with
    | Task.Rt_fifo _ -> r.r_left
    | Task.Cfs -> Sim_time.min r.r_left (cfs_slice cs)
  in
  r.r_started <- Engine.now t.engine;
  r.r_handle <- Some (Engine.schedule t.engine ~after:grant (slice_end t cs r))

and slice_end t cs r () =
  r.r_handle <- None;
  let elapsed = Sim_time.diff (Engine.now t.engine) r.r_started in
  charge cs r elapsed;
  if r.r_left > Sim_time.zero then begin
    (* Step unfinished: a CFS slice expired. Requeue fairly if someone with a
       smaller vruntime is waiting; otherwise keep running. *)
    match cs.cfs_queue with
    | other :: _ when Task.vruntime other < Task.vruntime r.r_task ->
        Task.set_remaining r.r_task (Some { Task.cpu = r.r_left; after = r.r_after });
        Task.set_state r.r_task Task.Ready;
        insert_cfs cs r.r_task;
        cs.cur <- None;
        dispatch t cs
    | _ :: _ | [] -> arm_slice t cs r
  end
  else begin
    cs.cur <- None;
    apply_after t cs r.r_task r.r_after ~fuel:64
  end

and apply_after t cs task after ~fuel =
  match after () with
  | Task.Reenter -> (
      match Task.policy task with
      | Task.Rt_fifo _ -> begin_step t cs task ~fuel
      | Task.Cfs ->
          (* Fair re-entry: back to the queue, then pick the best — carrying
             the fuel so a zero-cpu Reenter loop cannot spin forever at one
             instant through the dispatch path. *)
          Task.set_state task Task.Ready;
          insert_cfs cs task;
          dispatch ~fuel t cs)
  | Task.Sleep d ->
      Task.set_state task Task.Sleeping;
      Task.bump_sleep_epoch task;
      let epoch = Task.sleep_epoch task in
      ignore
        (Engine.schedule t.engine ~after:d (fun () ->
             if Task.state task = Task.Sleeping && Task.sleep_epoch task = epoch
             then wake t task));
      dispatch t cs
  | Task.Block ->
      Task.set_state task Task.Sleeping;
      (* Invalidate any still-pending sleep timer from an earlier state. *)
      Task.bump_sleep_epoch task;
      dispatch t cs
  | Task.Exit ->
      Task.set_state task Task.Exited;
      dispatch t cs

(* ---- preemption ---- *)

and preempt t cs =
  match cs.cur with
  | None -> ()
  | Some r ->
      (match r.r_handle with
      | Some h -> Engine.cancel t.engine h
      | None -> ());
      r.r_handle <- None;
      let elapsed = Sim_time.diff (Engine.now t.engine) r.r_started in
      charge cs r elapsed;
      Task.set_remaining r.r_task
        (Some { Task.cpu = Sim_time.max Sim_time.zero r.r_left; after = r.r_after });
      Task.set_state r.r_task Task.Ready;
      (match Task.policy r.r_task with
      | Task.Rt_fifo _ -> insert_rt cs r.r_task ~front:true
      | Task.Cfs -> insert_cfs cs r.r_task);
      if Obs.active () then Obs.incr cs.preemptions;
      cs.cur <- None

and wake t task =
  match Task.state task with
  | Task.Sleeping ->
      Task.set_state task Task.Ready;
      (* Any sleep-expiry timer still in flight is now stale. *)
      Task.bump_sleep_epoch task;
      (* Sleeper credit (GENTLE_FAIR_SLEEPERS): a waking task is placed half
         a latency period behind the queue floor, so an interactive task can
         preempt a CPU hog on wake-up. *)
      (if is_cfs task then begin
         let credit =
           (match Task.affinity task, Task.assigned_core task with
            | Some c, _ | None, Some c -> t.cores.(c).min_vruntime
            | None, None -> 0.0)
           -. (Sim_time.to_sec_f Params.sched_latency /. 2.0)
         in
         if Task.vruntime task < credit then Task.set_vruntime task credit
       end);
      let core =
        match Task.affinity task with
        | Some c -> c
        | None -> (
            match Task.assigned_core task with
            | Some c when not (Cpu.in_secure t.cores.(c).cpu) -> c
            | Some _ | None -> least_loaded_normal t)
      in
      Task.set_assigned_core task (Some core);
      enqueue t core task
  | Task.Ready | Task.Running | Task.Exited -> ()

and least_loaded_normal t =
  (* Prefer awake cores; fall back to core 0 when everything is secure. *)
  let best = ref None in
  Array.iteri
    (fun i cs ->
      if not (Cpu.in_secure cs.cpu) then begin
        let load =
          List.length cs.rt_queue + List.length cs.cfs_queue
          + (match cs.cur with Some _ -> 1 | None -> 0)
        in
        match !best with
        | Some (_, l) when l <= load -> ()
        | Some _ | None -> best := Some (i, load)
      end)
    t.cores;
  match !best with Some (i, _) -> i | None -> 0

and enqueue t core task =
  let cs = t.cores.(core) in
  (match Task.policy task with
  | Task.Rt_fifo _ ->
      if Obs.active () then Task.set_rt_enqueued_at task (Engine.now t.engine);
      insert_rt cs task ~front:false
  | Task.Cfs ->
      (* A waking CFS task must not monopolize: bring it up to the queue's
         current floor. *)
      if Task.vruntime task < cs.min_vruntime then
        Task.set_vruntime task cs.min_vruntime;
      insert_cfs cs task);
  List.iter (fun f -> f ~core) t.enqueue_hooks;
  check_preempt t cs task;
  dispatch t cs

and check_preempt t cs woken =
  match cs.cur with
  | None -> ()
  | Some r -> (
      match Task.policy woken, Task.policy r.r_task with
      | Task.Rt_fifo _, Task.Cfs -> preempt t cs
      | Task.Rt_fifo wp, Task.Rt_fifo cp -> if wp > cp then preempt t cs
      | Task.Cfs, Task.Cfs ->
          let gap = Task.vruntime r.r_task -. Task.vruntime woken in
          if gap > Sim_time.to_sec_f Params.wakeup_granularity then preempt t cs
      | Task.Cfs, Task.Rt_fifo _ -> ())

let create platform =
  let engine = platform.Platform.engine in
  let t =
    {
      engine;
      cache = platform.Platform.cache;
      cores =
        Array.map
          (fun cpu ->
            {
              cpu;
              rt_queue = [];
              cfs_queue = [];
              cur = None;
              min_vruntime = 0.0;
              preemptions = Metric.preemptions (Cpu.id cpu);
            })
          platform.Platform.cores;
      enqueue_hooks = [];
      switches = 0;
      spawned = Hashtbl.create 64;
      footprint_slots = Hashtbl.create 64;
      footprint_next = 0;
    }
  in
  Array.iter
    (fun cs ->
      Cpu.on_world_change cs.cpu (fun _ world ->
          match world with
          | Satin_hw.World.Secure -> preempt t cs
          | Satin_hw.World.Normal -> dispatch t cs))
    t.cores;
  t

let spawn t task =
  if Hashtbl.mem t.spawned (Task.id task) then
    invalid_arg (Printf.sprintf "Sched.spawn: %s already spawned" (Task.name task));
  Hashtbl.replace t.spawned (Task.id task) ();
  let core =
    match Task.affinity task with
    | Some c ->
        if c < 0 || c >= Array.length t.cores then
          invalid_arg "Sched.spawn: affinity names an unknown core";
        c
    | None -> least_loaded_normal t
  in
  Task.set_assigned_core task (Some core);
  enqueue t core task

let wake = wake

let scheduler_tick t ~core =
  let cs = t.cores.(core) in
  match cs.cur with
  | Some r when is_cfs r.r_task -> (
      match cs.cfs_queue with
      | other :: _
        when Task.vruntime r.r_task -. Task.vruntime other
             > Sim_time.to_sec_f Params.wakeup_granularity ->
          preempt t cs;
          dispatch t cs
      | _ :: _ | [] -> ())
  | Some _ | None -> dispatch t cs

let current t ~core =
  match t.cores.(core).cur with Some r -> Some r.r_task | None -> None

let has_work t ~core =
  let cs = t.cores.(core) in
  match cs.cur, cs.rt_queue, cs.cfs_queue with
  | None, [], [] -> false
  | Some _, _, _ | _, _ :: _, _ | _, _, _ :: _ -> true

let on_enqueue t f = t.enqueue_hooks <- t.enqueue_hooks @ [ f ]
let context_switches t = t.switches

let invariant_violations t =
  let out = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  Array.iteri
    (fun core cs ->
      (* A core held by the secure world parks its current task. *)
      (match cs.cur with
      | Some r when Cpu.in_secure cs.cpu ->
          fail "core %d: secure world but %s still current" core
            (Task.name r.r_task)
      | Some r when Task.state r.r_task <> Task.Running ->
          fail "core %d: current task %s not in Running state" core
            (Task.name r.r_task)
      | Some _ | None -> ());
      let check_queued which task =
        if Task.state task <> Task.Ready then
          fail "core %d: %s-queued task %s not in Ready state" core which
            (Task.name task)
      in
      List.iter (check_queued "rt") cs.rt_queue;
      List.iter (check_queued "cfs") cs.cfs_queue;
      (* rt_queue descending static priority. *)
      let rec rt_order = function
        | a :: (b :: _ as tl) ->
            if rt_prio a < rt_prio b then
              fail "core %d: rt_queue out of priority order (%s < %s)" core
                (Task.name a) (Task.name b);
            rt_order tl
        | [ _ ] | [] -> ()
      in
      rt_order cs.rt_queue;
      (* cfs_queue ascending vruntime. *)
      let rec cfs_order = function
        | a :: (b :: _ as tl) ->
            if Task.vruntime a > Task.vruntime b then
              fail "core %d: cfs_queue out of vruntime order (%s > %s)" core
                (Task.name a) (Task.name b);
            cfs_order tl
        | [ _ ] | [] -> ()
      in
      cfs_order cs.cfs_queue;
      (* No task queued twice, and no current task also queued. *)
      let all =
        (match cs.cur with Some r -> [ r.r_task ] | None -> [])
        @ cs.rt_queue @ cs.cfs_queue
      in
      let rec dup = function
        | a :: tl ->
            if List.memq a tl then
              fail "core %d: task %s present twice in the run queues" core
                (Task.name a);
            dup tl
        | [] -> ()
      in
      dup all)
    t.cores;
  List.rev !out
