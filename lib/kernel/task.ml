module Sim_time = Satin_engine.Sim_time

type policy = Cfs | Rt_fifo of int

let rt_priority_max = 99

type state = Ready | Running | Sleeping | Exited

type after = Reenter | Sleep of Sim_time.t | Block | Exit

type step = { cpu : Sim_time.t; after : unit -> after }

type t = {
  id : int;
  name : string;
  policy : policy;
  affinity : int option;
  body : t -> step;
  mutable state : state;
  mutable vruntime : float;
  mutable cpu_time : Sim_time.t;
  mutable dispatches : int;
  mutable assigned_core : int option;
  mutable remaining : step option;
  mutable sleep_epoch : int;
  mutable rt_enqueued_at : Sim_time.t; (* negative: none pending *)
}

(* Atomic: scenarios on concurrent runner domains create tasks in
   parallel, and a lost update here would alias two ids inside one
   scheduler's per-id tables. Nothing simulation-visible may depend on the
   id *value* (it reflects process history) — only on distinctness. *)
let next_id = Atomic.make 0

let create ~name ~policy ?affinity ~body () =
  (match policy with
  | Rt_fifo p when p < 1 || p > rt_priority_max ->
      invalid_arg "Task.create: RT priority out of 1..99"
  | Rt_fifo _ | Cfs -> ());
  {
    id = Atomic.fetch_and_add next_id 1 + 1;
    name;
    policy;
    affinity;
    body;
    state = Ready;
    vruntime = 0.0;
    cpu_time = Sim_time.zero;
    dispatches = 0;
    assigned_core = None;
    remaining = None;
    sleep_epoch = 0;
    rt_enqueued_at = -1;
  }

let id t = t.id
let name t = t.name
let policy t = t.policy
let affinity t = t.affinity
let state t = t.state
let cpu_time t = t.cpu_time
let vruntime t = t.vruntime
let dispatches t = t.dispatches

let pp fmt t =
  let policy_str =
    match t.policy with
    | Cfs -> "cfs"
    | Rt_fifo p -> Printf.sprintf "rt:%d" p
  in
  Format.fprintf fmt "task%d<%s,%s>" t.id t.name policy_str

let set_state t s = t.state <- s
let set_vruntime t v = t.vruntime <- v
let add_cpu_time t d = t.cpu_time <- Sim_time.add t.cpu_time d
let incr_dispatches t = t.dispatches <- t.dispatches + 1
let body t = t.body
let assigned_core t = t.assigned_core
let set_assigned_core t c = t.assigned_core <- c
let remaining t = t.remaining
let set_remaining t r = t.remaining <- r
let sleep_epoch t = t.sleep_epoch
let bump_sleep_epoch t = t.sleep_epoch <- t.sleep_epoch + 1
let rt_enqueued_at t = t.rt_enqueued_at
let set_rt_enqueued_at t time = t.rt_enqueued_at <- time
