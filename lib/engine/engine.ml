type handle = Event_queue.handle

type t = {
  mutable clock : Sim_time.t;
  queue : (unit -> unit) Event_queue.t;
  mutable fired : int;
  mutable observer : (time:Sim_time.t -> pending:int -> unit) option;
  mutable batch_observer : (size:int -> unit) option;
  (* The drain callback handed to [Event_queue.drain_batch], built once at
     creation: [step]/[run_all]/[run_until] run with zero allocation
     (DESIGN §10/§12). *)
  mutable dispatch : Sim_time.t -> (unit -> unit) -> unit;
}

exception Schedule_in_past

let create () =
  let t =
    {
      clock = Sim_time.zero;
      queue = Event_queue.create ();
      fired = 0;
      observer = None;
      batch_observer = None;
      dispatch = (fun _ _ -> ());
    }
  in
  t.dispatch <-
    (fun time f ->
      t.clock <- time;
      f ();
      t.fired <- t.fired + 1;
      match t.observer with
      | Some obs -> obs ~time:t.clock ~pending:(Event_queue.length t.queue)
      | None -> ());
  t

let now t = t.clock
let pending t = Event_queue.length t.queue
let events_fired t = t.fired
let set_observer t obs = t.observer <- obs
let observer t = t.observer
let set_batch_observer t obs = t.batch_observer <- obs

let at t ~time f =
  if time < t.clock then raise Schedule_in_past;
  Event_queue.push t.queue ~time f

let schedule t ~after f =
  if Sim_time.is_negative after then raise Schedule_in_past;
  at t ~time:(Sim_time.add t.clock after) f

let cancel t handle = Event_queue.cancel t.queue handle
let is_live t handle = Event_queue.is_live t.queue handle

let every t ~period ?start f =
  let first =
    match start with Some s -> s | None -> Sim_time.add t.clock period
  in
  if first < t.clock then
    invalid_arg "Engine.every: ~start is in the past";
  (* One body closure serves the whole recurrence: each occurrence re-arms
     by pushing the same closure, and the queue stores payloads unwrapped,
     so the steady state allocates nothing per occurrence (the
     words/event <= 2 periodic-timer contract). The lazy knot ties the
     cell (which must exist before the first occurrence can re-arm through
     it) to the first occurrence (which initializes the cell) without a
     throwaway entry. *)
  let rec body () =
    (* Re-arm first: the callback can then cancel !cell to stop the
       recurrence (the .mli contract). *)
    let cell = Lazy.force cell in
    cell := at t ~time:(Sim_time.add t.clock period) body;
    f ()
  and cell = lazy (ref (at t ~time:first body)) in
  Lazy.force cell

let step t = Event_queue.pop_into t.queue t.dispatch

(* Report one dispatched batch to the observability hook; a single match
   when no hook is installed, so un-instrumented runs pay nothing. *)
let[@inline] note_batch t size =
  match t.batch_observer with None -> () | Some obs -> obs ~size

let run_until t stop =
  (* [peek_time_or] with a [max_int] sentinel keeps the bound check
     allocation-free; every batch shares one timestamp, so the bound only
     needs checking between batches. *)
  let rec loop () =
    if Event_queue.peek_time_or t.queue ~default:max_int <= stop then begin
      let n = Event_queue.drain_batch t.queue ~max_events:max_int t.dispatch in
      if n > 0 then begin
        note_batch t n;
        loop ()
      end
    end
  in
  loop ();
  if t.clock < stop then t.clock <- stop

type outcome = Drained | Limit_hit

let run_all t ?(limit = 100_000_000) () =
  let rec loop n =
    if n >= limit then if pending t > 0 then Limit_hit else Drained
    else
      let k =
        Event_queue.drain_batch t.queue ~max_events:(limit - n) t.dispatch
      in
      if k = 0 then Drained
      else begin
        note_batch t k;
        loop (n + k)
      end
  in
  loop 0

let invariant_violations t =
  let queue = Event_queue.invariant_violations t.queue in
  let clock =
    if Sim_time.is_negative t.clock then
      [ Printf.sprintf "clock is negative (%d ns)" t.clock ]
    else []
  in
  clock @ List.map (fun v -> "event queue: " ^ v) queue

module Unsafe = struct
  let set_clock t time = t.clock <- time
  let skew_live t delta = Event_queue.Unsafe.skew_live t.queue delta
end
