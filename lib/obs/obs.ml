module Sim_time = Satin_engine.Sim_time
module Engine = Satin_engine.Engine
module Stats = Satin_engine.Stats

type t = {
  metrics : Metrics.t;
  wall_metrics : Metrics.t;
  (* Real-time (host wall-clock) measurements live in their own registry so
     the deterministic one stays byte-stable across runs — DESIGN §7's
     [--metrics] contract. *)
  tracing : Tracing.t;
  mutable horizon : Sim_time.t;
}

let current_state : t option ref = ref None

let create () =
  {
    metrics = Metrics.create ();
    wall_metrics = Metrics.create ();
    tracing = Tracing.create ();
    horizon = Sim_time.zero;
  }

let metrics t = t.metrics
let wall_metrics t = t.wall_metrics
let tracing t = t.tracing

let install t = current_state := Some t
let uninstall () = current_state := None

let current () = !current_state
let enabled () = !current_state <> None

let touch s time = if time > s.horizon then s.horizon <- time

(* ---- per-domain capture ----

   Capsule capture is per-domain (a DLS slot) rather than global: worker
   domains run trials concurrently, and each trial's registry must see only
   its own samples. [capture_count] is the fast-path guard — when zero (no
   capture anywhere) a hook pays one atomic load on top of the sink match,
   preserving the "instrumentation is free when off" contract. *)

let capture_key : Metrics.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let capture_count = Atomic.make 0

let capture_slot () = Domain.DLS.get capture_key

let capturing () =
  Atomic.get capture_count > 0 && !(capture_slot ()) <> None

let active () = enabled () || capturing ()

let with_capture f =
  let slot = capture_slot () in
  let saved = !slot in
  let m = Metrics.create () in
  slot := Some m;
  Atomic.incr capture_count;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr capture_count;
      slot := saved)
    (fun () ->
      let r = f () in
      (m, r))

(* ---- hook entry points ---- *)

let incr ?labels ?by name =
  (match !current_state with
  | None -> ()
  | Some s -> Metrics.incr s.metrics ?labels ?by name);
  if Atomic.get capture_count > 0 then
    match !(capture_slot ()) with
    | None -> ()
    | Some m -> Metrics.incr m ?labels ?by name

let set_gauge ?labels name v =
  (match !current_state with
  | None -> ()
  | Some s -> Metrics.set s.metrics ?labels name v);
  if Atomic.get capture_count > 0 then
    match !(capture_slot ()) with
    | None -> ()
    | Some m -> Metrics.set m ?labels name v

let observe ?labels name v =
  (match !current_state with
  | None -> ()
  | Some s -> Metrics.observe s.metrics ?labels name v);
  if Atomic.get capture_count > 0 then
    match !(capture_slot ()) with
    | None -> ()
    | Some m -> Metrics.observe m ?labels name v

let observe_time ?labels name d =
  (match !current_state with
  | None -> ()
  | Some s -> Metrics.observe_time s.metrics ?labels name d);
  if Atomic.get capture_count > 0 then
    match !(capture_slot ()) with
    | None -> ()
    | Some m -> Metrics.observe_time m ?labels name d

let observe_wall ?labels name v =
  (* Wall-clock samples stay out of capture: capsules persist and merge
     across runs, so they must hold only deterministic series. *)
  match !current_state with
  | None -> ()
  | Some s -> Metrics.observe s.wall_metrics ?labels name v

let span_begin ~time ~track ?cat ?args name =
  match !current_state with
  | None -> ()
  | Some s ->
      touch s time;
      Tracing.begin_span s.tracing ~time ~track ?cat ?args name

let span_end ~time ~track =
  match !current_state with
  | None -> ()
  | Some s ->
      touch s time;
      Tracing.end_span s.tracing ~time ~track

let instant ~time ~track ?cat ?args name =
  match !current_state with
  | None -> ()
  | Some s ->
      touch s time;
      Tracing.instant s.tracing ~time ~track ?cat ?args name

let name_track track name =
  match !current_state with
  | None -> ()
  | Some s -> Tracing.set_track_name s.tracing track name

let attach_engine engine =
  let sink_cells =
    match !current_state with
    | None -> None
    | Some s ->
        Some
          ( Metrics.counter s.metrics "engine.events_fired",
            Metrics.gauge s.metrics "engine.queue_depth",
            s )
  in
  let capture_cells =
    if Atomic.get capture_count > 0 then
      match !(capture_slot ()) with
      | Some m ->
          Some
            ( Metrics.counter m "engine.events_fired",
              Metrics.gauge m "engine.queue_depth" )
      | None -> None
    else None
  in
  let sink_batch =
    match !current_state with
    | None -> None
    | Some s -> Some (Metrics.histogram s.metrics "engine.batch_size")
  in
  let capture_batch =
    if Atomic.get capture_count > 0 then
      match !(capture_slot ()) with
      | Some m -> Some (Metrics.histogram m "engine.batch_size")
      | None -> None
    else None
  in
  (match (sink_batch, capture_batch) with
  | None, None -> ()
  | _ ->
      (* Batched dispatch shape: events per same-instant batch. A
         deterministic series (batch boundaries are a function of the
         schedule alone), so it belongs in [metrics], not [wall_metrics].
         Runs once per batch, between dispatches. *)
      Engine.set_batch_observer engine
        (Some
           (fun ~size ->
             (match sink_batch with
             | None -> ()
             | Some bs -> Stats.add bs (float_of_int size));
             match capture_batch with
             | None -> ()
             | Some bs -> Stats.add bs (float_of_int size))));
  match (sink_cells, capture_cells) with
  | None, None -> ()
  | _ ->
      (* Cells are resolved once here, so the per-event observer stays a
         pair of raw mutations even when both destinations are live. *)
      Engine.set_observer engine
        (Some
           (fun ~time ~pending ->
             (match sink_cells with
             | None -> ()
             | Some (fired, depth, s) ->
                 fired := !fired + 1;
                 depth := float_of_int pending;
                 touch s time);
             match capture_cells with
             | None -> ()
             | Some (fired, depth) ->
                 fired := !fired + 1;
                 depth := float_of_int pending))

(* ---- exports ---- *)

let identity_ref : Json.t option ref = ref None

let set_identity id = identity_ref := id
let identity () = !identity_ref

let with_identity fields =
  match !identity_ref with
  | None -> fields
  | Some id -> List.hd fields :: ("identity", id) :: List.tl fields

let horizon t = t.horizon

let trace_json t = Tracing.to_chrome_json t.tracing

let metrics_json t =
  let final = Metrics.snapshot t.metrics ~at:(horizon t) in
  Json.Obj
    (with_identity
       [
         ("schema", Json.String "satin-metrics/v1");
         ("snapshots", Json.List (Metrics.snapshots t.metrics @ [ final ]));
       ])

let wall_metrics_json t =
  Json.Obj
    (with_identity
       [
         ("schema", Json.String "satin-wall-metrics/v1");
         ("snapshot", Metrics.snapshot t.wall_metrics ~at:(horizon t));
       ])

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_trace t path = write_file path (Json.to_string (trace_json t) ^ "\n")

let write_jsonl t path =
  write_file path
    (String.concat "\n" (Tracing.jsonl_lines t.tracing) ^ "\n")

let write_metrics t path = write_file path (Json.to_string (metrics_json t) ^ "\n")
