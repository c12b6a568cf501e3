module Sim_time = Satin_engine.Sim_time
module Engine = Satin_engine.Engine

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
  let m = Metrics.create ~bucketed:true () in
  slot := Some m;
  Atomic.incr capture_count;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr capture_count;
      slot := saved)
    (fun () ->
      let r = f () in
      (m, r))

(* ---- hook entry points ----

   Each hook resolves its series through the key's cell in the sink's and
   the capture's registry: one array load and one mutation per
   destination. *)

type key = Metrics.key

let key = Metrics.key

let incr ?(by = 1) k =
  (match !current_state with
  | None -> ()
  | Some s ->
      let r = Metrics.counter s.metrics k in
      r := !r + by);
  if Atomic.get capture_count > 0 then
    match !(capture_slot ()) with
    | None -> ()
    | Some m ->
        let r = Metrics.counter m k in
        r := !r + by

let set_gauge k v =
  (match !current_state with
  | None -> ()
  | Some s -> Metrics.gauge s.metrics k := v);
  if Atomic.get capture_count > 0 then
    match !(capture_slot ()) with
    | None -> ()
    | Some m -> Metrics.gauge m k := v

let observe k v =
  (match !current_state with
  | None -> ()
  | Some s -> Metrics.record (Metrics.histogram s.metrics k) v);
  if Atomic.get capture_count > 0 then
    match !(capture_slot ()) with
    | None -> ()
    | Some m -> Metrics.record (Metrics.histogram m k) v

let observe_time k d = observe k (Sim_time.to_sec_f d)

let observe_wall k v =
  (* Wall-clock samples stay out of capture: capsules persist and merge
     across runs, so they must hold only deterministic series. *)
  match !current_state with
  | None -> ()
  | Some s -> Metrics.record (Metrics.histogram s.wall_metrics k) v

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

let events_fired = key "engine.events_fired"
let queue_depth = key "engine.queue_depth"
let batch_size = key "engine.batch_size"

let attach_engine engine =
  let capture =
    if Atomic.get capture_count > 0 then !(capture_slot ()) else None
  in
  match (!current_state, capture) with
  | None, None -> ()
  | sink, capture ->
      (* Cells are resolved once here, so the per-event observer stays a
         pair of raw mutations even when both destinations are live. This
         also creates all three series before the first event, so a
         registry holds them even for an engine that never runs. *)
      let cells m =
        ( Metrics.counter m events_fired,
          Metrics.gauge m queue_depth,
          Metrics.histogram m batch_size )
      in
      let sink = Option.map (fun s -> (s, cells s.metrics)) sink in
      let capture = Option.map cells capture in
      (* Batched dispatch shape: events per same-instant batch. A
         deterministic series (batch boundaries are a function of the
         schedule alone), so it belongs in [metrics], not [wall_metrics].
         Runs once per batch, between dispatches. *)
      Engine.set_batch_observer engine
        (Some
           (fun ~size ->
             let v = float_of_int size in
             (match sink with
             | None -> ()
             | Some (_, (_, _, h)) -> Metrics.record h v);
             match capture with None -> () | Some (_, _, h) -> Metrics.record h v));
      Engine.set_observer engine
        (Some
           (fun ~time ~pending ->
             (match sink with
             | None -> ()
             | Some (s, (fired, depth, _)) ->
                 fired := !fired + 1;
                 depth := float_of_int pending;
                 touch s time);
             match capture with
             | None -> ()
             | Some (fired, depth, _) ->
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
         ("snapshots", Json.List [ final ]);
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

let write_metrics t path = write_file path (Json.to_string (metrics_json t) ^ "\n")
