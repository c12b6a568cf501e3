module Sim_time = Satin_engine.Sim_time
module Engine = Satin_engine.Engine

type t = {
  metrics : Metrics.t;
  wall_metrics : Metrics.t;
  (* Real-time (host wall-clock) measurements live in their own registry so
     the deterministic one stays byte-stable across runs — DESIGN §7's
     [--metrics] contract. *)
  tracing : Tracing.t option; (* [None] in a bucketed capture *)
  mutable horizon : Sim_time.t;
}

let make ~exact =
  {
    metrics = Metrics.create ~bucketed:(not exact) ();
    wall_metrics = Metrics.create ();
    tracing = (if exact then Some (Tracing.create ()) else None);
    horizon = Sim_time.zero;
  }

let create () = make ~exact:true

let metrics t = t.metrics
let wall_metrics t = t.wall_metrics

let touch o time = if time > o.horizon then o.horizon <- time

(* ---- observers ----

   Each domain has one slot holding its innermost observer: its open
   capture, else the sink it installed. [live] counts the observers in
   place on every domain, so with none anywhere a hook pays one atomic
   load and returns. *)

let slot_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let live = Atomic.make 0
let slot () = Domain.DLS.get slot_key

let current () = if Atomic.get live > 0 then !(slot ()) else None
let active () = Option.is_some (current ())

let install t =
  let s = slot () in
  if Option.is_none !s then Atomic.incr live;
  s := Some t

let uninstall () =
  let s = slot () in
  if Option.is_some !s then Atomic.decr live;
  s := None

let with_capture ?like f =
  let exact = match like with Some o -> o.tracing <> None | None -> false in
  let c = make ~exact in
  let s = slot () in
  let saved = !s in
  s := Some c;
  Atomic.incr live;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr live;
      s := saved)
    (fun () -> (c, f ()))

let merge ~into c =
  Metrics.merge ~into:into.metrics c.metrics;
  Metrics.merge ~into:into.wall_metrics c.wall_metrics;
  (match (into.tracing, c.tracing) with
  | Some a, Some b -> Tracing.append a b
  | _ -> ());
  touch into c.horizon

(* ---- hook entry points ----

   Each hook writes the calling domain's innermost observer only,
   resolving its series through the key's cell: one array load and one
   mutation. *)

type key = Metrics.key

let key = Metrics.key

let incr ?(by = 1) k =
  match current () with
  | None -> ()
  | Some o ->
      let r = Metrics.counter o.metrics k in
      r := !r + by

let set_gauge k v =
  match current () with None -> () | Some o -> Metrics.gauge o.metrics k := v

let observe k v =
  match current () with
  | None -> ()
  | Some o -> Metrics.record (Metrics.histogram o.metrics k) v

let observe_time k d = observe k (Sim_time.to_sec_f d)

let observe_wall k v =
  match current () with
  | None -> ()
  | Some o -> Metrics.record (Metrics.histogram o.wall_metrics k) v

(* The calling domain's trace, if any, once its observer's horizon has
   reached [time]. *)
let trace_at time =
  match current () with
  | None -> None
  | Some o ->
      touch o time;
      o.tracing

let span_begin ~time ~track ?cat ?args name =
  match trace_at time with
  | None -> ()
  | Some tr -> Tracing.begin_span tr ~time ~track ?cat ?args name

let span_end ~time ~track =
  match trace_at time with
  | None -> ()
  | Some tr -> Tracing.end_span tr ~time ~track

let instant ~time ~track ?cat ?args name =
  match trace_at time with
  | None -> ()
  | Some tr -> Tracing.instant tr ~time ~track ?cat ?args name

let name_track track name =
  match current () with
  | Some { tracing = Some tr; _ } -> Tracing.set_track_name tr track name
  | _ -> ()

let events_fired = key "engine.events_fired"
let queue_depth = key "engine.queue_depth"
let batch_size = key "engine.batch_size"

let attach_engine engine =
  match current () with
  | None -> ()
  | Some o ->
      (* Cells are resolved once here, so the per-event observer stays a
         few raw mutations. This also creates all three series before the
         first event, so a registry holds them even for an engine that
         never runs. *)
      let fired = Metrics.counter o.metrics events_fired
      and depth = Metrics.gauge o.metrics queue_depth
      and sizes = Metrics.histogram o.metrics batch_size in
      (* Batched dispatch shape: events per same-instant batch. A
         deterministic series (batch boundaries are a function of the
         schedule alone), so it belongs in [metrics], not [wall_metrics].
         Runs once per batch, between dispatches. *)
      Engine.set_batch_observer engine
        (Some (fun ~size -> Metrics.record sizes (float_of_int size)));
      Engine.set_observer engine
        (Some
           (fun ~time ~pending ->
             fired := !fired + 1;
             depth := float_of_int pending;
             touch o time))

(* ---- exports ---- *)

let identity_ref : Json.t option ref = ref None

let set_identity id = identity_ref := id

let with_identity fields =
  match !identity_ref with
  | None -> fields
  | Some id -> List.hd fields :: ("identity", id) :: List.tl fields

let trace_json t =
  Tracing.to_chrome_json (Option.value t.tracing ~default:(Tracing.create ()))

let metrics_json t =
  let final = Metrics.snapshot t.metrics ~at:t.horizon in
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
         ("snapshot", Metrics.snapshot t.wall_metrics ~at:t.horizon);
       ])

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_trace t path = write_file path (Json.to_string (trace_json t) ^ "\n")

let write_metrics t path = write_file path (Json.to_string (metrics_json t) ^ "\n")
