module Sim_time = Satin_engine.Sim_time
module Trace = Satin_engine.Trace

type phase = Begin | End | Instant

type event = {
  ph : phase;
  time : Sim_time.t;
  track : int;
  name : string;
  cat : string;
  args : (string * Json.t) list;
}

type payload = {
  p_ph : phase;
  p_track : int;
  p_name : string;
  p_cat : string;
  p_args : (string * Json.t) list;
}

type t = {
  buf : payload Trace.t;
  track_names : (int, string) Hashtbl.t;
  open_spans : (int, int * string list) Hashtbl.t;
      (* per-track (owner domain, begin stack); ownership transfers only
         when the stack is empty *)
}

let create () =
  { buf = Trace.create (); track_names = Hashtbl.create 8; open_spans = Hashtbl.create 8 }

let push t ~time p = Trace.record t.buf time p

let self_id () = (Domain.self () :> int)

let cross_domain_error ~what ~track ~owner ~me ~open_count =
  invalid_arg
    (Printf.sprintf
       "Tracing.%s: track %d has %d open span(s) begun on domain %d, but the \
        current domain is %d; a track is a single-domain lane while spans are \
        open (begin/end pairs from two domains would interleave into a \
        corrupt nesting)"
       what track open_count owner me)

let begin_span t ~time ~track ?(cat = "") ?(args = []) name =
  let me = self_id () in
  let stack =
    match Hashtbl.find_opt t.open_spans track with
    | Some (owner, (_ :: _ as stack)) ->
        if owner <> me then
          cross_domain_error ~what:"begin_span" ~track ~owner ~me
            ~open_count:(List.length stack);
        stack
    | Some (_, []) | None -> []
  in
  Hashtbl.replace t.open_spans track (me, name :: stack);
  push t ~time { p_ph = Begin; p_track = track; p_name = name; p_cat = cat; p_args = args }

let end_span t ~time ~track =
  let me = self_id () in
  let name, rest =
    match Hashtbl.find_opt t.open_spans track with
    | Some (owner, (n :: rest)) ->
        if owner <> me then
          cross_domain_error ~what:"end_span" ~track ~owner ~me
            ~open_count:(List.length rest + 1);
        (n, rest)
    | Some (_, []) | None -> ("", [])
  in
  Hashtbl.replace t.open_spans track (me, rest);
  push t ~time { p_ph = End; p_track = track; p_name = name; p_cat = ""; p_args = [] }

let instant t ~time ~track ?(cat = "") ?(args = []) name =
  push t ~time { p_ph = Instant; p_track = track; p_name = name; p_cat = cat; p_args = args }

let set_track_name t track name = Hashtbl.replace t.track_names track name

let length t = Trace.length t.buf

let events t =
  List.rev
    (Trace.fold
       (fun acc time p ->
         {
           ph = p.p_ph;
           time;
           track = p.p_track;
           name = p.p_name;
           cat = p.p_cat;
           args = p.p_args;
         }
         :: acc)
       [] t.buf)

(* Chrome trace-event timestamps are microseconds; keep nanosecond
   resolution with a fractional part. *)
let ts_json time = Json.float (float_of_int time /. 1000.0)

let ph_string = function Begin -> "B" | End -> "E" | Instant -> "i"

let event_json ~time p =
  let base =
    [
      ("name", Json.String p.p_name);
      ("ph", Json.String (ph_string p.p_ph));
      ("ts", ts_json time);
      ("pid", Json.Int 0);
      ("tid", Json.Int p.p_track);
    ]
  in
  let base = if p.p_cat = "" then base else base @ [ ("cat", Json.String p.p_cat) ] in
  let base =
    match p.p_ph with
    | Instant -> base @ [ ("s", Json.String "t") ] (* thread-scoped instant *)
    | Begin | End -> base
  in
  let base =
    if p.p_args = [] then base else base @ [ ("args", Json.Obj p.p_args) ]
  in
  Json.Obj base

let metadata_events ~process_name t =
  let meta name tid args =
    Json.Obj
      [
        ("name", Json.String name);
        ("ph", Json.String "M");
        ("ts", Json.Int 0);
        ("pid", Json.Int 0);
        ("tid", Json.Int tid);
        ("args", Json.Obj args);
      ]
  in
  let tracks =
    Hashtbl.fold (fun track name acc -> (track, name) :: acc) t.track_names []
    |> List.sort compare
  in
  meta "process_name" 0 [ ("name", Json.String process_name) ]
  :: List.map
       (fun (track, name) ->
         meta "thread_name" track [ ("name", Json.String name) ])
       tracks

let to_chrome_json ?(process_name = "satin") t =
  let body =
    List.rev (Trace.fold (fun acc time p -> event_json ~time p :: acc) [] t.buf)
  in
  Json.Obj
    [
      ("traceEvents", Json.List (metadata_events ~process_name t @ body));
      ("displayTimeUnit", Json.String "ns");
    ]
