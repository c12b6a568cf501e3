module Sim_time = Satin_engine.Sim_time

type phase = Begin | End | Instant

type event = {
  ph : phase;
  time : Sim_time.t;
  track : int;
  name : string;
  cat : string;
  args : (string * Json.t) list;
}

type t = {
  mutable buf : event array; (* events in recording order, [len] of them *)
  mutable len : int;
  track_names : (int, string) Hashtbl.t;
  open_spans : (int, int * string list) Hashtbl.t;
      (* per-track (owner domain, begin stack); ownership transfers only
         when the stack is empty *)
}

let create () =
  { buf = [||]; len = 0; track_names = Hashtbl.create 8; open_spans = Hashtbl.create 8 }

let push t e =
  if t.len = Array.length t.buf then begin
    let buf = Array.make (max 16 (2 * t.len)) e in
    Array.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end;
  t.buf.(t.len) <- e;
  t.len <- t.len + 1

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
  push t { ph = Begin; time; track; name; cat; args }

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
  push t { ph = End; time; track; name; cat = ""; args = [] }

let instant t ~time ~track ?(cat = "") ?(args = []) name =
  push t { ph = Instant; time; track; name; cat; args }

let set_track_name t track name = Hashtbl.replace t.track_names track name

(* Events are immutable, so [t] shares [src]'s instead of copying them. *)
let append t src =
  for i = 0 to src.len - 1 do
    push t src.buf.(i)
  done;
  Hashtbl.iter (Hashtbl.replace t.track_names) src.track_names

let events t = List.init t.len (fun i -> t.buf.(i))

(* Chrome trace-event timestamps are microseconds; keep nanosecond
   resolution with a fractional part. *)
let ts_json time = Json.float (float_of_int time /. 1000.0)

let ph_string = function Begin -> "B" | End -> "E" | Instant -> "i"

let event_json e =
  let base =
    [
      ("name", Json.String e.name);
      ("ph", Json.String (ph_string e.ph));
      ("ts", ts_json e.time);
      ("pid", Json.Int 0);
      ("tid", Json.Int e.track);
    ]
  in
  let base = if e.cat = "" then base else base @ [ ("cat", Json.String e.cat) ] in
  let base =
    match e.ph with
    | Instant -> base @ [ ("s", Json.String "t") ] (* thread-scoped instant *)
    | Begin | End -> base
  in
  let base =
    if e.args = [] then base else base @ [ ("args", Json.Obj e.args) ]
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
  let body = List.map event_json (events t) in
  Json.Obj
    [
      ("traceEvents", Json.List (metadata_events ~process_name t @ body));
      ("displayTimeUnit", Json.String "ns");
    ]
