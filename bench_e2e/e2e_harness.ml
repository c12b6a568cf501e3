module Json = Satin_obs.Json

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

type metric = { name : string; unit_ : string; value : float }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let result_to_json r =
  let metric m =
    if not (valid_name m.name) then
      invalid_arg (Printf.sprintf "metric name %S" m.name);
    if not (Float.is_finite m.value) then
      invalid_arg (Printf.sprintf "metric %s is not finite" m.name);
    ( m.name,
      Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]
    )
  in
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", Json.Obj (List.map metric r.metrics));
    ]

let number = function
  | Some (Json.Float x) -> Some x
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let result_of_json j =
  let metric (name, m) =
    match (number (Json.member "value" m), Json.member "unit" m) with
    | Some value, Some (Json.String unit_) when valid_name name ->
        Ok { name; unit_; value }
    | _ -> Error (Printf.sprintf "malformed metric %S" name)
  in
  match
    ( Json.member "correct" j,
      Json.member "attempted" j,
      Json.member "failed" j,
      Json.member "metrics" j )
  with
  | ( Some (Json.Bool correct),
      Some (Json.Int attempted),
      Some (Json.Int failed),
      Some (Json.Obj metrics) ) ->
      List.fold_right
        (fun m acc ->
          match (metric m, acc) with
          | Ok m, Ok ms -> Ok (m :: ms)
          | (Error _ as e), _ | _, (Error _ as e) -> e)
        metrics (Ok [])
      |> Result.map (fun metrics -> { correct; attempted; failed; metrics })
  | _ -> Error "not a result document"

let quantile xs q =
  match List.sort compare xs with
  | [] -> invalid_arg "Harness.quantile: no samples"
  | sorted ->
      let a = Array.of_list sorted in
      let h = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float h in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* Percentiles in per-mille, so "samples beyond" is exact integer
   arithmetic: p90 of 100 samples has exactly 10 beyond it. *)
let tail_percentile n =
  List.fold_left
    (fun best pm ->
      if n * (1000 - pm) / 1000 >= 10 then Some (float_of_int pm /. 1000.)
      else best)
    None [ 900; 990; 999 ]

let summarize ~unit_ xs =
  let tail =
    match tail_percentile (List.length xs) with
    | None -> ""
    | Some p ->
        Printf.sprintf ", p%g %.6g %s" (p *. 100.) (quantile xs p) unit_
  in
  Printf.sprintf "median %.6g %s%s (n=%d)" (median xs) unit_ tail
    (List.length xs)

type span = {
  id : int;
  parent : int option;
  name : string;
  start_ns : int;
  stop_ns : int;
}

(* Length of the union of [intervals] inside [lo, hi]. *)
let covered ~lo ~hi intervals =
  List.filter_map
    (fun (a, b) ->
      let a = max a lo and b = min b hi in
      if b > a then Some (a, b) else None)
    intervals
  |> List.sort compare
  |> List.fold_left
       (fun (total, reach) (a, b) ->
         let a = max a reach in
         if b > a then (total + b - a, b) else (total, reach))
       (0, lo)
  |> fst

let self_ns spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Option.iter
        (fun p -> Hashtbl.add children p (s.start_ns, s.stop_ns))
        s.parent)
    spans;
  List.map
    (fun s ->
      let busy =
        covered ~lo:s.start_ns ~hi:s.stop_ns (Hashtbl.find_all children s.id)
      in
      (s, s.stop_ns - s.start_ns - busy))
    spans

let span_to_json s =
  Json.Obj
    [
      ("id", Json.Int s.id);
      ("parent", match s.parent with Some p -> Json.Int p | None -> Json.Null);
      ("name", Json.String s.name);
      ("start_ns", Json.Int s.start_ns);
      ("stop_ns", Json.Int s.stop_ns);
    ]

let span_of_json j =
  match
    ( Json.member "id" j,
      Json.member "parent" j,
      Json.member "name" j,
      Json.member "start_ns" j,
      Json.member "stop_ns" j )
  with
  | ( Some (Json.Int id),
      Some ((Json.Int _ | Json.Null) as parent),
      Some (Json.String name),
      Some (Json.Int start_ns),
      Some (Json.Int stop_ns) ) ->
      let parent = match parent with Json.Int p -> Some p | _ -> None in
      Ok { id; parent; name; start_ns; stop_ns }
  | _ -> Error "malformed span"

let chrome_trace groups =
  let us ns = Json.Float (float_of_int ns /. 1000.) in
  let events =
    List.concat
      (List.mapi
         (fun i (workload, spans) ->
           let pid = Json.Int (i + 1) in
           Json.Obj
             [
               ("name", Json.String "process_name");
               ("ph", Json.String "M");
               ("pid", pid);
               ("tid", Json.Int 1);
               ("args", Json.Obj [ ("name", Json.String workload) ]);
             ]
           :: List.map
                (fun s ->
                  Json.Obj
                    [
                      ("name", Json.String s.name);
                      ("cat", Json.String "host");
                      ("ph", Json.String "X");
                      ("ts", us s.start_ns);
                      ("dur", us (s.stop_ns - s.start_ns));
                      ("pid", pid);
                      ("tid", Json.Int 1);
                      ( "args",
                        Json.Obj
                          [
                            ("id", Json.Int s.id);
                            ( "parent",
                              match s.parent with
                              | Some p -> Json.Int p
                              | None -> Json.Null );
                            ("workload", Json.String workload);
                          ] );
                    ])
                spans)
         groups)
  in
  Json.Obj
    [
      ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms");
    ]
