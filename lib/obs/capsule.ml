type series =
  | Counter of int
  | Gauge of float
  | Histogram of Histogram.t

type t = {
  experiment : string;
  seed : int;
  trial : int;
  fingerprint : string;
  config : (string * string) list;
  series : (string * Metrics.labels * series) list;
}

let sort_config config =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) config in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then
          invalid_arg ("Capsule: duplicate config field " ^ a);
        check rest
    | _ -> ()
  in
  check sorted;
  sorted

let of_metrics ~experiment ~seed ~trial ~fingerprint ~config metrics =
  let acc = ref [] in
  Metrics.iter_sorted metrics (fun name labels view ->
      let s =
        match view with
        | `Counter c -> Counter c
        | `Gauge g -> Gauge g
        | `Histogram st -> Histogram (Histogram.of_stats st)
        | `Buckets h -> Histogram h
      in
      acc := (name, labels, s) :: !acc);
  {
    experiment;
    seed;
    trial;
    fingerprint;
    config = sort_config config;
    series = List.rev !acc;
  }

(* ---- codec ---- *)

let pairs_json pairs =
  Json.List
    (List.map
       (fun (k, v) -> Json.List [ Json.String k; Json.String v ])
       pairs)

let series_json (name, labels, s) =
  let kind, value =
    match s with
    | Counter c -> ("counter", Json.Int c)
    | Gauge g -> ("gauge", Json.float g)
    | Histogram h -> ("histogram", Histogram.to_json h)
  in
  Json.Obj
    [
      ("name", Json.String name);
      ("labels", pairs_json labels);
      ("kind", Json.String kind);
      ("value", value);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String "satin-capsule/v1");
      ("experiment", Json.String t.experiment);
      ("seed", Json.Int t.seed);
      ("trial", Json.Int t.trial);
      ("fingerprint", Json.String t.fingerprint);
      ("config", pairs_json t.config);
      ("series", Json.List (List.map series_json t.series));
    ]

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun m -> Error ("Capsule.of_json: " ^ m)) fmt

let string_field j name =
  match Json.member name j with
  | Some (Json.String s) -> Ok s
  | _ -> err "missing string %S" name

let int_field j name =
  match Json.member name j with
  | Some (Json.Int i) -> Ok i
  | _ -> err "missing int %S" name

let pairs_of_json name = function
  | Json.List l ->
      List.fold_left
        (fun acc e ->
          let* acc = acc in
          match e with
          | Json.List [ Json.String k; Json.String v ] -> Ok ((k, v) :: acc)
          | _ -> err "malformed %s pair" name)
        (Ok []) l
      |> Result.map List.rev
  | _ -> err "missing list %S" name

let series_of_json j =
  let* name = string_field j "name" in
  let* labels =
    match Json.member "labels" j with
    | Some l -> pairs_of_json "labels" l
    | None -> err "missing labels on series %S" name
  in
  let* kind = string_field j "kind" in
  let value = Json.member "value" j in
  let* s =
    match (kind, value) with
    | "counter", Some (Json.Int c) -> Ok (Counter c)
    | "gauge", Some (Json.Int i) -> Ok (Gauge (float_of_int i))
    | "gauge", Some (Json.Float g) -> Ok (Gauge g)
    | "gauge", Some Json.Null -> Ok (Gauge Float.nan)
    | "histogram", Some h ->
        let* h = Histogram.of_json h in
        Ok (Histogram h)
    | _ -> err "malformed %s series %S" kind name
  in
  Ok (name, labels, s)

let of_json j =
  let* schema = string_field j "schema" in
  if schema <> "satin-capsule/v1" then err "unknown schema %S" schema
  else
    let* experiment = string_field j "experiment" in
    let* seed = int_field j "seed" in
    let* trial = int_field j "trial" in
    let* fingerprint = string_field j "fingerprint" in
    let* config =
      match Json.member "config" j with
      | Some c -> pairs_of_json "config" c
      | None -> err "missing config"
    in
    let* series =
      match Json.member "series" j with
      | Some (Json.List l) ->
          List.fold_left
            (fun acc e ->
              let* acc = acc in
              let* s = series_of_json e in
              Ok (s :: acc))
            (Ok []) l
          |> Result.map List.rev
      | _ -> err "missing series"
    in
    Ok { experiment; seed; trial; fingerprint; config; series }

let of_string s =
  match Json.parse s with
  | Error e -> Error ("Capsule.of_string: " ^ e)
  | Ok j -> of_json j
