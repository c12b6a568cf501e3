module Histogram = Satin_obs.Histogram
module Json = Satin_obs.Json
module Capsule = Satin_obs.Capsule

module Labels = struct
  type t = (string * string) list
end

type series_agg =
  | Total of int * Histogram.t
  | Dist of Histogram.t
  | Merged of Histogram.t

type experiment_agg = {
  exp_trials : int;
  exp_config_hash : string;
  series : ((string * Labels.t) * series_agg) list;
}

type report = {
  fingerprint : string;
  config_hash : string;
  trials : int;
  skipped : int;
  experiments : (string * experiment_agg) list;
}

(* ---- collection ---- *)

type exp_acc = {
  mutable n_trials : int;
  mutable cfg_lines : string list;
  items : (string * Labels.t, series_agg) Hashtbl.t;
}

let merge_series name acc incoming =
  match (acc, incoming) with
  | Total (t, d), Capsule.Counter c ->
      Histogram.add d (float_of_int c);
      Total (t + c, d)
  | Dist d, Capsule.Gauge g ->
      if not (Float.is_nan g) then Histogram.add d g;
      Dist d
  | Merged m, Capsule.Histogram h -> Merged (Histogram.merge m h)
  | _ ->
      invalid_arg
        (Printf.sprintf "Telemetry: series %S changes kind across capsules" name)

let fresh_series = function
  | Capsule.Counter c ->
      let d = Histogram.create () in
      Histogram.add d (float_of_int c);
      Total (c, d)
  | Capsule.Gauge g ->
      let d = Histogram.create () in
      if not (Float.is_nan g) then Histogram.add d g;
      Dist d
  | Capsule.Histogram h -> Merged h

let absorb (acc : exp_acc) (c : Capsule.t) =
  acc.n_trials <- acc.n_trials + 1;
  acc.cfg_lines <-
    Printf.sprintf "seed=%d trial=%d\n%s" c.Capsule.seed c.Capsule.trial
      (Key.canonical c.Capsule.config)
    :: acc.cfg_lines;
  List.iter
    (fun (name, labels, s) ->
      let key = (name, labels) in
      match Hashtbl.find_opt acc.items key with
      | None -> Hashtbl.replace acc.items key (fresh_series s)
      | Some prev -> Hashtbl.replace acc.items key (merge_series name prev s))
    c.Capsule.series

let collect ?fingerprint store =
  let caps, skipped =
    Store.fold_capsules store ~init:([], 0)
      ~f:(fun (acc, sk) ~key ~experiment:_ payload ->
        match Capsule.of_string payload with
        | Ok c -> (c :: acc, sk)
        | Error e ->
            Printf.eprintf "telemetry: skipping unreadable capsule %s: %s\n%!"
              key e;
            (acc, sk + 1))
  in
  let caps = List.rev caps in
  let fps =
    List.sort_uniq String.compare
      (List.map (fun c -> c.Capsule.fingerprint) caps)
  in
  let selected =
    match (fingerprint, fps) with
    | Some fp, _ when List.mem fp fps -> Ok fp
    | Some fp, _ ->
        Error
          (Printf.sprintf "no capsules with fingerprint %s (store has: %s)" fp
             (if fps = [] then "none" else String.concat ", " fps))
    | None, [ fp ] -> Ok fp
    | None, [] -> Error "store holds no readable capsules"
    | None, fps ->
        Error
          (Printf.sprintf
             "store holds capsules from %d different builds (%s); pass \
              --fingerprint to select one — merging across builds would \
              compare apples to oranges"
             (List.length fps)
             (String.concat ", " fps))
  in
  match selected with
  | Error _ as e -> e
  | Ok fp ->
      let caps =
        List.filter (fun c -> String.equal c.Capsule.fingerprint fp) caps
      in
      let table : (string, exp_acc) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun c ->
          let acc =
            match Hashtbl.find_opt table c.Capsule.experiment with
            | Some acc -> acc
            | None ->
                let acc =
                  { n_trials = 0; cfg_lines = []; items = Hashtbl.create 32 }
                in
                Hashtbl.replace table c.Capsule.experiment acc;
                acc
          in
          absorb acc c)
        caps;
      let experiments =
        Hashtbl.fold
          (fun name acc l ->
            let series =
              Hashtbl.fold (fun k v l -> (k, v) :: l) acc.items []
              |> List.sort (fun (a, _) (b, _) -> compare a b)
            in
            let exp_config_hash =
              Digest.to_hex
                (Digest.string
                   (String.concat "\x00"
                      (List.sort String.compare acc.cfg_lines)))
            in
            (name, { exp_trials = acc.n_trials; exp_config_hash; series }) :: l)
          table []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let config_hash =
        Digest.to_hex
          (Digest.string
             (String.concat "\n"
                (List.map
                   (fun (name, e) -> name ^ "=" ^ e.exp_config_hash)
                   experiments)))
      in
      Ok
        {
          fingerprint = fp;
          config_hash;
          trials = List.length caps;
          skipped;
          experiments;
        }

(* ---- rendering ---- *)

let series_key name labels =
  if labels = [] then name
  else
    name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

let dist_of = function Total (_, d) -> d | Dist d -> d | Merged m -> m
let kind_of = function
  | Total _ -> "counter"
  | Dist _ -> "gauge"
  | Merged _ -> "histogram"

let num x = Json.to_string (Json.float x)

let print_table ppf r =
  Format.fprintf ppf
    "telemetry: fingerprint %s, config %s, %d experiment(s), %d trial(s), %d \
     skipped@."
    r.fingerprint
    (String.sub r.config_hash 0 8)
    (List.length r.experiments)
    r.trials r.skipped;
  List.iter
    (fun (name, e) ->
      Format.fprintf ppf "experiment %s: %d trial(s), config %s@." name
        e.exp_trials
        (String.sub e.exp_config_hash 0 8);
      Format.fprintf ppf "  %-42s %-9s %8s %12s %11s %11s %11s %11s@." "series"
        "kind" "count" "total" "p50" "p90" "p99" "mean";
      List.iter
        (fun ((sname, labels), agg) ->
          let d = dist_of agg in
          let total =
            match agg with Total (t, _) -> string_of_int t | _ -> "-"
          in
          let q p =
            if Histogram.is_empty d then "-"
            else Printf.sprintf "%.5g" (Histogram.quantile d p)
          in
          let mean =
            if Histogram.is_empty d then "-"
            else Printf.sprintf "%.5g" (Histogram.mean d)
          in
          Format.fprintf ppf "  %-42s %-9s %8d %12s %11s %11s %11s %11s@."
            (series_key sname labels)
            (kind_of agg) (Histogram.count d) total (q 0.5) (q 0.9) (q 0.99)
            mean)
        e.series)
    r.experiments

let stats_json agg =
  let d = dist_of agg in
  let base = [ ("kind", Json.String (kind_of agg)) ] in
  let base =
    match agg with
    | Total (t, _) -> base @ [ ("total", Json.Int t) ]
    | _ -> base
  in
  let base = base @ [ ("count", Json.Int (Histogram.count d)) ] in
  if Histogram.is_empty d then Json.Obj base
  else
    Json.Obj
      (base
      @ [
          ("p50", Json.float (Histogram.quantile d 0.5));
          ("p90", Json.float (Histogram.quantile d 0.9));
          ("p99", Json.float (Histogram.quantile d 0.99));
          ("mean", Json.float (Histogram.mean d));
          ("min", Json.float (Histogram.min d));
          ("max", Json.float (Histogram.max d));
        ])

let to_json r =
  Json.Obj
    [
      ("schema", Json.String "satin-telemetry/v1");
      ( "identity",
        Json.Obj
          [
            ("fingerprint", Json.String r.fingerprint);
            ("config_hash", Json.String r.config_hash);
          ] );
      ("trials", Json.Int r.trials);
      ("skipped", Json.Int r.skipped);
      ( "experiments",
        Json.Obj
          (List.map
             (fun (name, e) ->
               ( name,
                 Json.Obj
                   [
                     ("config_hash", Json.String e.exp_config_hash);
                     ("trials", Json.Int e.exp_trials);
                     ( "series",
                       Json.Obj
                         (List.map
                            (fun ((sname, labels), agg) ->
                              (series_key sname labels, stats_json agg))
                            e.series) );
                   ] ))
             r.experiments) );
    ]

(* ---- OpenMetrics ---- *)

let mangle name =
  "satin_"
  ^ String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      name

let om_escape v =
  String.concat ""
    (List.map
       (function
         | '\\' -> "\\\\" | '"' -> "\\\"" | '\n' -> "\\n" | c -> String.make 1 c)
       (List.init (String.length v) (String.get v)))

let om_labels pairs =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (om_escape v)) pairs)
  ^ "}"

let to_openmetrics r =
  (* Group samples by metric family so each family's samples are
     contiguous, as the exposition format requires; families and samples
     both come out in sorted order, so equal reports render identically. *)
  let families : (string, string * string list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (ename, e) ->
      List.iter
        (fun ((sname, labels), agg) ->
          let family = mangle sname in
          let base_labels = ("experiment", ename) :: labels in
          let samples =
            match agg with
            | Total (t, _) ->
                [
                  Printf.sprintf "%s_total%s %d" family (om_labels base_labels)
                    t;
                ]
            | Dist d | Merged d ->
                let q p =
                  Printf.sprintf "%s%s %s" family
                    (om_labels (base_labels @ [ ("quantile", p) ]))
                    (num
                       (Histogram.quantile d
                          (float_of_string p)))
                in
                let qs =
                  if Histogram.is_empty d then []
                  else [ q "0.5"; q "0.9"; q "0.99" ]
                in
                qs
                @ [
                    Printf.sprintf "%s_count%s %d" family
                      (om_labels base_labels) (Histogram.count d);
                  ]
          in
          let om_type =
            match agg with Total _ -> "counter" | _ -> "summary"
          in
          match Hashtbl.find_opt families family with
          | None -> Hashtbl.replace families family (om_type, samples)
          | Some (ty, prev) -> Hashtbl.replace families family (ty, prev @ samples))
        e.series)
    r.experiments;
  let ordered =
    Hashtbl.fold (fun fam v l -> (fam, v) :: l) families []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (family, (om_type, samples)) ->
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" family om_type);
      List.iter
        (fun s ->
          Buffer.add_string buf s;
          Buffer.add_char buf '\n')
        samples)
    ordered;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* ---- gate ---- *)

let gate_threshold_default = 0.10

type gate_result = {
  compared : int;
  regressions : (string * float * float) list;
  missing : string list;
}

let rec flatten prefix j acc =
  let join k = if prefix = "" then k else prefix ^ "." ^ k in
  match j with
  | Json.Obj fields ->
      List.fold_left (fun acc (k, v) -> flatten (join k) v acc) acc fields
  | Json.List l ->
      List.fold_left
        (fun (acc, i) v -> (flatten (join (string_of_int i)) v acc, i + 1))
        (acc, 0) l
      |> fst
  | Json.Int i -> (prefix, float_of_int i) :: acc
  | Json.Float x -> (prefix, x) :: acc
  | Json.Null | Json.Bool _ | Json.String _ -> acc

type direction = Lower | Higher

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let direction path =
  if contains path "fingerprint" || contains path "identity" then None
  else
    let last =
      match List.rev (String.split_on_char '.' path) with
      | last :: _ -> last
      | [] -> path
    in
    let suffix s = String.ends_with ~suffix:s last in
    if suffix "per_s" || suffix "_rate" || suffix "throughput"
       || String.equal last "speedup"
    then Some Higher
    else if
      List.mem last [ "p50"; "p90"; "p99"; "mean"; "ns_per_run"; "words_per_event" ]
      || suffix "_pct" || suffix "latency" || suffix "duration" || suffix "cost"
    then Some Lower
    else None

let id_config_hash doc =
  match Json.member "identity" doc with
  | Some id -> (
      match Json.member "config_hash" id with
      | Some (Json.String h) -> Some h
      | _ -> None)
  | None -> None

let gate ?(threshold = gate_threshold_default) ~baseline ~current () =
  if not (Float.is_finite threshold && threshold > 0.0) then
    invalid_arg "Telemetry.gate: threshold must be finite and > 0";
  match (id_config_hash baseline, id_config_hash current) with
  | Some a, Some b when not (String.equal a b) ->
      Error
        (Printf.sprintf
           "config hash mismatch: baseline %s vs current %s — the documents \
            describe different campaign compositions and cannot be compared"
           a b)
  | _ ->
      let base = flatten "" baseline [] in
      let cur = Hashtbl.create 256 in
      List.iter (fun (p, v) -> Hashtbl.replace cur p v) (flatten "" current []);
      let compared = ref 0 and missing = ref [] and regs = ref [] in
      List.iter
        (fun (path, b) ->
          match direction path with
          | None -> ()
          | Some dir -> (
              match Hashtbl.find_opt cur path with
              | None -> missing := path :: !missing
              | Some c ->
                  incr compared;
                  if Float.abs (c -. b) > 1e-12 then begin
                    let denom = Float.max (Float.abs b) 1e-12 in
                    let delta =
                      match dir with
                      | Lower -> (c -. b) /. denom
                      | Higher -> (b -. c) /. denom
                    in
                    if delta > threshold then regs := (delta, path, b, c) :: !regs
                  end))
        base;
      let regressions =
        List.sort (fun (d1, p1, _, _) (d2, p2, _, _) ->
            match compare d2 d1 with 0 -> String.compare p1 p2 | c -> c)
          !regs
        |> List.map (fun (_, p, b, c) -> (p, b, c))
      in
      Ok
        {
          compared = !compared;
          regressions;
          missing = List.sort String.compare !missing;
        }
