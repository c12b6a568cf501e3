module E = Experiment
module Json = Satin_obs.Json
module Obs = Satin_obs.Obs
module Progress = Satin_obs.Progress
module Runner = Satin_runner.Runner

type kind = E.kind = Seeded | Closed_form | Deployment
type t = E.spec

let specs = E.specs

let commands =
  List.concat_map
    (fun (E.Spec s) ->
      (s.name, s.doc) :: List.map (fun (v, doc, _) -> (v, doc)) s.views)
    specs

let name (E.Spec s) = s.name
let kind (E.Spec s) = s.kind
let names (E.Spec s) = s.name :: List.map (fun (v, _, _) -> v) s.views

let default_campaign =
  List.filter_map
    (fun (E.Spec s) -> if s.kind = Seeded then Some s.name else None)
    specs

(* The one run path: run the spec once and return a printer of any of
   its commands' renderings from that result, with the spec's summary.
   Host wall-clock goes to the segregated real-time registry only, never
   into the report or the deterministic --metrics export. *)
let exec ~pool ~seed ~quick (E.Spec s) =
  let t0 = Unix.gettimeofday () in
  let r = s.run ~pool ~seed ~quick in
  Obs.observe_wall
    (Obs.key ~labels:[ ("experiment", s.name) ] "experiment.wall_s")
    (Unix.gettimeofday () -. t0);
  let print fmt cmd =
    match List.find_opt (fun (v, _, _) -> v = cmd) s.views with
    | Some (_, _, print) -> print fmt r
    | None -> s.print fmt r
  in
  (print, s.json r)

let spec_of cmd =
  match List.find_opt (fun spec -> List.mem cmd (names spec)) specs with
  | Some spec -> spec
  | None ->
      invalid_arg (Printf.sprintf "Registry.run: unknown experiment %S" cmd)

let run fmt ~pool ~seed ~quick cmd =
  let print, json = exec ~pool ~seed ~quick (spec_of cmd) in
  print fmt cmd;
  json

let all fmt ~pool ~seed ~quick =
  List.filter_map
    (fun (E.Spec s as spec) ->
      if s.kind = Deployment then None
      else begin
        let print, json = exec ~pool ~seed ~quick spec in
        List.iter (print fmt) (names spec);
        Some (s.name, json)
      end)
    specs

(* A spec runs once per seed, at the first of its commands; the others
   print from that result. *)
let campaign fmt ~pool ~seeds ~quick cmds =
  List.concat_map
    (fun seed ->
      let runs = Hashtbl.create 8 in
      List.map
        (fun cmd ->
          Format.fprintf fmt "==== campaign: %s seed=%d ====@." cmd seed;
          Progress.set_label (Printf.sprintf "%s seed=%d" cmd seed);
          let spec = spec_of cmd in
          let print, json =
            match Hashtbl.find_opt runs (name spec) with
            | Some run -> run
            | None ->
                let run = exec ~pool ~seed ~quick spec in
                Hashtbl.add runs (name spec) run;
                run
          in
          print fmt cmd;
          let key =
            match seeds with
            | [ _ ] -> cmd
            | _ -> Printf.sprintf "%s seed=%d" cmd seed
          in
          (key, json))
        cmds)
    seeds
