module E = Experiment
module S = Summary
module Json = Satin_obs.Json
module Obs = Satin_obs.Obs
module Progress = Satin_obs.Progress
module Runner = Satin_runner.Runner

type kind = Seeded | Closed_form | Deployment

(* The existential keeps each result typed between its run, printers and
   encoder. A view is (command, doc, printer): another rendering of the
   same result, which [all] prints right after the spec without re-running
   it. *)
type t =
  | Spec : {
      name : string;
      doc : string;
      kind : kind;
      run : pool:Runner.t -> seed:int -> quick:bool -> 'r;
      print : Format.formatter -> 'r -> unit;
      json : 'r -> Json.t;
      views : (string * string * (Format.formatter -> 'r -> unit)) list;
    }
      -> t

let spec ?(kind = Seeded) ?(views = []) name doc print json run =
  Spec { name; doc; kind; run; print; json; views }

(* Closed-form artifacts ignore the pool, the seed and the scale. *)
let closed name doc print json f =
  spec ~kind:Closed_form name doc print json (fun ~pool:_ ~seed:_ ~quick:_ ->
      f ())

(* Paper (campaign) order. Each [if quick] pair is the scale of
   [satin_cli campaign --quick] and of the paper run. *)
let specs =
  [
    spec "e1" "World-switch latency (Sec IV-B1)" E.print_e1 S.e1
      (fun ~pool ~seed ~quick:_ -> E.run_e1 ~pool ~seed ());
    spec "table1" "Table I: per-byte introspection cost" E.print_table1
      S.table1 (fun ~pool ~seed ~quick:_ -> E.run_table1 ~pool ~seed ());
    spec "e3" "Attacker recovery time (Sec IV-B2)" E.print_e3 S.e3
      (fun ~pool ~seed ~quick:_ -> E.run_e3 ~pool ~seed ());
    spec "uprober" "User-level prober responsiveness (Sec III-B1)"
      E.print_uprober S.uprober (fun ~pool ~seed ~quick ->
        E.run_uprober ~pool ~seed ~trials:(if quick then 6 else 20) ());
    spec "table2" "Table II: probing threshold vs period" E.print_table2
      S.table2
      ~views:[ ("fig4", "Figure 4: probing threshold stability", E.print_fig4) ]
      (fun ~pool ~seed ~quick ->
        E.run_table2 ~pool ~seed ~rounds:(if quick then 15 else 50) ());
    spec "e6" "Single-core vs all-core probing" E.print_e6 S.e6
      (fun ~pool ~seed ~quick ->
        E.run_e6 ~pool ~seed ~rounds:(if quick then 15 else 50) ());
    closed "race" "Sec IV-C race-condition analysis" E.print_e7 S.e7 E.run_e7;
    closed "timeline" "Figure 3: two-world race timeline" E.print_timeline
      S.timeline (fun () -> Race.paper_worst_case);
    spec "evasion" "E8: TZ-Evader vs PKM-style introspection" E.print_e8 S.e8
      (fun ~pool ~seed ~quick ->
        E.run_e8 ~pool ~seed ~duration_s:(if quick then 120 else 400) ());
    closed "areas" "E9: kernel area partition" E.print_e9 S.e9 E.run_e9;
    spec "satin-detect" "E10: SATIN detecting TZ-Evader (Sec VI-B1)"
      E.print_e10 S.e10 (fun ~pool:_ ~seed ~quick ->
        E.run_e10 ~seed ~target_rounds:(if quick then 57 else 190) ());
    spec "fig7" "Figure 7: SATIN overhead on UnixBench" E.print_fig7 S.fig7
      (fun ~pool ~seed ~quick ->
        E.run_fig7 ~pool ~seed ~window_s:(if quick then 8 else 30) ());
    spec "ablation" "SATIN randomization ablation" E.print_ablation S.ablation
      (fun ~pool ~seed ~quick ->
        E.run_ablation ~pool ~seed ~passes:(if quick then 1 else 3) ());
    spec "dkom" "E13: cross-view detection of DKOM process hiding" E.print_e13
      S.e13 (fun ~pool:_ ~seed ~quick ->
        E.run_e13 ~seed ~checks:(if quick then 10 else 30) ());
    spec "cache-channel" "E14: SATIN vs the cache-occupancy side channel"
      E.print_e14 S.e14 (fun ~pool:_ ~seed ~quick ->
        E.run_e14 ~seed ~passes:(if quick then 1 else 3) ());
    spec "cache-fidelity"
      "Side-channel fidelity grid: prober mode x replacement policy x AutoLock"
      E.print_cache_fidelity S.cache_fidelity (fun ~pool ~seed ~quick ->
        E.run_cache_fidelity ~pool ~seed
          ~trials:(if quick then 1 else 2)
          ~window_s:(if quick then 6 else 10)
          ());
    spec "sweep" "Tgoal coverage/overhead sweep" E.print_tgoal_sweep S.sweep
      (fun ~pool ~seed ~quick ->
        E.run_tgoal_sweep ~pool ~seed ~trials:(if quick then 2 else 4) ());
    spec "inject" "Fault injection: SATIN detection rate per fault plan"
      E.print_inject S.inject (fun ~pool ~seed ~quick ->
        E.run_inject ~pool ~seed
          ~trials:(if quick then 2 else 4)
          ~window_s:(if quick then 25 else 30)
          ());
    spec "degrade" "Graceful degradation vs secure-timer drop severity"
      E.print_degrade S.degrade (fun ~pool ~seed ~quick ->
        E.run_degrade ~pool ~seed
          ~trials:(if quick then 2 else 4)
          ~window_s:(if quick then 25 else 30)
          ());
    spec ~kind:Deployment "fleet" "Fleet: per-device detection & overhead sweep"
      E.print_fleet S.fleet (fun ~pool ~seed ~quick ->
        E.run_fleet ~pool ~seed
          ~devices:(if quick then 16 else 240)
          ~window_s:(if quick then 10 else 20)
          ());
  ]

let commands =
  List.concat_map
    (fun (Spec s) ->
      (s.name, s.doc) :: List.map (fun (v, doc, _) -> (v, doc)) s.views)
    specs

let name (Spec s) = s.name
let kind (Spec s) = s.kind
let names (Spec s) = s.name :: List.map (fun (v, _, _) -> v) s.views

let default_campaign =
  List.filter_map
    (fun (Spec s) -> if s.kind = Seeded then Some s.name else None)
    specs

(* The one run path: run the spec once, print the renderings named [cmds]
   and return its summary. Host wall-clock goes to the segregated
   real-time registry only, never into the report or the deterministic
   --metrics export. *)
let exec fmt ~pool ~seed ~quick (Spec s) cmds =
  let t0 = Unix.gettimeofday () in
  let r = s.run ~pool ~seed ~quick in
  Obs.observe_wall
    (Obs.key ~labels:[ ("experiment", s.name) ] "experiment.wall_s")
    (Unix.gettimeofday () -. t0);
  List.iter
    (fun cmd ->
      match List.find_opt (fun (v, _, _) -> v = cmd) s.views with
      | Some (_, _, print) -> print fmt r
      | None -> s.print fmt r)
    cmds;
  s.json r

let run fmt ~pool ~seed ~quick cmd =
  match List.find_opt (fun spec -> List.mem cmd (names spec)) specs with
  | Some spec -> exec fmt ~pool ~seed ~quick spec [ cmd ]
  | None ->
      invalid_arg (Printf.sprintf "Registry.run: unknown experiment %S" cmd)

let all fmt ~pool ~seed ~quick =
  List.filter_map
    (fun (Spec s as spec) ->
      if s.kind = Deployment then None
      else Some (s.name, exec fmt ~pool ~seed ~quick spec (names spec)))
    specs

let campaign fmt ~pool ~seeds ~quick cmds =
  List.concat_map
    (fun seed ->
      List.map
        (fun cmd ->
          Format.fprintf fmt "==== campaign: %s seed=%d ====@." cmd seed;
          Progress.set_label (Printf.sprintf "%s seed=%d" cmd seed);
          let key =
            match seeds with
            | [ _ ] -> cmd
            | _ -> Printf.sprintf "%s seed=%d" cmd seed
          in
          (key, run fmt ~pool ~seed ~quick cmd))
        cmds)
    seeds
