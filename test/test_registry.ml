(* The experiment registry is the one declaration every entry point is
   generated from: the CLI subcommands, campaign, all and the --json
   summaries. These cases pin that the generated entry points agree. *)

module Registry = Satin.Registry
module Runner = Satin_runner.Runner
module Json = Satin_obs.Json
module Obs = Satin_obs.Obs
module Metrics = Satin_obs.Metrics
module Store = Satin_store.Store

let commands = List.map fst Registry.commands

(* Unique among themselves and against the CLI's fixed subcommands. *)
let test_names_unique () =
  let names = [ "all"; "campaign"; "fingerprint"; "telemetry" ] @ commands in
  Alcotest.(check int)
    "command names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_default_campaign () =
  Alcotest.(check (list string))
    "default campaign"
    [
      "e1"; "table1"; "e3"; "uprober"; "table2"; "e6"; "evasion";
      "satin-detect"; "fig7"; "ablation"; "dkom"; "cache-channel";
      "cache-fidelity"; "sweep"; "inject"; "degrade";
    ]
    Registry.default_campaign

(* [satin_cli NAME --quick --json FILE] as a subprocess, once per command:
   its stdout and the summary it wrote under NAME. *)
let cli_runs = Hashtbl.create 32

let cli_quick name =
  match Hashtbl.find_opt cli_runs name with
  | Some r -> r
  | None ->
      let tmp ext = Filename.temp_file ("satin_registry_" ^ name) ext in
      let out = tmp ".out" and err = tmp ".err" and json = tmp ".json" in
      Test_multiproc.wait_ok ("satin_cli " ^ name)
        (Test_multiproc.launch
           [ name; "--quick"; "--seed"; "42"; "--no-store"; "--json"; json ]
           ~out ~err);
      let summary =
        match Json.parse (Test_multiproc.read_file json) with
        | Error e -> Alcotest.failf "%s --json: %s" name e
        | Ok doc -> (
            match Json.member "results" doc with
            | Some results -> Json.member name results
            | None -> None)
      in
      let r = (Test_multiproc.read_file out, summary) in
      List.iter Sys.remove [ out; err; json ];
      Hashtbl.replace cli_runs name r;
      r

let deployment =
  List.filter_map
    (fun s ->
      if Registry.kind s = Registry.Deployment then Some (Registry.name s)
      else None)
    Registry.specs

(* Every command takes --quick, and [all] is nothing but the commands'
   quick reports back to back, each campaign run once. *)
let test_all_is_concatenation () =
  let report, _ = Test_determinism.quick_all ~jobs:1 ~seed:42 in
  let pieces =
    List.filter_map
      (fun name ->
        if List.mem name deployment then None else Some (fst (cli_quick name)))
      commands
  in
  Test_determinism.check_identical "all --quick vs concatenated commands"
    (String.concat "" pieces) report

let test_every_spec_encodes () =
  List.iter
    (fun name ->
      match snd (cli_quick name) with
      | Some (Json.Obj (_ :: _)) -> ()
      | Some _ -> Alcotest.failf "%s: summary is not a non-empty object" name
      | None -> Alcotest.failf "%s: no summary under results" name)
    commands

(* experiment.wall_s is recorded on the one run path, labelled with the
   spec name, whichever entry point ran it. *)
let test_campaign_wall_labels () =
  let obs = Obs.create () in
  Obs.install obs;
  Fun.protect ~finally:Obs.uninstall (fun () ->
      ignore
        (Registry.campaign
           (Format.make_formatter (fun _ _ _ -> ()) ignore)
           ~pool:Runner.sequential ~seeds:[ 42 ] ~quick:true [ "e1"; "e3" ]));
  let labels = ref [] in
  Metrics.iter_sorted (Obs.wall_metrics obs) (fun name ls _ ->
      if name = "experiment.wall_s" then
        labels := List.assoc "experiment" ls :: !labels);
  Alcotest.(check (list string))
    "experiment.wall_s labels" [ "e1"; "e3" ] (List.rev !labels)

(* A campaign runs each spec once per seed, however many of its commands
   it names: Figure 4 prints from Table II's result, so [-e table2,fig4]
   counts Table II's trials once, and prints and summarizes what the two
   commands do alone. *)
let test_campaign_runs_spec_once () =
  let campaign cmds =
    let obs = Obs.create () in
    let buf = Buffer.create 4096 in
    let fmt = Format.formatter_of_buffer buf in
    Obs.install obs;
    let summaries =
      Fun.protect ~finally:Obs.uninstall (fun () ->
          Registry.campaign fmt ~pool:Runner.sequential ~seeds:[ 42 ]
            ~quick:true cmds)
    in
    Format.pp_print_flush fmt ();
    ( Metrics.counter_value (Obs.metrics obs) "runner.trials",
      Buffer.contents buf,
      List.map (fun (k, j) -> (k, Json.to_string j)) summaries )
  in
  let alone, table2, s2 = campaign [ "table2" ] in
  let _, fig4, s4 = campaign [ "fig4" ] in
  let both, report, summaries = campaign [ "table2"; "fig4" ] in
  Alcotest.(check bool) "Table II runs trials" true (alone > Some 0);
  Alcotest.(check (option int)) "Table II's trials counted once" alone both;
  Alcotest.(check string) "each command's report" (table2 ^ fig4) report;
  Alcotest.(check (list (pair string string)))
    "each command's summary" (s2 @ s4) summaries

(* One observation path: under a sink, a campaign exports the same
   --metrics and --trace documents at any pool width — with no store, a
   cold one and a warm one — while the wide pool really spreads its
   trials across domains. *)
let test_sink_exports_any_width () =
  let null = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let exports pool =
    let obs = Obs.create () in
    Obs.install obs;
    Fun.protect ~finally:Obs.uninstall (fun () ->
        ignore
          (Registry.campaign null ~pool ~seeds:[ 42 ] ~quick:true
             [ "e1"; "uprober"; "sweep" ]));
    obs
  in
  let stored dir pool =
    let s = Store.open_ dir in
    Store.install s;
    Fun.protect
      ~finally:(fun () ->
        Store.uninstall ();
        Store.close s)
      (fun () -> exports pool)
  in
  let store_dir = Filename.concat (Temp_dir.make "satin_registry_test") in
  let wide = Runner.create ~clamp:false ~jobs:4 () in
  let domains = Hashtbl.create 4 in
  let compare label run =
    let a = run Runner.sequential and b = run wide in
    let doc f obs = Json.to_string (f obs) in
    Alcotest.(check string)
      (label ^ ": metrics") (doc Obs.metrics_json a) (doc Obs.metrics_json b);
    Alcotest.(check string)
      (label ^ ": trace") (doc Obs.trace_json a) (doc Obs.trace_json b);
    Metrics.iter_sorted (Obs.wall_metrics b) (fun name labels v ->
        match v with
        | `Histogram s
          when name = "runner.domain_trials" && Satin_engine.Stats.total s > 0.0
          ->
            Hashtbl.replace domains (List.assoc "domain" labels) ()
        | _ -> ())
  in
  let per_pool pool = store_dir (string_of_int (Runner.jobs pool)) in
  compare "no store" exports;
  compare "cold store" (fun pool -> stored (per_pool pool) pool);
  compare "warm store" (fun pool -> stored (per_pool pool) pool);
  Alcotest.(check bool) "the wide pool ran trials on several domains" true
    (Hashtbl.length domains >= 2)

let suite =
  Temp_dir.cases
    [
      Alcotest.test_case "command names unique" `Quick test_names_unique;
      Alcotest.test_case "default campaign" `Quick test_default_campaign;
      Alcotest.test_case "campaign records wall per spec" `Quick
        test_campaign_wall_labels;
      Alcotest.test_case "campaign runs a spec once per seed" `Quick
        test_campaign_runs_spec_once;
      Alcotest.test_case "sink exports equal at any width" `Slow
        test_sink_exports_any_width;
      Alcotest.test_case "all --quick = concatenated CLI --quick" `Slow
        test_all_is_concatenation;
      Alcotest.test_case "every spec has a JSON encoder" `Slow
        test_every_spec_encodes;
    ]
