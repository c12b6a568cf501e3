(* Command-line driver for the SATIN reproduction experiments. *)

open Cmdliner
module Registry = Satin.Registry
module Obs = Satin_obs.Obs
module Json = Satin_obs.Json
module Progress = Satin_obs.Progress
module Sanitizer = Satin_inject.Sanitizer
module Runner = Satin_runner.Runner
module Store = Satin_store.Store
module SKey = Satin_store.Key
module Memo = Satin_store.Memo
module Fingerprint = Satin_store.Fingerprint
module Telemetry = Satin_store.Telemetry
module Incremental = Satin_introspect.Incremental

let fmt = Format.std_formatter

let seed_arg =
  let doc = "PRNG seed; every experiment is deterministic in the seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let quick_arg =
  let doc =
    "Shrink campaign lengths for a fast run: the scale of $(b,campaign \
     --quick), $(b,all --quick) and every experiment's own $(b,--quick)."
  in
  Arg.(value & flag & info [ "quick" ] ~doc)

let jobs_arg =
  let doc =
    "Run trial fan-outs on $(docv) domains. Reports, and the \
     --trace/--metrics exports, are byte-identical whatever the value; the \
     default 1 keeps every trial on the calling domain."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let trace_arg =
  let doc =
    "Export a Chrome trace-event JSON timeline of the run to $(docv); open \
     it at ui.perfetto.dev or chrome://tracing."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Export a JSON summary of the run's metrics to $(docv)." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let check_arg =
  let doc =
    "Run the simulation sanitizer: every scenario validates engine, \
     event-queue, and scheduler invariants on a sampled cadence. Exits \
     nonzero if any violation is found. Results are unchanged (the \
     sanitizer only reads state), whatever --jobs width."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let full_rehash_arg =
  let doc =
    "Disable incremental (generation-gated) host-side hashing: every scan \
     round re-hashes its full range — the reference path. Reports are \
     byte-identical with or without this flag (only host wall-clock \
     changes); trials key separately in the result store so the two modes' \
     capsules never mix."
  in
  Arg.(value & flag & info [ "full-rehash" ] ~doc)

let store_arg =
  let doc =
    "Serve previously-computed trials from the result store rooted at \
     $(docv) (created if absent) and persist every newly-computed trial \
     into it, so repeated runs are incremental. Reports are byte-identical \
     warm or cold, at any --jobs width. Defaults to \\$SATIN_STORE when \
     that is set."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let no_store_arg =
  let doc =
    "Never touch a result store, even when \\$SATIN_STORE is set: every \
     trial recomputes."
  in
  Arg.(value & flag & info [ "no-store" ] ~doc)

let progress_arg =
  let doc =
    "Print live heartbeats to stderr while trials run: trials done/total, \
     store hit rate, ETA, and current p50s of the headline latency series. \
     Off by default; stdout reports (and every export) are byte-identical \
     with or without it."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let resolve_store dir no_store =
  if no_store then None
  else match dir with Some _ -> dir | None -> Sys.getenv_opt "SATIN_STORE"

(* A store that cannot be opened — a directory of its layout is a plain
   file, say — is refused like any bad input: one line on stderr, exit 2. *)
let open_store dir =
  try Store.open_ dir
  with Unix.Unix_error (e, _, path) ->
    Printf.eprintf "store: cannot open %s: %s: %s\n" dir path
      (if e = Unix.EEXIST then "not a directory" else Unix.error_message e);
    exit 2

(* Install the result store around [f] when one was asked for; the
   hit/miss summary goes to stderr so stdout stays byte-identical between
   warm and cold runs. Every record is already published by rename when
   its trial finishes; closing only releases the lock descriptor. *)
let with_store dir no_store f =
  match resolve_store dir no_store with
  | None -> f ()
  | Some dir ->
      let store = open_store dir in
      Store.install store;
      Fun.protect
        ~finally:(fun () ->
          Store.uninstall ();
          Printf.eprintf "%s\n" (Store.summary_line store);
          Store.close store)
        f

(* Enable check mode around [f]; report to stderr (stdout stays the
   byte-stable experiment report) and exit nonzero on violations. Check
   mode also enters the ambient store-key context: a sanitized run must
   never be served wholesale from a clean run's records — that would skip
   the sanitizer — so its trials key differently. *)
let with_ambient key f =
  let prev = SKey.ambient () in
  SKey.set_ambient ((key, "1") :: prev);
  Fun.protect ~finally:(fun () -> SKey.set_ambient prev) f

let with_check check f =
  if not check then f ()
  else begin
    Sanitizer.reset_global ();
    Sanitizer.set_check_mode true;
    Fun.protect
      ~finally:(fun () -> Sanitizer.set_check_mode false)
      (fun () -> with_ambient "check" f);
    let r = Sanitizer.global_report () in
    if r.Sanitizer.violations > 0 then begin
      Printf.eprintf "sanitizer: %d violation(s) in %d check(s)\n"
        r.Sanitizer.violations r.Sanitizer.checks;
      List.iter (Printf.eprintf "  %s\n") r.Sanitizer.messages;
      exit 3
    end
    else
      Printf.eprintf "sanitizer: %d check(s), 0 violations\n"
        r.Sanitizer.checks
  end

(* Force the reference full-re-hash path around [f]. Enters the ambient
   store-key context for the same reason check mode does: full-rehash
   trials compute identical results but different scan.* capsule series,
   and the two modes' records must never cross-pollinate a store. *)
let with_full_rehash full_rehash f =
  if not full_rehash then f ()
  else begin
    Incremental.set_enabled false;
    Fun.protect
      ~finally:(fun () -> Incremental.set_enabled true)
      (fun () -> with_ambient "full-rehash" f)
  end

(* Install an observability sink around [f] only when an export was asked
   for, so the default path keeps the bare (un-instrumented) hot loops.
   Exports are stamped with the build/config identity so telemetry
   consumers can refuse apples-to-oranges comparisons; the stamp is taken
   after [f] so it sees the same ambient context the run keyed under. *)
let with_obs trace metrics f =
  match (trace, metrics) with
  | None, None -> f ()
  | _ ->
      let obs = Obs.create () in
      Obs.install obs;
      Fun.protect ~finally:Obs.uninstall f;
      Obs.set_identity (Some (Satin.Summary.identity ()));
      Fun.protect
        ~finally:(fun () -> Obs.set_identity None)
        (fun () ->
          Option.iter (Obs.write_trace obs) trace;
          Option.iter (Obs.write_metrics obs) metrics)

(* Live heartbeats around [f]; the final summary heartbeat is emitted even
   when [f] raises, so an interrupted campaign still reports its tally. *)
let with_progress progress f =
  if not progress then f ()
  else begin
    Progress.install ();
    Fun.protect ~finally:Progress.finish f
  end

let json_arg =
  let doc =
    "Write a satin-bench/v1 JSON document to $(docv): one structured \
     summary per experiment that ran (byte-identical at any --jobs width, \
     warm or cold store)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

(* The flags every experiment command shares. *)
type opts = {
  quick : bool;
  jobs : int;
  trace : string option;
  metrics : string option;
  check : bool;
  full_rehash : bool;
  store : string option;
  no_store : bool;
  progress : bool;
  json : string option;
}

let opts_term =
  let make quick jobs trace metrics check full_rehash store no_store progress
      json =
    { quick; jobs; trace; metrics; check; full_rehash; store; no_store;
      progress; json }
  in
  Term.(
    const make $ quick_arg $ jobs_arg $ trace_arg $ metrics_arg $ check_arg
    $ full_rehash_arg $ store_arg $ no_store_arg $ progress_arg $ json_arg)

(* A width below 1 would make [Runner.create] raise; refuse it the way
   every bad flag is refused: one line on stderr, exit 2. *)
let check_jobs cmd o =
  if o.jobs < 1 then begin
    Printf.eprintf "%s: --jobs must be at least 1\n" cmd;
    exit 2
  end

(* Run [f pool] inside every wrapper [o] asks for; [f] returns the named
   summaries that --json writes, inside the run's key context. *)
let with_opts o ~subcommands f =
  let pool = Runner.create ~jobs:o.jobs () in
  with_progress o.progress (fun () ->
      with_full_rehash o.full_rehash (fun () ->
          with_check o.check (fun () ->
              with_store o.store o.no_store (fun () ->
                  with_obs o.trace o.metrics (fun () ->
                      let results = f pool in
                      Option.iter
                        (fun file ->
                          Satin.Summary.write_document file ~subcommands
                            results)
                        o.json)))))

(* One subcommand per registry command, plus [all]. *)
let experiment_cmd (name, doc) =
  let run seed o =
    check_jobs name o;
    with_opts o ~subcommands:[ name ] (fun pool ->
        if name = "all" then Registry.all fmt ~pool ~seed ~quick:o.quick
        else [ (name, Registry.run fmt ~pool ~seed ~quick:o.quick name) ])
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ seed_arg $ opts_term)

let all_doc = ("all", "Run the whole evaluation in paper order")

(* Print the code fingerprint mixed into every store key, so a user can
   explain why a rebuilt binary misses a warmed store: the first stdout
   line is the bare hex (script-friendly); provenance goes to stderr. *)
let fingerprint =
  let doc =
    "Print the code fingerprint (digest of this executable) that every \
     result-store key includes; records written by another build never \
     resolve, they just miss."
  in
  let run () =
    print_endline (Fingerprint.hex ());
    List.iter
      (fun (k, v) ->
        if k <> "fingerprint" then Printf.eprintf "%s: %s\n" k v)
      (Fingerprint.describe ())
  in
  Cmd.v (Cmd.info "fingerprint" ~doc) Term.(const run $ const ())

(* "i/N" -> (i, N); campaign validates range and store presence. *)
let parse_shard s =
  match String.split_on_char '/' s with
  | [ i; n ] -> (
      match (int_of_string_opt i, int_of_string_opt n) with
      | Some i, Some n when n >= 1 && i >= 0 && i < n -> Some (i, n)
      | _ -> None)
  | _ -> None

(* Spawn one worker shard: this same executable, re-running the campaign
   as shard [i] of [w] against the shared store, stdout/stderr captured
   under DIR/shards/ (each shard's stdout is itself the full canonical
   report — useful for diffing, noise if interleaved on a tty). *)
let spawn_shard ~dir ~args ~w i =
  let shards = Filename.concat dir "shards" in
  Store.mkdir_p shards;
  let open_log ext =
    Unix.openfile
      (Filename.concat shards (Printf.sprintf "shard-%d.%s" i ext))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let out = open_log "out" and err = open_log "err" in
  let argv =
    Array.of_list
      ((Sys.executable_name :: args) @ [ Printf.sprintf "--shard=%d/%d" i w ])
  in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin out err in
  Unix.close out;
  Unix.close err;
  pid

let campaign_cmd =
  let doc =
    "Run a declared parameter sweep (experiments x seeds) incrementally. \
     With --store, completed trials persist as they finish, so re-running \
     an interrupted campaign executes only the missing trials and a fully \
     warmed campaign recomputes nothing. With --shard or --workers, \
     several processes sweep the same store cooperatively, each emitting \
     the full byte-identical report."
  in
  let experiments_arg =
    let doc =
      "Comma-separated experiments to run, in order: any experiment \
       subcommand's name. Defaults to every seeded experiment except the \
       deployment-scale $(b,fleet), which must be named explicitly, as must \
       the seed-independent ones ($(b,race), $(b,timeline), $(b,areas)) and \
       $(b,fig4)."
    in
    let names = List.map (fun (n, _) -> (n, n)) Registry.commands in
    Arg.(
      value
      & opt (list (enum names)) Registry.default_campaign
      & info [ "experiments"; "e" ] ~docv:"NAMES" ~doc)
  in
  let seeds_arg =
    let doc = "Comma-separated PRNG seeds; the sweep runs every experiment at every seed." in
    Arg.(value & opt (list int) [ 42 ] & info [ "seeds" ] ~docv:"SEEDS" ~doc)
  in
  let shard_arg =
    let doc =
      "Run as shard $(docv) (e.g. 0/4): own a deterministic slice of every \
       trial fan-out, compute it, and serve the rest from the store as the \
       other shards publish — so this process still prints the full \
       report, byte-identical to an unsharded run. Requires --store; the \
       other shards are launched separately (same store, same arguments, \
       different indices)."
    in
    Arg.(value & opt (some string) None & info [ "shard" ] ~docv:"I/N" ~doc)
  in
  let workers_arg =
    let doc =
      "Launch $(docv) worker processes (this executable, --shard i/$(docv) \
       each) against the shared store, wait for them, then replay the \
       warmed campaign in-process as the canonical merged report on \
       stdout. Per-shard stdout/stderr land under DIR/shards/. Requires \
       --store; mutually exclusive with --shard."
    in
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)
  in
  let lease_ttl_arg =
    let doc =
      "Seconds a shard's claim on a trial holds before peers may steal it \
       (and the grace peers extend to an owner that has not claimed yet). \
       Lower it for quick campaigns so a killed shard's trials are \
       re-owned sooner; raise it when single trials run long."
    in
    Arg.(
      value & opt float 60.0 & info [ "lease-ttl" ] ~docv:"SECONDS" ~doc)
  in
  let report_arg =
    let doc =
      "After the sweep, aggregate the store's metric capsules and print \
       the telemetry percentile table (same output as $(b,telemetry \
       report)). Requires --store."
    in
    Arg.(value & flag & info [ "report" ] ~doc)
  in
  let run experiments seeds o shard workers lease_ttl report =
    check_jobs "campaign" o;
    if seeds = [] then begin
      prerr_endline "campaign: --seeds must name at least one seed";
      exit 2
    end;
    (* A repeat would run twice and write two identical summary keys. *)
    let refuse_repeat what show l =
      let rec first_repeat = function
        | [] -> ()
        | x :: rest when List.mem x rest ->
            Printf.eprintf "campaign: %s names %s twice\n" what (show x);
            exit 2
        | _ :: rest -> first_repeat rest
      in
      first_repeat l
    in
    refuse_repeat "--experiments" Fun.id experiments;
    refuse_repeat "--seeds" string_of_int seeds;
    let resolved = resolve_store o.store o.no_store in
    let shard =
      match shard with
      | None -> None
      | Some s -> (
          match parse_shard s with
          | Some _ as sh -> sh
          | None ->
              Printf.eprintf
                "campaign: --shard wants I/N with 0 <= I < N, got %s\n" s;
              exit 2)
    in
    if shard <> None && workers <> None then begin
      prerr_endline "campaign: --shard and --workers are mutually exclusive";
      exit 2
    end;
    if (shard <> None || workers <> None || report) && resolved = None then begin
      prerr_endline
        "campaign: --shard/--workers/--report need a store; pass --store \
         DIR or set $SATIN_STORE";
      exit 2
    end;
    (match workers with
    | Some w when w < 1 ->
        prerr_endline "campaign: --workers must be at least 1";
        exit 2
    | _ -> ());
    if not (Float.is_finite lease_ttl && lease_ttl > 0.0) then begin
      Printf.eprintf
        "campaign: --lease-ttl must be a finite number of seconds above 0, got %g\n"
        lease_ttl;
      exit 2
    end;
    Memo.set_lease_ttl lease_ttl;
    let run_campaign () =
      with_opts o ~subcommands:experiments (fun pool ->
          Registry.campaign fmt ~pool ~seeds ~quick:o.quick experiments)
    in
    (match workers with
    | Some w ->
        let dir = Option.get resolved in
        (* Refuse a damaged store here, not once per worker. *)
        Store.close (open_store dir);
        let args =
          [
            "campaign"; "--experiments"; String.concat "," experiments;
            "--seeds";
            String.concat "," (List.map string_of_int seeds);
            "--jobs"; string_of_int o.jobs; "--store"; dir;
            Printf.sprintf "--lease-ttl=%g" lease_ttl;
          ]
          @ (if o.quick then [ "--quick" ] else [])
          @ (if o.check then [ "--check" ] else [])
          @ (if o.full_rehash then [ "--full-rehash" ] else [])
        in
        let pids = List.init w (spawn_shard ~dir ~args ~w) in
        let failed =
          List.filteri
            (fun i pid ->
              match snd (Unix.waitpid [] pid) with
              | Unix.WEXITED 0 -> false
              | status ->
                  Printf.eprintf "campaign: shard %d/%d %s (see %s)\n" i w
                    (match status with
                    | Unix.WEXITED c -> Printf.sprintf "exited %d" c
                    | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
                    | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s)
                    (Filename.concat dir
                       (Printf.sprintf "shards/shard-%d.err" i));
                  true)
            pids
        in
        if failed <> [] then exit 1;
        (* Every trial is now in the store: the in-process replay below is
           all warm hits and prints the canonical merged report. *)
        run_campaign ()
    | None ->
        Memo.set_shard shard;
        Fun.protect ~finally:(fun () -> Memo.set_shard None) run_campaign);
    if report then
      let s = open_store (Option.get resolved) in
      Fun.protect
        ~finally:(fun () -> Store.close s)
        (fun () ->
          match Telemetry.collect s with
          | Ok r -> Telemetry.print_table fmt r
          | Error e ->
              Printf.eprintf "campaign: report: %s\n" e;
              exit 2)
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(
      const run $ experiments_arg $ seeds_arg $ opts_term $ shard_arg
      $ workers_arg $ lease_ttl_arg $ report_arg)

(* ---- telemetry: aggregate capsules, export, gate ---- *)

let read_json_file path =
  let contents =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error e ->
      Printf.eprintf "telemetry: %s\n" e;
      exit 2
  in
  match Json.parse contents with
  | Ok j -> j
  | Error e ->
      Printf.eprintf "telemetry: %s: %s\n" path e;
      exit 2

let write_string path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let telemetry_store_dir store =
  match resolve_store store false with
  | Some dir -> dir
  | None ->
      prerr_endline
        "telemetry: no store to aggregate; pass --store DIR or set \
         $SATIN_STORE";
      exit 2

let telemetry_collect store fingerprint =
  let dir = telemetry_store_dir store in
  match Telemetry.collect ?fingerprint (open_store dir) with
  | Ok r -> r
  | Error e ->
      Printf.eprintf "telemetry: %s\n" e;
      exit 2

let fingerprint_arg =
  let doc =
    "Aggregate only capsules produced by the build with this fingerprint \
     (see the fingerprint subcommand). Required when the store mixes \
     capsules from several builds."
  in
  Arg.(value & opt (some string) None & info [ "fingerprint" ] ~docv:"HEX" ~doc)

let telemetry_report_cmd =
  let doc =
    "Aggregate the store's metric capsules into per-experiment percentile \
     tables (exact merges — identical at any --jobs width, warm or cold), \
     optionally exporting JSON and OpenMetrics text."
  in
  let json_arg =
    let doc = "Write the report as JSON (satin-telemetry/v1) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let om_arg =
    let doc = "Write the report as OpenMetrics text to $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "openmetrics" ] ~docv:"FILE" ~doc)
  in
  let run store fingerprint json_out om_out =
    let r = telemetry_collect store fingerprint in
    Telemetry.print_table fmt r;
    Option.iter
      (fun p -> write_string p (Json.to_string (Telemetry.to_json r) ^ "\n"))
      json_out;
    Option.iter (fun p -> write_string p (Telemetry.to_openmetrics r)) om_out
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const run $ store_arg $ fingerprint_arg $ json_arg $ om_arg)

let telemetry_gate_cmd =
  let doc =
    "Compare a current telemetry (or bench) JSON document against a \
     committed baseline and exit nonzero when any tracked series regresses \
     beyond the threshold. Documents describing different campaign \
     compositions (identity.config_hash mismatch) are refused."
  in
  let baseline_arg =
    let doc = "Baseline JSON document (e.g. BASELINE_telemetry.json)." in
    Arg.(
      required
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let current_arg =
    let doc =
      "Current JSON document to check. Defaults to aggregating the store \
       (--store/\\$SATIN_STORE) into a fresh telemetry report."
    in
    Arg.(value & opt (some string) None & info [ "current" ] ~docv:"FILE" ~doc)
  in
  let threshold_arg =
    let doc = "Relative regression threshold (0.10 = 10%)." in
    Arg.(
      value
      & opt float Telemetry.gate_threshold_default
      & info [ "threshold" ] ~docv:"FRACTION" ~doc)
  in
  let run baseline current store fingerprint threshold =
    if not (Float.is_finite threshold && threshold > 0.0) then begin
      Printf.eprintf
        "telemetry gate: --threshold must be a finite fraction above 0, got %g\n"
        threshold;
      exit 2
    end;
    let baseline = read_json_file baseline in
    let current =
      match current with
      | Some path -> read_json_file path
      | None -> Telemetry.to_json (telemetry_collect store fingerprint)
    in
    match Telemetry.gate ~threshold ~baseline ~current () with
    | Error e ->
        Printf.eprintf "telemetry gate: %s\n" e;
        exit 2
    | Ok g ->
        List.iter
          (Printf.eprintf "telemetry gate: note: baseline path %s missing from current\n")
          g.Telemetry.missing;
        if g.Telemetry.regressions <> [] then begin
          Printf.eprintf
            "telemetry gate: FAIL — %d regression(s) beyond %.0f%% across %d \
             tracked series\n"
            (List.length g.Telemetry.regressions)
            (threshold *. 100.0) g.Telemetry.compared;
          List.iter
            (fun (path, b, c) ->
              Printf.eprintf "  %s: baseline %.6g -> current %.6g\n" path b c)
            g.Telemetry.regressions;
          exit 1
        end
        else
          Printf.eprintf
            "telemetry gate: PASS — %d tracked series within %.0f%% of \
             baseline\n"
            g.Telemetry.compared (threshold *. 100.0)
  in
  Cmd.v (Cmd.info "gate" ~doc)
    Term.(
      const run $ baseline_arg $ current_arg $ store_arg $ fingerprint_arg
      $ threshold_arg)

let telemetry_cmd =
  let doc =
    "Aggregate persisted per-trial metric capsules into campaign telemetry: \
     percentile tables, JSON/OpenMetrics exports, and regression gating."
  in
  Cmd.group (Cmd.info "telemetry" ~doc)
    [ telemetry_report_cmd; telemetry_gate_cmd ]

let main =
  let doc = "SATIN (DSN 2019) reproduction: experiments on the simulated Juno r1" in
  Cmd.group (Cmd.info "satin_cli" ~version:"1.1.0" ~doc)
    (List.map experiment_cmd (Registry.commands @ [ all_doc ])
    @ [ fingerprint; campaign_cmd; telemetry_cmd ])

let () = exit (Cmd.eval main)
