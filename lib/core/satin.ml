(** SATIN (DSN 2019) reproduction — public entry point.

    Start with {!Scenario} to assemble the simulated Juno r1 platform (rich
    OS + secure world + checker), install a defense
    ({!Scenario.install_satin} or {!Scenario.install_baseline}), deploy
    attacks from [Satin_attack], and advance simulated time with
    {!Scenario.run_for}. {!Race} holds the paper's closed-form race
    analysis (Equations 1–2); {!Experiment} regenerates every table and
    figure of the evaluation; {!Report} renders them; {!Registry} lists
    every experiment once for the CLI, campaigns and JSON summaries.

    Lower layers are available as their own libraries: [Satin_engine]
    (discrete-event core), [Satin_hw] (TrustZone hardware), [Satin_kernel]
    (rich OS), [Satin_tz] (secure world), [Satin_introspect] (defenses),
    [Satin_attack] (TZ-Evader and friends), [Satin_workload] (UnixBench
    models). See README.md and DESIGN.md. *)

module Scenario = Scenario
module Race = Race
module Experiment = Experiment
module Report = Report
module Gantt = Gantt
module Summary = Summary
module Registry = Registry
