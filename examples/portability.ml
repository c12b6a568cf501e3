(* Porting SATIN to a non-TrustZone TEE (the paper's §VII-D).

   SATIN needs three things: multi-core, a high-privileged execution mode,
   and a secure timer. This example rebuilds the whole stack on a
   hypothetical 8-core x86 server whose TEE is SMM-like — identical cores
   and a ~30 µs privileged-mode switch, ten times the TrustZone monitor's.
   The Equation (2) area bound shrinks accordingly, the partition is
   recomputed, and the detection result still holds.

     dune exec examples/portability.exe *)

module Sim_time = Satin_engine.Sim_time
module Cycle_model = Satin_hw.Cycle_model
module Platform = Satin_hw.Platform
module Layout = Satin_kernel.Layout
module Kernel = Satin_kernel.Kernel
module Area = Satin_introspect.Area
module Checker = Satin_introspect.Checker
module Satin_def = Satin_introspect.Satin
module Round = Satin_introspect.Round
module Race = Satin.Race

let () =
  let cycle = Cycle_model.smm_like in
  (* Eight identical cores; the A57 tag here just means "fast core". *)
  let platform =
    Platform.create ~seed:9 ~cycle
      ~core_types:(Array.make 8 Cycle_model.A57)
      ()
  in
  let kernel = Kernel.boot platform in
  let tsp = Satin_tz.Tsp.install platform in
  let smem =
    Satin_tz.Secure_memory.create ~memory:platform.Platform.memory
      ~base:(24 * 1024 * 1024) ~size:(1024 * 1024)
  in
  let checker =
    Checker.create ~memory:platform.Platform.memory ~cycle
      ~prng:(Platform.split_prng platform) ()
  in

  (* The slower privileged-mode switch changes the race budget. *)
  let race =
    Race.of_cycle cycle ~checker_core:Cycle_model.A57
      ~evader_core:Cycle_model.A57
  in
  Printf.printf "SMM-like platform: switch %.1f us, byte rate %.2f ns\n"
    (race.Race.ts_switch *. 1e6)
    (race.Race.ts_1byte *. 1e9);
  Printf.printf "area bound: %d bytes (Juno: 1218351)\n" (Race.s_bound race);

  let areas = Area.of_layout kernel.Kernel.layout in
  Printf.printf "paper partition still fits: max area %d < bound -> %b\n\n"
    (Area.max_size areas)
    (Area.max_size areas < Race.s_bound race);

  (* Run SATIN against the evading rootkit on the new platform. *)
  let satin =
    Satin_def.install ~tsp ~kernel ~checker ~secure_memory:smem
      { Satin_def.default_config with Satin_def.t_goal = Sim_time.s 38 }
  in
  Satin_def.start satin;
  let evader =
    Satin_attack.Evader.deploy kernel
      {
        Satin_attack.Evader.default_config with
        prober =
          {
            Satin_attack.Kprober.default_config with
            period = Sim_time.us 500;
          };
      }
  in
  Satin_attack.Evader.start evader;
  Satin_engine.Engine.run_until platform.Platform.engine (Sim_time.s 80);
  Satin_def.stop satin;
  Satin_attack.Evader.stop evader;

  let rounds = Satin_def.rounds satin in
  let area14 = List.filter (fun r -> r.Round.area_index = 14) rounds in
  Printf.printf
    "80 s campaign on 8 cores: %d rounds, cores used: %s\n"
    (List.length rounds)
    (String.concat ","
       (List.map string_of_int
          (List.sort_uniq compare (List.map (fun r -> r.Round.core) rounds))));
  Printf.printf "area-14 checks %d, detections %d -> SATIN ports.\n"
    (List.length area14)
    (List.length (List.filter Round.detected area14))
