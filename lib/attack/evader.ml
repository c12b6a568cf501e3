module Engine = Satin_engine.Engine
module Sim_time = Satin_engine.Sim_time
module Platform = Satin_hw.Platform
module Cpu = Satin_hw.Cpu
module Kernel = Satin_kernel.Kernel
module Obs = Satin_obs.Obs

module Metric = struct
  let hide_latency = Obs.key "evader.hide_latency"
  let hides = Obs.key "evader.hides"
  let rearms = Obs.key "evader.rearms"
end

type config = {
  prober : Kprober.config;
  cleanup_core : int;
  confirm_clear : Sim_time.t;
  target_addr : int option;
}

let default_config =
  {
    prober = Kprober.default_config;
    cleanup_core = 0;
    confirm_clear = Sim_time.ms 2;
    target_addr = None;
  }

type t = {
  platform : Platform.t;
  config : config;
  rootkit : Rootkit.t;
  prober : Kprober.t;
  mutable running : bool;
  mutable reaction_times : float list;
  mutable rearm_pending : Engine.handle option;
}

let now t = Engine.now t.platform.Platform.engine

let cancel_pending_rearm t =
  match t.rearm_pending with
  | Some h ->
      Engine.cancel t.platform.Platform.engine h;
      t.rearm_pending <- None
  | None -> ()

let schedule_rearm t =
  cancel_pending_rearm t;
  t.rearm_pending <-
    Some
      (Engine.schedule t.platform.Platform.engine ~after:t.config.confirm_clear
         (fun () ->
           t.rearm_pending <- None;
           if t.running && not (Kprober.suspected_any t.prober) then begin
             Obs.incr Metric.rearms;
             Rootkit.start_rearm t.rootkit ()
           end))

let on_suspect t (det : Kprober.detection) =
  if t.running then begin
    cancel_pending_rearm t;
    (* The defender entered the secure world det_lateness ago (minus the
       benign part); take the core's true entry time for the reaction
       metric when available. *)
    let entry =
      match Cpu.last_entry_time (Platform.core t.platform det.Kprober.det_core) with
      | Some e -> e
      | None -> det.Kprober.det_time
    in
    Rootkit.start_hide t.rootkit
      ~on_hidden:(fun () ->
        let reaction = Sim_time.to_sec_f (Sim_time.diff (now t) entry) in
        if Obs.active () then begin
          Obs.incr Metric.hides;
          Obs.observe Metric.hide_latency reaction;
          Obs.instant ~time:(now t) ~track:t.config.cleanup_core ~cat:"attack"
            "hide-complete"
        end;
        t.reaction_times <- reaction :: t.reaction_times;
        (* The introspection round may already be over by the time the last
           byte is restored (SATIN's rounds are shorter than the hide);
           re-arm from here too, not only from the clear edge. *)
        if t.running && not (Kprober.suspected_any t.prober) then
          schedule_rearm t)
      ()
  end

let on_clear t ~core =
  ignore core;
  if t.running && (not (Kprober.suspected_any t.prober))
     && Rootkit.state t.rootkit = Rootkit.Hidden
  then schedule_rearm t

let deploy kernel config =
  let platform = kernel.Kernel.platform in
  let t =
    {
      platform;
      config;
      rootkit =
        Rootkit.create kernel ?target_addr:config.target_addr
          ~cleanup_core:config.cleanup_core ();
      prober = Kprober.deploy kernel config.prober;
      running = false;
      reaction_times = [];
      rearm_pending = None;
    }
  in
  Kprober.on_suspect t.prober (on_suspect t);
  Kprober.on_clear t.prober (on_clear t);
  t

let start t =
  if not t.running then begin
    t.running <- true;
    Rootkit.arm t.rootkit
  end

let rootkit t = t.rootkit
let prober t = t.prober
let hide_reaction_times t = List.rev t.reaction_times
let evasions t = Rootkit.hides t.rootkit

let stop t =
  t.running <- false;
  cancel_pending_rearm t;
  Kprober.retire t.prober
