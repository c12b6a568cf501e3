module Runner = Satin_runner.Runner
module Obs = Satin_obs.Obs
module Json = Satin_obs.Json
module Capsule = Satin_obs.Capsule
module Progress = Satin_obs.Progress
module Sim_time = Satin_engine.Sim_time

module Metric = struct
  let trials_resolved = Obs.key "runner.trials_resolved"
  let write_errors = Obs.key "store.write_errors"
end

let store_track = 63

(* Lane position for cache spans: simulated time is meaningless for host-
   side lookups, so spans occupy successive microsecond slots of their own
   track — a compact hit/miss strip under the simulation lanes. *)
let span_slot = ref 0

let lookup_span ~experiment ~trial ~key outcome =
  if Obs.enabled () then begin
    Obs.name_track store_track "result store";
    let t0 = Sim_time.us !span_slot in
    incr span_slot;
    Obs.span_begin ~time:t0 ~track:store_track ~cat:"store"
      ~args:
        [
          ("experiment", Json.String experiment);
          ("trial", Json.Int trial);
          ("key", Json.String key);
        ]
      ("store." ^ outcome);
    Obs.span_end ~time:(Sim_time.us !span_slot) ~track:store_track
  end

(* The capsule's config is the key's information restated as readable
   pairs: ambient context fields keep their "ctx:" namespace so they can
   never collide with per-trial config fields. *)
let capsule_config ~base ~trial_config i =
  let cfg = match trial_config with None -> base | Some g -> base @ g i in
  List.map (fun (k, v) -> ("ctx:" ^ k, v)) (Key.ambient ()) @ cfg

let seal_capsule ~experiment ~seed ~fingerprint ~config ~trial_config i m =
  let c =
    Capsule.of_metrics ~experiment ~seed ~trial:i ~fingerprint
      ~config:(capsule_config ~base:config ~trial_config i)
      m
  in
  if Progress.enabled () then Progress.observe_capsule c;
  Json.to_string (Capsule.to_json c)

(* ---- sharding ----

   A shard is one of [sn] cooperating processes sweeping the same
   campaign against one store. Ownership partitions each fan-out
   deterministically — trial [i] of a fan-out belongs to shard
   [(i + Hashtbl.hash (experiment, seed)) mod sn]; the hash rotation
   spreads single-trial fan-outs (which would otherwise all land on
   shard 0) across the fleet. Every shard still *returns* the full
   result array: it computes what it owns, then serves the rest from the
   store as owners publish, stealing any trial whose owner provably died
   (stale lease) or never showed up (no lease after a grace period). So
   each shard's report is byte-identical to an unsharded run's. *)

let shard_state = ref None

let set_shard s =
  (match s with
  | Some (si, sn) when sn < 1 || si < 0 || si >= sn ->
      invalid_arg "Memo.set_shard: need 0 <= index < count"
  | _ -> ());
  shard_state := s

let shard () = !shard_state
let lease_ttl_ref = ref 60.0

let set_lease_ttl t =
  if not (Float.is_finite t && t > 0.0) then
    invalid_arg "Memo.set_lease_ttl: must be finite and positive";
  lease_ttl_ref := t

let lease_ttl () = !lease_ttl_ref

let owner ~experiment ~seed ~sn i =
  (i + Hashtbl.hash (experiment, seed)) mod sn

let map_sharded store pool ~experiment ~seed ~config ~trial_config ~si ~sn n
    f =
  let fingerprint = Fingerprint.hex () in
  let key_of i =
    let config =
      match trial_config with None -> config | Some g -> config @ g i
    in
    Key.make ~experiment ~seed ~trial_index:i ~config ()
  in
  let keys = Array.init n key_of in
  let ttl = lease_ttl () in
  (* Serve [i] from the store if its record is there, replaying the
     persisted capsule into the live reporter like any warm hit. *)
  let fetch i =
    let r = Store.find store ~key:keys.(i) in
    lookup_span ~experiment ~trial:i ~key:keys.(i)
      (match r with Some _ -> "hit" | None -> "miss");
    (if r <> None then
       match Store.find_capsule store ~key:keys.(i) with
       | None -> ()
       | Some payload when Progress.enabled () -> (
           match Capsule.of_string payload with
           | Ok c -> Progress.observe_capsule c
           | Error _ -> ())
       | Some _ -> ());
    r
  in
  (* Compute trial [i]'s body with capture, persist record + capsule, and
     release the claim. Runs on whichever domain got the trial; a crash
     between claim and release leaves a lease that expires into
     stealability. *)
  let compute i =
    ignore (Store.try_claim store ~key:keys.(i) ~ttl_s:ttl);
    let m, v = Obs.with_capture (fun () -> f i) in
    let payload =
      seal_capsule ~experiment ~seed ~fingerprint ~config ~trial_config i m
    in
    (try
       Store.add store ~key:keys.(i) ~experiment v;
       Store.add_capsule store ~key:keys.(i) ~experiment payload
     with e ->
       Obs.incr Metric.write_errors;
       Logs.warn (fun m ->
           m "store: failed to persist %s: %s" keys.(i)
             (Printexc.to_string e)));
    Store.release_claim store ~key:keys.(i);
    v
  in
  (* Phase 1 — resolve what the store already has, in index order. *)
  let resolved = Array.init n fetch in
  let resolved_count =
    Array.fold_left (fun a r -> if r = None then a else a + 1) 0 resolved
  in
  Obs.incr Metric.trials_resolved ~by:resolved_count;
  if Progress.enabled () && resolved_count > 0 then begin
    Progress.batch_start resolved_count;
    for _ = 1 to resolved_count do
      Progress.trial_done ~hit:true
    done
  end;
  let owned = ref [] and waiting = ref [] in
  for i = n - 1 downto 0 do
    if resolved.(i) = None then
      if
        owner ~experiment ~seed ~sn i = si
        && Store.try_claim store ~key:keys.(i) ~ttl_s:ttl
      then owned := i :: !owned
      else waiting := i :: !waiting
  done;
  (* Phase 2 — compute the owned misses through the pool. The upfront
     claims above mark intent; [compute] refreshes each lease the moment
     its trial actually starts, so a long queue behind a narrow pool
     cannot silently expire every claim at once. *)
  let owned = Array.of_list !owned in
  let computed =
    Runner.map pool (Array.length owned) (fun j -> compute owned.(j))
  in
  Array.iteri (fun j i -> resolved.(i) <- Some computed.(j)) owned;
  (* Phase 3 — wait for the rest to be published by their owners,
     stealing any trial whose lease is stale or whose owner never claimed
     it within one TTL of this phase starting (a shared grace: a shard
     running alone pays it once, then sweeps everything). *)
  let t0 = Unix.gettimeofday () in
  let pending = Queue.create () in
  List.iter (fun i -> Queue.push i pending) !waiting;
  while not (Queue.is_empty pending) do
    let round = Queue.length pending in
    let progressed = ref false in
    for _ = 1 to round do
      let i = Queue.pop pending in
      if Store.contains store ~key:keys.(i) then begin
        match fetch i with
        | Some v ->
            resolved.(i) <- Some v;
            progressed := true;
            Obs.incr Metric.trials_resolved;
            if Progress.enabled () then begin
              Progress.batch_start 1;
              Progress.trial_done ~hit:true
            end;
            (* The record may outlive the lease bookkeeping (owner died
               between add and release): clear any leftover claim. *)
            Store.release_claim store ~key:keys.(i)
        | None ->
            (* Quarantined between the probe and the read — recompute. *)
            Queue.push i pending
      end
      else
        let stale =
          match Store.claim_lease store ~key:keys.(i) with
          | Some l -> not (Store.lease_live l)
          | None -> Unix.gettimeofday () -. t0 >= ttl
        in
        if stale && Store.try_claim store ~key:keys.(i) ~ttl_s:ttl then begin
          Progress.batch_start 1;
          resolved.(i) <- Some (compute i);
          progressed := true;
          Progress.trial_done ~hit:false
        end
        else Queue.push i pending
    done;
    if (not !progressed) && not (Queue.is_empty pending) then
      Unix.sleepf 0.05
  done;
  Array.map (function Some v -> v | None -> assert false) resolved

let map pool ~experiment ~seed ?(config = []) ?trial_config n f =
  match Store.current () with
  | None ->
      if Progress.enabled () then
        (* No store to persist into, but heartbeats still want live p50s:
           capture around each body and feed the reporter directly. *)
        Runner.map pool n (fun i ->
            let m, v = Obs.with_capture (fun () -> f i) in
            ignore
              (seal_capsule ~experiment ~seed
                 ~fingerprint:(Fingerprint.hex ()) ~config ~trial_config i m);
            v)
      else Runner.map pool n f
  | Some store when (match !shard_state with
                    | Some (_, sn) -> sn > 1
                    | None -> false) ->
      let si, sn = Option.get !shard_state in
      map_sharded store pool ~experiment ~seed ~config ~trial_config ~si ~sn
        n f
  | Some store ->
      let fingerprint = Fingerprint.hex () in
      let key_of i =
        let config =
          match trial_config with None -> config | Some g -> config @ g i
        in
        Key.make ~experiment ~seed ~trial_index:i ~config ()
      in
      let keys = Array.init n key_of in
      (* Sealed capsule JSON per trial, written by whichever domain ran the
         trial and read back by the same domain in [on_computed] — no two
         domains ever touch one slot. *)
      let caps = Array.make n None in
      Runner.map_cached pool n
        ~lookup:(fun i ->
          let r = Store.find store ~key:keys.(i) in
          lookup_span ~experiment ~trial:i ~key:keys.(i)
            (match r with Some _ -> "hit" | None -> "miss");
          (if r <> None then
             (* Warm hit: replay the persisted capsule instead of
                recomputing anything — always consulted (so the capsule
                hit/miss counters audit coverage), parsed only when the
                live reporter wants the samples. *)
             match Store.find_capsule store ~key:keys.(i) with
             | None -> ()
             | Some payload when Progress.enabled () -> (
                 match Capsule.of_string payload with
                 | Ok c -> Progress.observe_capsule c
                 | Error _ -> ())
             | Some _ -> ());
          r)
        ~on_computed:(fun i v ->
          (* A failing write must not poison the trial that just computed
             its result — count it and move on. *)
          (try Store.add store ~key:keys.(i) ~experiment v
           with e ->
             Obs.incr Metric.write_errors;
             Logs.warn (fun m ->
                 m "store: failed to persist %s: %s" keys.(i)
                   (Printexc.to_string e)));
          match caps.(i) with
          | None -> ()
          | Some payload -> (
              try Store.add_capsule store ~key:keys.(i) ~experiment payload
              with e ->
                Obs.incr Metric.write_errors;
                Logs.warn (fun m ->
                    m "store: failed to persist capsule %s: %s" keys.(i)
                      (Printexc.to_string e))))
        (fun i ->
          let m, v = Obs.with_capture (fun () -> f i) in
          caps.(i) <-
            Some
              (seal_capsule ~experiment ~seed ~fingerprint ~config
                 ~trial_config i m);
          v)
