module Runner = Satin_runner.Runner
module Obs = Satin_obs.Obs
module Json = Satin_obs.Json
module Capsule = Satin_obs.Capsule
module Progress = Satin_obs.Progress
module Sim_time = Satin_engine.Sim_time

module Metric = struct
  let trials = Obs.key "runner.trials"
  let trials_resolved = Obs.key "runner.trials_resolved"
end

let store_track = 63

(* Lane position for cache spans: simulated time is meaningless for host-
   side lookups, so a lookup occupies the microsecond slot of its ordinal
   among the handle's lookups (each one a hit or a miss) on a track of its
   own — a compact hit/miss strip under the simulation lanes. *)
let lookup_span s ~experiment ~trial ~key outcome =
  if Obs.active () then begin
    let c = Store.counters s in
    let slot = c.hits + c.misses - 1 in
    Obs.name_track store_track "result store";
    Obs.span_begin ~time:(Sim_time.us slot) ~track:store_track ~cat:"store"
      ~args:
        [
          ("experiment", Json.String experiment);
          ("trial", Json.Int trial);
          ("key", Json.String key);
        ]
      ("store." ^ outcome);
    Obs.span_end ~time:(Sim_time.us (slot + 1)) ~track:store_track
  end

(* The capsule's config is the key's information restated as readable
   pairs: ambient context fields keep their "ctx:" namespace so they can
   never collide with per-trial config fields. *)
let capsule_config cfg =
  List.map (fun (k, v) -> ("ctx:" ^ k, v)) (Key.ambient ()) @ cfg

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
   each shard's report is byte-identical to an unsharded run's, which is
   shard 0 of 1: it owns every trial and takes no claims. *)

let shard_state = ref None

let set_shard s =
  (match s with
  | Some (si, sn) when sn < 1 || si < 0 || si >= sn ->
      invalid_arg "Memo.set_shard: need 0 <= index < count"
  | _ -> ());
  shard_state := s

let lease_ttl_ref = ref 60.0

let set_lease_ttl t =
  if not (Float.is_finite t && t > 0.0) then
    invalid_arg "Memo.set_lease_ttl: must be finite and positive";
  lease_ttl_ref := t

let lease_ttl () = !lease_ttl_ref

let owner ~experiment ~seed ~sn i =
  (i + Hashtbl.hash (experiment, seed)) mod sn

(* Trials served without running their body: one counter bump and, for
   the live reporter, one finished batch of hits. *)
let note_hits k =
  Obs.incr Metric.trials_resolved ~by:k;
  if Progress.enabled () && k > 0 then begin
    Progress.batch_start k;
    for _ = 1 to k do
      Progress.trial_done ~hit:true
    done
  end

(* [counting s ()] adds the growth of [s]'s counters since [counting s] to
   this domain's observer, one store.* series per counter that moved. A
   cold path, once per fan-out, so the keys are interned here. *)
let counting s =
  let series () =
    let c = Store.counters s in
    [ ("hits", c.hits); ("misses", c.misses); ("writes", c.writes);
      ("corrupt", c.corrupt); ("capsule_hits", c.capsule_hits);
      ("capsule_misses", c.capsule_misses);
      ("capsule_writes", c.capsule_writes); ("claims", c.claims);
      ("claim_steals", c.claim_steals); ("write_errors", c.write_errors) ]
  in
  let before = series () in
  fun () ->
    List.iter2
      (fun (name, b) (_, a) ->
        if a > b then Obs.incr (Obs.key ("store." ^ name)) ~by:(a - b))
      before (series ())

let map pool ~experiment ~seed ?(config = []) ?trial_config n f =
  let store = Store.current () in
  let publish = match store with Some s -> counting s | None -> ignore in
  let observer = Obs.current () in
  let si, sn =
    match (store, !shard_state) with Some _, Some s -> s | _ -> (0, 1)
  in
  let config_of i =
    match trial_config with None -> config | Some g -> config @ g i
  in
  let keys =
    match store with
    | None -> [||]
    | Some _ ->
        Array.init n (fun i ->
            Key.make ~experiment ~seed ~trial_index:i ~config:(config_of i) ())
  in
  let ttl = lease_ttl () in
  (* Claims are a multi-shard concern: a lone process owns every trial. *)
  let claim, release =
    match store with
    | Some s when sn > 1 ->
        ( (fun i -> Store.try_claim s ~key:keys.(i) ~ttl_s:ttl),
          fun i -> Store.release_claim s ~key:keys.(i) )
    | _ -> ((fun _ -> true), ignore)
  in
  (* Serve [i] from the store if its record is there. A hit replays the
     persisted capsule instead of recomputing anything — always consulted
     (so the capsule hit/miss counters audit coverage), parsed only when
     the live reporter wants the samples. *)
  let fetch s i =
    let r = Store.find s ~key:keys.(i) in
    lookup_span s ~experiment ~trial:i ~key:keys.(i)
      (match r with Some _ -> "hit" | None -> "miss");
    (if r <> None then
       match Store.find_capsule s ~key:keys.(i) with
       | Some payload when Progress.enabled () -> (
           match Capsule.of_string payload with
           | Ok c -> Progress.observe_capsule c
           | Error _ -> ())
       | _ -> ());
    r
  in
  (* Run trial [i]'s body on whichever domain got it, in a capture taken
     like the observer when there is anything to capture for. Its capsule
     is sealed for a store or a reporter, and persisted right there, so an
     interrupted campaign resumes from its completed trials. The claim is
     released even when the body raises; a crash between claim and release
     leaves a lease that expires into stealability. *)
  let sealed = store <> None || Progress.enabled () in
  let fingerprint = if sealed then Fingerprint.hex () else "" in
  let compute i =
    ignore (claim i);
    Fun.protect
      ~finally:(fun () -> release i)
      (fun () ->
        if not (sealed || Option.is_some observer) then (f i, None)
        else
          let m, v = Obs.with_capture ?like:observer (fun () -> f i) in
          if sealed then begin
            let c =
              Capsule.of_metrics ~experiment ~seed ~trial:i ~fingerprint
                ~config:(capsule_config (config_of i))
                (Obs.metrics m)
            in
            if Progress.enabled () then Progress.observe_capsule c;
            Option.iter
              (fun s ->
                Store.add s ~key:keys.(i) ~experiment v;
                Store.add_capsule s ~key:keys.(i) ~experiment
                  (Json.to_string (Capsule.to_json c)))
              store
          end;
          (* A capture outlives its trial only to be merged. *)
          (v, if Option.is_some observer then Some m else None))
  in
  let merge m = Option.iter (fun into -> Obs.merge ~into m) observer in
  (* Phase 1 — resolve what the store already has, in index order, on the
     submitting domain: the miss set handed to the pool does not depend on
     its width. *)
  let resolved =
    match store with
    | None -> Array.make n None
    | Some s ->
        let r = Array.init n (fetch s) in
        note_hits
          (Array.fold_left (fun a r -> if r = None then a else a + 1) 0 r);
        r
  in
  let owned = ref [] and waiting = ref [] in
  for i = n - 1 downto 0 do
    if resolved.(i) = None then
      if owner ~experiment ~seed ~sn i = si && claim i then owned := i :: !owned
      else waiting := i :: !waiting
  done;
  (* Phase 2 — compute the owned misses in one pool batch. The upfront
     claims above mark intent; [compute] refreshes each lease the moment
     its trial actually starts, so a long queue behind a narrow pool
     cannot silently expire every claim at once. Captures merge here,
     after the batch, in index order: what a sequential run would write. *)
  let owned = Array.of_list !owned in
  let computed =
    Runner.map pool (Array.length owned) (fun j -> compute owned.(j))
  in
  Array.iteri
    (fun j i ->
      let v, m = computed.(j) in
      Option.iter merge m;
      resolved.(i) <- Some v)
    owned;
  (* Phase 3 (sharded only) — wait for the rest to be published by their
     owners, stealing any trial whose lease is stale or whose owner never
     claimed it within one TTL of this phase starting (a shared grace: a
     shard running alone pays it once, then sweeps everything). A stolen
     trial runs here, outside the pool batch, and counts in runner.trials. *)
  let wait s =
    let t0 = Unix.gettimeofday () in
    let pending = Queue.create () in
    List.iter (fun i -> Queue.push i pending) !waiting;
    while not (Queue.is_empty pending) do
      let round = Queue.length pending in
      let progressed = ref false in
      for _ = 1 to round do
        let i = Queue.pop pending in
        if Store.contains s ~key:keys.(i) then begin
          match fetch s i with
          | Some v ->
              resolved.(i) <- Some v;
              progressed := true;
              note_hits 1;
              (* The record may outlive the lease bookkeeping (owner died
                 between add and release): clear any leftover claim. *)
              release i
          | None ->
              (* Quarantined between the probe and the read — recompute. *)
              Queue.push i pending
        end
        else
          let stale =
            match Store.claim_lease s ~key:keys.(i) with
            | Some l -> not (Store.lease_live l)
            | None -> Unix.gettimeofday () -. t0 >= ttl
          in
          if stale && claim i then begin
            Progress.batch_start 1;
            let v, m = compute i in
            Option.iter merge m;
            resolved.(i) <- Some v;
            Obs.incr Metric.trials;
            progressed := true;
            Progress.trial_done ~hit:false
          end
          else Queue.push i pending
      done;
      if (not !progressed) && not (Queue.is_empty pending) then
        Unix.sleepf 0.05
    done
  in
  Option.iter wait store;
  publish ();
  Array.map (function Some v -> v | None -> assert false) resolved
