module Prng = Satin_engine.Prng
module Policy = Satin_cache.Policy
module Cache = Satin_cache.Cache

let prng () = Prng.create (Prng.derive 7 11)

(* One 1-set L1 of [ways] ways in front of a 32-way, 1-set L2 that never
   fills: an L1 miss past the first [ways] lines evicts the line the policy
   picks, and no other line moves. Fill the set with lines 0 .. ways - 1
   (line k takes way k), re-touch the ways of [trace], miss once more, and
   return which of the first [ways] lines are still in the L1. *)
let run_trace kind ~ways trace =
  let c =
    Cache.create ~prng:(prng ())
      ~clusters:[| [| 0 |] |]
      {
        Cache.l1 = { Cache.sets = 1; ways; line = 64 };
        l2 = { Cache.sets = 1; ways = 32; line = 64 };
        policy = kind;
        autolock = false;
      }
  in
  let touch k = ignore (Cache.touch c ~core:0 ~addr:(k * 64)) in
  for k = 0 to ways - 1 do
    touch k
  done;
  List.iter touch trace;
  touch ways;
  List.init ways (fun k -> Cache.peek c ~core:0 ~addr:(k * 64) = 0)

(* Every policy guarantees the just-touched way is never the next victim
   (with no locks and at least two ways). *)
let prop_no_policy_evicts_just_touched =
  QCheck.Test.make ~name:"no policy evicts the just-touched way" ~count:200
    QCheck.(
      triple (int_range 0 2) (int_range 1 4)
        (list_of_size Gen.(int_range 1 40) (int_bound 1000)))
    (fun (ki, log_ways, raw_trace) ->
      let kind = List.nth Policy.all ki in
      let ways = 1 lsl log_ways (* 2 .. 16 *) in
      let trace = List.map (fun r -> r mod ways) raw_trace in
      let resident = run_trace kind ~ways trace in
      let last = List.nth trace (List.length trace - 1) in
      List.length (List.filter not resident) = 1 && List.nth resident last)

(* At two ways Tree-PLRU is exactly LRU: one bit tracks the cold way. *)
let prop_plru_is_lru_at_two_ways =
  QCheck.Test.make ~name:"tree-plru = lru on any 2-way single-set trace"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 60) (int_bound 1))
    (fun trace ->
      run_trace Policy.Lru ~ways:2 trace
      = run_trace Policy.Tree_plru ~ways:2 trace)

let test_policy_validate () =
  Alcotest.check_raises "plru needs pow2"
    (Invalid_argument "Policy.validate: Tree_plru needs a power-of-two ways")
    (fun () -> Policy.validate Policy.Tree_plru ~ways:12);
  Policy.validate Policy.Lru ~ways:12;
  Alcotest.check_raises "ways ceiling"
    (Invalid_argument "Policy.validate: need 1 <= ways <= 62") (fun () ->
      Policy.validate Policy.Lru ~ways:63)

let two_core_cache ?(policy = Policy.Lru) ~autolock () =
  Cache.create
    ~clusters:[| [| 0; 1 |] |]
    { Cache.default_config with Cache.policy; autolock }

let test_touch_levels_and_counters () =
  let c = two_core_cache ~autolock:false () in
  let addr = 1 lsl 22 in
  Alcotest.(check int) "cold touch misses both" 2 (Cache.touch c ~core:0 ~addr);
  Alcotest.(check int) "second touch hits L1" 0 (Cache.touch c ~core:0 ~addr);
  (* Same cluster, other core: L1 is private, L2 is shared. *)
  Alcotest.(check int) "peer core hits only L2" 1 (Cache.touch c ~core:1 ~addr);
  let l1 = Cache.l1_stats c and l2 = Cache.l2_stats c in
  Alcotest.(check int) "l1 hits" 1 l1.Cache.hits;
  Alcotest.(check int) "l1 misses" 2 l1.Cache.misses;
  Alcotest.(check int) "l2 hits" 1 l2.Cache.hits;
  Alcotest.(check int) "l2 misses" 1 l2.Cache.misses;
  Alcotest.(check int) "peek is free" 0 (Cache.peek c ~core:0 ~addr);
  let l1' = Cache.l1_stats c in
  Alcotest.(check int) "peek did not count" l1.Cache.hits l1'.Cache.hits

let test_eviction_set_shape () =
  let c = two_core_cache ~autolock:false () in
  let l2_set = 777 and base = 1 lsl 26 in
  let set = Cache.eviction_set c ~l2_set ~base in
  Alcotest.(check int) "ways members" (Cache.l2_ways c) (Array.length set);
  let line = Cache.line_size c in
  let span = Cache.l2_sets c * line in
  Array.iteri
    (fun i addr ->
      Alcotest.(check bool) "above base" true (addr >= base);
      Alcotest.(check int) "line aligned" 0 (addr mod line);
      Alcotest.(check int) "maps to the set" l2_set
        (Cache.l2_set_of_addr c ~addr);
      if i > 0 then
        Alcotest.(check int) "spaced one L2 span apart" span (addr - set.(i - 1)))
    set

(* The AutoLock primitive, deterministically: core 0 parks an eviction set
   (resident in its own L1, hence pinned when the toggle is on); core 1
   then streams a full conflicting set through the shared L2. *)
let autolock_duel ~autolock =
  let c = two_core_cache ~autolock () in
  let l2_set = 129 in
  let parked = Cache.eviction_set c ~l2_set ~base:(1 lsl 26) in
  Array.iter (fun addr -> ignore (Cache.touch c ~core:0 ~addr)) parked;
  let evictor = Cache.eviction_set c ~l2_set ~base:(1 lsl 27) in
  Array.iter (fun addr -> ignore (Cache.touch c ~core:1 ~addr)) evictor;
  c, parked

let test_cross_core_eviction_without_autolock () =
  let c, parked = autolock_duel ~autolock:false in
  Array.iter
    (fun addr ->
      Alcotest.(check int) "parked line fully evicted" 2
        (Cache.peek c ~core:0 ~addr))
    parked;
  Alcotest.(check bool) "L1 copies were back-invalidated" true
    (Cache.back_invalidations c >= Array.length parked);
  Alcotest.(check int) "no locked-set skips" 0 (Cache.autolock_skips c)

let test_autolock_pins_cross_core_eviction () =
  let c, parked = autolock_duel ~autolock:true in
  Array.iter
    (fun addr ->
      Alcotest.(check bool) "parked line survives" true
        (Cache.peek c ~core:0 ~addr <= 1))
    parked;
  Alcotest.(check bool) "fully-pinned set skipped L2 allocation" true
    (Cache.autolock_skips c > 0);
  (* A core can always re-evict its own lines: the same duel from core 0
     itself must still evict (Evict+Reload depends on this). *)
  let evictor = Cache.eviction_set c ~l2_set:301 ~base:(1 lsl 27) in
  let target = Cache.eviction_set c ~l2_set:301 ~base:(1 lsl 26) in
  ignore (Cache.touch c ~core:0 ~addr:target.(0));
  Array.iter (fun addr -> ignore (Cache.touch c ~core:0 ~addr)) evictor;
  Alcotest.(check int) "own line still evictable under AutoLock" 2
    (Cache.peek c ~core:0 ~addr:target.(0))

let test_config_validation () =
  Alcotest.check_raises "clusters must partition the cores"
    (Invalid_argument "Cache.create: clusters must partition the cores")
    (fun () ->
      ignore
        (Cache.create ~clusters:[| [| 0; 2 |] |] Cache.default_config));
  Alcotest.check_raises "line sizes must match"
    (Invalid_argument "Cache.create: L1 and L2 line sizes must match")
    (fun () ->
      ignore
        (Cache.create
           ~clusters:[| [| 0 |] |]
           {
             Cache.default_config with
             Cache.l1 = { Cache.sets = 32; ways = 4; line = 32 };
           }));
  (* Sets are indexed by the low tag bits: 48 sets would silently map
     lines to the wrong sets. *)
  Alcotest.check_raises "set count must be a power of two"
    (Invalid_argument "Cache.create: l2 set count not a power of two")
    (fun () ->
      ignore
        (Cache.create
           ~clusters:[| [| 0 |] |]
           {
             Cache.default_config with
             Cache.l2 = { Cache.sets = 48; ways = 16; line = 64 };
           }))

let test_cluster_mapping () =
  let c =
    Cache.create ~clusters:[| [| 0; 1 |]; [| 2 |] |] Cache.default_config
  in
  Alcotest.(check int) "core 1 -> cluster 0" 0 (Cache.cluster_of_core c ~core:1);
  Alcotest.(check int) "core 2 -> cluster 1" 1 (Cache.cluster_of_core c ~core:2)

(* A negative address has no set: every entry point must reject it rather
   than index the tag arrays at a negative offset (where [peek] would read
   an "L1 hit" on an empty cache). *)
let test_negative_address () =
  let c = two_core_cache ~autolock:false () in
  let rejects fn f =
    Alcotest.check_raises fn
      (Invalid_argument (Printf.sprintf "Cache.%s: negative address -64" fn))
      f
  in
  rejects "touch" (fun () -> ignore (Cache.touch c ~core:0 ~addr:(-64)));
  rejects "peek" (fun () -> ignore (Cache.peek c ~core:0 ~addr:(-64)));
  rejects "touch_range" (fun () ->
      Cache.touch_range c ~core:0 ~addr:(-64) ~len:128);
  rejects "footprint" (fun () -> ignore (Cache.footprint ~addr:(-64) ~len:128));
  rejects "sweep" (fun () -> Cache.sweep c ~core:0 [| -64 |] (Array.make 3 0));
  let l1 = Cache.l1_stats c in
  Alcotest.(check int) "nothing was counted" 0 (l1.Cache.hits + l1.Cache.misses)

(* ---- the cache vs the scan-based reference model ---- *)

(* Tiny levels so lines collide and get back-invalidated, and footprints
   re-record, all the time: a 1 KiB 4-way L1 per core, a 16-set L2 per
   cluster, two clusters of two cores. The 8-way L2 cannot see an AutoLock
   skip: every line of one L2 set sits in one L1 set, so the requester's
   one peer pins at most 4 of its 8 ways. The 4-way L2 can, and is there
   for the skip and the non-inclusive L1 lines it leaves. *)
let small_config policy ~autolock ~l2_ways =
  {
    Cache.l1 = { Cache.sets = 4; ways = 4; line = 64 };
    l2 = { Cache.sets = 16; ways = l2_ways; line = 64 };
    policy;
    autolock;
  }

let small_clusters = [| [| 0; 1 |]; [| 2; 3 |] |]
let small_prng () = Prng.create (Prng.derive 3 5)
let window = 1 lsl 16

(* Task windows (addr, len): two that fit the L1 (one unaligned), one of
   two lines (fewer than the L1 sets) and one of 32 lines that never fits
   (it walks every time). *)
let tasks =
  [|
    (window, 512);
    (window + 4096 + 32, 300);
    (window + 8192 + 10, 100);
    (window + 12288, 2048);
  |]

type op =
  | Dispatch of int * int (* task, core *)
  | Touch of int * int (* core, addr *)
  | Scan of int * int * int (* core, addr, len *)
  | Sweep of int * int array (* core, eviction-set members *)

let pp_op = function
  | Dispatch (task, core) -> Printf.sprintf "dispatch %d@%d" task core
  | Touch (core, addr) -> Printf.sprintf "touch %d@%#x" core addr
  | Scan (core, addr, len) -> Printf.sprintf "scan %d@%#x+%d" core addr len
  | Sweep (core, addrs) ->
      Printf.sprintf "sweep %d@[%s]" core
        (String.concat "," (List.map (Printf.sprintf "%#x") (Array.to_list addrs)))

(* Dispatches mostly land on the task's home core (hot re-dispatches that
   replay), sometimes migrate; peer touches and scans hit the same 24 KiB
   so they share, evict and back-invalidate footprint lines. *)
let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          int_bound 3 >>= fun task ->
          frequency [ (3, return task); (1, int_bound 3) ] >|= fun core ->
          Dispatch (task, core) );
        ( 3,
          map2 (fun core off -> Touch (core, window + off)) (int_bound 3)
            (int_bound 24575) );
        ( 1,
          map3
            (fun core off len -> Scan (core, window + off, len))
            (int_bound 3) (int_bound 24575) (int_range 1 8192) );
      ])

(* An eviction-set sweep: one core touches 2-6 consecutive lines of L2 set
   0 or 1 (16 lines apart) — through [Cache.sweep], or as that many
   [Touch]es. Sweeps fill whole sets, so a peer's sweep pins them under
   AutoLock and a fill of the same set then skips the L2. *)
let gen_sweep =
  QCheck.Gen.(
    map4
      (fun core set k0 n ->
        (core, Array.init n (fun i -> window + ((set + (16 * (k0 + i))) * 64))))
      (int_bound 3) (int_bound 1) (int_bound 7) (int_range 2 6)
    >>= fun (core, addrs) ->
    oneofl
      [
        [ Sweep (core, addrs) ];
        Array.to_list (Array.map (fun addr -> Touch (core, addr)) addrs);
      ])

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (frequency [ (3, gen_op >|= fun op -> [ op ]); (1, gen_sweep) ])
    >|= List.concat)

(* Run [ops] on the cache — footprints replayed through handles — and on
   the reference, which walks them, and fail at the first op after which
   they disagree or the cache breaks an invariant. Returns the dispatches
   that replayed and the reference's path coverage. *)
let run_differential policy ~autolock ~l2_ways ops =
  let cfg = small_config policy ~autolock ~l2_ways in
  let fast = Cache.create ~prng:(small_prng ()) ~clusters:small_clusters cfg
  and slow =
    Cache_ref.create ~prng:(small_prng ()) ~clusters:small_clusters cfg
  in
  let fps = Array.map (fun (addr, len) -> Cache.footprint ~addr ~len) tasks in
  List.iteri
    (fun i op ->
      let fail fmt =
        Printf.ksprintf
          (fun s ->
            Alcotest.failf "%s autolock=%b l2_ways=%d, op %d (%s): %s"
              (Policy.kind_to_string policy)
              autolock l2_ways i (pp_op op) s)
          fmt
      in
      (match op with
      | Dispatch (task, core) ->
          let addr, len = tasks.(task) in
          Cache.touch_footprint fast fps.(task) ~core;
          Cache_ref.touch_range slow ~core ~addr ~len
      | Touch (core, addr) ->
          let a = Cache.touch fast ~core ~addr
          and b = Cache_ref.touch slow ~core ~addr in
          if a <> b then fail "served by level %d vs %d" a b
      | Scan (core, addr, len) ->
          Cache.touch_range fast ~core ~addr ~len;
          Cache_ref.touch_range slow ~core ~addr ~len
      | Sweep (core, addrs) ->
          let a = Array.make 3 0 and b = Array.make 3 0 in
          Cache.sweep fast ~core addrs a;
          Array.iter
            (fun addr ->
              let l = Cache_ref.touch slow ~core ~addr in
              b.(l) <- b.(l) + 1)
            addrs;
          if a <> b then
            fail "served (L1, L2, memory) = (%d, %d, %d) vs (%d, %d, %d)" a.(0)
              a.(1) a.(2) b.(0) b.(1) b.(2));
      if Cache.l1_stats fast <> Cache_ref.l1_stats slow then
        fail "l1_stats differ";
      if Cache.l2_stats fast <> Cache_ref.l2_stats slow then
        fail "l2_stats differ";
      if Cache.back_invalidations fast <> Cache_ref.back_invalidations slow then
        fail "back_invalidations differ";
      if Cache.autolock_skips fast <> Cache_ref.autolock_skips slow then
        fail "autolock_skips differ";
      if Cache.state_digest fast <> Cache_ref.state_digest slow then
        fail "state digests differ";
      match Cache.invariant_violations fast with
      | [] -> ()
      | v :: _ -> fail "invariant: %s" v)
    ops;
  (Cache.footprint_replays fast, Cache_ref.coverage slow)

let prop_matches_reference =
  QCheck.Test.make ~name:"reference model differential" ~count:300
    QCheck.(
      quad (int_range 0 2) bool bool
        (make
           ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
           gen_ops))
    (fun (ki, autolock, pinnable, ops) ->
      let l2_ways = if pinnable then 4 else 8 in
      ignore
        (run_differential (List.nth Policy.all ki) ~autolock ~l2_ways ops);
      true)

let each_config ~l2_ways f =
  List.iter
    (fun policy ->
      List.iter
        (fun autolock -> List.iter (f policy ~autolock) l2_ways)
        [ false; true ])
    Policy.all

(* The property would pass vacuously if nothing ever replayed: on a fixed
   long stream every policy must take the replay path often. *)
let test_replay_path_taken () =
  let ops =
    QCheck.Gen.generate ~rand:(Random.State.make [| 42 |]) ~n:2000 gen_op
  in
  each_config ~l2_ways:[ 8 ] (fun policy ~autolock l2_ways ->
      let replays, _ = run_differential policy ~autolock ~l2_ways ops in
      if replays < 100 then
        Alcotest.failf "%s autolock=%b: only %d replays"
          (Policy.kind_to_string policy)
          autolock replays)

(* Nor may it pass because the streams miss a path of the fill code: on
   the fixed stream, every configuration reaches cold fills, L1 victims
   that own an inclusion bit and back-invalidations of the requester's own
   L1 set; with AutoLock on the pinnable L2 also reaches full-pin skips, L1
   victims without a bit (filled after a skip) and peer refills of a
   skipped line. *)
let test_streams_reach_every_path () =
  let ops =
    List.concat
      (QCheck.Gen.generate ~rand:(Random.State.make [| 42 |]) ~n:40 gen_ops)
  in
  each_config ~l2_ways:[ 8; 4 ] (fun policy ~autolock l2_ways ->
      let _, (cov : Cache_ref.coverage) =
        run_differential policy ~autolock ~l2_ways ops
      in
      let need name n =
        if n = 0 then
          Alcotest.failf "%s autolock=%b l2_ways=%d: no %s"
            (Policy.kind_to_string policy)
            autolock l2_ways name
      in
      need "cold fill" cov.cold_fills;
      need "inclusive L1 victim" cov.victims_inclusive;
      need "own-set back-invalidation" cov.own_set_back_invals;
      if autolock && l2_ways = 4 then begin
        need "non-inclusive L1 victim" cov.victims_non_inclusive;
        need "peer refill after a skip" cov.peer_refills
      end)

(* A hot re-dispatch replays; then a peer core's L2 eviction
   back-invalidates one footprint line, and the next dispatch must notice,
   walk again and miss on exactly that line. *)
let test_back_invalidation_forces_walk () =
  let c = two_core_cache ~autolock:false () in
  let addr = 1 lsl 27 and len = 8192 in
  let fp = Cache.footprint ~addr ~len in
  let lines = len / Cache.line_size c in
  Cache.touch_footprint c fp ~core:0;
  Alcotest.(check int) "cold dispatch walks" 0 (Cache.footprint_replays c);
  let hits0 = (Cache.l1_stats c).Cache.hits in
  Cache.touch_footprint c fp ~core:0;
  Alcotest.(check int) "hot dispatch replays" 1 (Cache.footprint_replays c);
  Alcotest.(check int) "all hits" (hits0 + lines) (Cache.l1_stats c).Cache.hits;
  let victim = addr + (5 * Cache.line_size c) in
  let evictor =
    Cache.eviction_set c
      ~l2_set:(Cache.l2_set_of_addr c ~addr:victim)
      ~base:(1 lsl 28)
  in
  Array.iter (fun a -> ignore (Cache.touch c ~core:1 ~addr:a)) evictor;
  Alcotest.(check int) "footprint line back-invalidated" 2
    (Cache.peek c ~core:0 ~addr:victim);
  let l1 = Cache.l1_stats c in
  Cache.touch_footprint c fp ~core:0;
  Alcotest.(check int) "no replay after the back-invalidation" 1
    (Cache.footprint_replays c);
  let l1' = Cache.l1_stats c in
  Alcotest.(check int) "exactly the lost line missed" (l1.Cache.misses + 1)
    l1'.Cache.misses;
  Alcotest.(check int) "the rest hit" (l1.Cache.hits + lines - 1)
    l1'.Cache.hits;
  Cache.touch_footprint c fp ~core:0;
  Alcotest.(check int) "re-recorded: replays again" 2
    (Cache.footprint_replays c)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_no_policy_evicts_just_touched;
    QCheck_alcotest.to_alcotest prop_plru_is_lru_at_two_ways;
    Alcotest.test_case "policy validation" `Quick test_policy_validate;
    Alcotest.test_case "touch levels and counters" `Quick
      test_touch_levels_and_counters;
    Alcotest.test_case "eviction set shape" `Quick test_eviction_set_shape;
    Alcotest.test_case "cross-core eviction, AutoLock off" `Quick
      test_cross_core_eviction_without_autolock;
    Alcotest.test_case "AutoLock pins cross-core eviction" `Quick
      test_autolock_pins_cross_core_eviction;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "cluster mapping" `Quick test_cluster_mapping;
    Alcotest.test_case "negative addresses rejected" `Quick
      test_negative_address;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "footprint replay path taken" `Quick
      test_replay_path_taken;
    Alcotest.test_case "reference streams reach every path" `Quick
      test_streams_reach_every_path;
    Alcotest.test_case "back-invalidation forces a footprint walk" `Quick
      test_back_invalidation_forces_walk;
  ]
