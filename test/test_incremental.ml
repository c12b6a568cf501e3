(* Incremental scan hashing: the cached-block fast path must be
   observationally identical to a full re-hash — same verdicts, same
   caught offsets, same observed hashes — under any interleaving of
   writes, restores, and scans. The only permitted difference is host
   work, which we check via the rehash counters. *)

open Satin_introspect
open Satin_hw
open Satin_engine

let ps = Memory.gen_page_size

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let pattern_byte off = (off * 131) land 0xff

let setup ?(seed = 23) ?(len = (16 * ps) + 123) () =
  let platform = Platform.juno_r1 ~seed () in
  let memory = platform.Platform.memory in
  let base = 4 * 1024 * 1024 in
  let block = Bytes.create 256 in
  for off0 = 0 to (len - 1) / 256 do
    let n = min 256 (len - (off0 * 256)) in
    for j = 0 to n - 1 do
      Bytes.set block j (Char.chr (pattern_byte ((off0 * 256) + j)))
    done;
    Memory.write_string memory ~world:World.Secure ~addr:(base + (off0 * 256))
      (Bytes.sub_string block 0 n)
  done;
  let checker =
    Checker.create ~memory ~cycle:platform.Platform.cycle
      ~prng:(Platform.split_prng platform) ()
  in
  (platform, checker, base, len)

let scan platform checker ~base ~len ~verdicts =
  let core = Platform.core platform 4 in
  ignore
    (Checker.start_scan checker ~engine:platform.Platform.engine ~core ~base
       ~len ~on_verdict:(fun v -> verdicts := v :: !verdicts))

let run_ms platform ms =
  Engine.run_until platform.Platform.engine
    (Sim_time.add (Engine.now platform.Platform.engine) (Sim_time.ms ms))

(* ------------------------------------------------------------------ *)
(* Toggle semantics                                                    *)
(* ------------------------------------------------------------------ *)

let test_toggle () =
  Alcotest.(check bool) "incremental is the default" true
    (Incremental.enabled ());
  Incremental.with_enabled false (fun () ->
      Alcotest.(check bool) "disabled in scope" false (Incremental.enabled ()));
  Alcotest.(check bool) "restored" true (Incremental.enabled ());
  (try
     Incremental.with_enabled false (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored on exception" true (Incremental.enabled ())

(* ------------------------------------------------------------------ *)
(* Caching behaviour (counters)                                        *)
(* ------------------------------------------------------------------ *)

let test_quiescent_rescan_all_cached () =
  let platform, checker, base, len = setup () in
  let enrolled = Checker.enroll checker ~base ~len in
  let verdicts = ref [] in
  scan platform checker ~base ~len ~verdicts;
  run_ms platform 20;
  let r1 = Checker.blocks_rehashed checker in
  Alcotest.(check bool) "first scan rehashes" true (r1 > 0);
  scan platform checker ~base ~len ~verdicts;
  run_ms platform 20;
  Alcotest.(check int) "quiescent rescan rehashes nothing" r1
    (Checker.blocks_rehashed checker);
  Alcotest.(check bool) "rescan served from cache" true
    (Checker.blocks_cached checker > 0);
  match !verdicts with
  | [ v2; v1 ] ->
      Alcotest.(check bool) "scan 1 clean" false v1.Checker.v_tampered;
      Alcotest.(check bool) "scan 2 clean" false v2.Checker.v_tampered;
      Alcotest.(check int64) "hash 1" enrolled v1.Checker.v_hash_observed;
      Alcotest.(check int64) "hash 2" enrolled v2.Checker.v_hash_observed
  | _ -> Alcotest.fail "expected two verdicts"

let test_dirty_rescan_rehashes_only_touched () =
  let platform, checker, base, len = setup () in
  ignore (Checker.enroll checker ~base ~len);
  let verdicts = ref [] in
  scan platform checker ~base ~len ~verdicts;
  run_ms platform 20;
  let r1 = Checker.blocks_rehashed checker in
  (* Dirty exactly one page, with a persistent modification. *)
  Memory.write_string platform.Platform.memory ~world:World.Normal
    ~addr:(base + (3 * ps) + 17) "\xde\xad";
  scan platform checker ~base ~len ~verdicts;
  run_ms platform 20;
  let delta = Checker.blocks_rehashed checker - r1 in
  (* The touched block is re-examined by the dirty-range pass and again by
     the verdict hash; anything near r1 means caching broke. *)
  Alcotest.(check bool) "only the touched block re-hashed" true
    (delta >= 1 && delta <= 4);
  match !verdicts with
  | [ v2; _ ] ->
      Alcotest.(check bool) "tamper caught" true v2.Checker.v_tampered;
      Alcotest.(check (list int)) "offsets exact"
        [ (3 * ps) + 17; (3 * ps) + 18 ]
        v2.Checker.v_offsets
  | _ -> Alcotest.fail "expected two verdicts"

let test_tamper_restore_roundtrip () =
  let platform, checker, base, len = setup () in
  let enrolled = Checker.enroll checker ~base ~len in
  let addr = base + (7 * ps) + 200 in
  let original =
    Bytes.to_string
      (Memory.read_bytes platform.Platform.memory ~world:World.Normal ~addr
         ~len:4)
  in
  Memory.write_string platform.Platform.memory ~world:World.Normal ~addr
    "\x01\x02\x03\x04";
  Memory.write_string platform.Platform.memory ~world:World.Normal ~addr
    original;
  let verdicts = ref [] in
  scan platform checker ~base ~len ~verdicts;
  run_ms platform 20;
  match !verdicts with
  | [ v ] ->
      Alcotest.(check bool) "restored before scan: clean" false
        v.Checker.v_tampered;
      Alcotest.(check int64) "hash matches enrolled" enrolled
        v.Checker.v_hash_observed
  | _ -> Alcotest.fail "expected one verdict"

(* ------------------------------------------------------------------ *)
(* Differential properties: incremental == full re-hash                *)
(* ------------------------------------------------------------------ *)

type op = Tamper of int | Restore of int

(* Replay one generated trace — three scans with writes and restores
   interleaved at generated sim-times — and collect every observable:
   verdict flags, caught offsets, observed/expected hashes, in order. *)
let run_scan_trace ~incremental ops =
  Incremental.with_enabled incremental (fun () ->
      let platform, checker, base, len = setup () in
      ignore (Checker.enroll checker ~base ~len);
      let memory = platform.Platform.memory in
      let verdicts = ref [] in
      scan platform checker ~base ~len ~verdicts;
      List.iter
        (fun (ms, op) ->
          ignore
            (Engine.schedule platform.Platform.engine
               ~after:(Sim_time.us (ms * 100)) (fun () ->
                 match op with
                 | Tamper off ->
                     Memory.write_string memory ~world:World.Normal
                       ~addr:(base + off) "\xde\xad\xbe\xef"
                 | Restore off ->
                     for j = 0 to 3 do
                       Memory.write_byte memory ~world:World.Normal
                         ~addr:(base + off + j)
                         (pattern_byte (off + j))
                     done)))
        ops;
      run_ms platform 20;
      scan platform checker ~base ~len ~verdicts;
      run_ms platform 20;
      scan platform checker ~base ~len ~verdicts;
      run_ms platform 20;
      List.rev_map
        (fun v ->
          ( v.Checker.v_tampered,
            v.Checker.v_offsets,
            v.Checker.v_hash_observed,
            v.Checker.v_hash_expected ))
        !verdicts)

let trace_gen =
  QCheck.Gen.(
    let len = (16 * ps) + 123 in
    let op =
      pair (int_bound 80)
        (map2
           (fun restore off -> if restore then Restore off else Tamper off)
           bool
           (int_bound (len - 5)))
    in
    list_size (int_range 0 12) op)

let prop_scan_differential =
  QCheck.Test.make ~count:25
    ~name:"incremental scans == full re-hash (verdicts, offsets, hashes)"
    (QCheck.make trace_gen)
    (fun ops ->
      run_scan_trace ~incremental:true ops
      = run_scan_trace ~incremental:false ops)

let suite =
  [
    Alcotest.test_case "toggle semantics" `Quick test_toggle;
    Alcotest.test_case "quiescent rescan all cached" `Quick
      test_quiescent_rescan_all_cached;
    Alcotest.test_case "dirty rescan rehashes only touched" `Quick
      test_dirty_rescan_rehashes_only_touched;
    Alcotest.test_case "tamper/restore roundtrip" `Quick
      test_tamper_restore_roundtrip;
    QCheck_alcotest.to_alcotest prop_scan_differential;
  ]
