(* Scan-front race semantics: the heart of the reproduction. *)

open Satin_introspect
open Satin_hw
open Satin_engine

let setup () =
  let platform = Platform.juno_r1 ~seed:17 () in
  let memory = platform.Platform.memory in
  (* A 1 MB test region filled with a pattern. *)
  let base = 4 * 1024 * 1024 and len = 1_000_000 in
  let pattern = String.init 4096 (fun i -> Char.chr (i land 0xff)) in
  for block = 0 to (len / 4096) - 1 do
    Memory.write_string memory ~world:World.Secure ~addr:(base + (block * 4096)) pattern
  done;
  let checker =
    Checker.create ~memory ~cycle:platform.Platform.cycle
      ~prng:(Platform.split_prng platform) ()
  in
  platform, checker, base, len

let scan platform checker ~base ~len ~verdict =
  let core = Platform.core platform 4 (* A57 *) in
  Checker.start_scan checker ~engine:platform.Platform.engine ~core ~base ~len
    ~on_verdict:(fun v -> verdict := Some v)

let run platform d =
  Engine.run_until platform.Platform.engine
    (Sim_time.add (Engine.now platform.Platform.engine) d)

let test_enroll_required () =
  let platform, checker, base, len = setup () in
  let verdict = ref None in
  try
    ignore (scan platform checker ~base ~len ~verdict);
    Alcotest.fail "unenrolled scan accepted"
  with Invalid_argument _ -> ()

let test_clean_scan () =
  let platform, checker, base, len = setup () in
  let enrolled = Checker.enroll checker ~base ~len in
  let verdict = ref None in
  let duration = scan platform checker ~base ~len ~verdict in
  (* Duration within the A57 hash calibration. *)
  let per_byte = Sim_time.to_sec_f duration /. float_of_int len in
  if per_byte < 6.5e-9 || per_byte > 7.6e-9 then
    Alcotest.failf "scan rate out of calibration: %g" per_byte;
  Alcotest.(check bool) "no verdict before scan end" true (!verdict = None);
  run platform (Sim_time.ms 20);
  match !verdict with
  | Some v ->
      Alcotest.(check bool) "clean" false v.Checker.v_tampered;
      Alcotest.(check (list int)) "no offsets" [] v.Checker.v_offsets;
      Alcotest.(check int64) "hash matches" enrolled v.Checker.v_hash_observed
  | None -> Alcotest.fail "verdict missing"

let test_static_tamper_detected () =
  let platform, checker, base, len = setup () in
  ignore (Checker.enroll checker ~base ~len);
  (* Modify 8 bytes in the middle, never restore. *)
  Memory.write_string platform.Platform.memory ~world:World.Normal
    ~addr:(base + 500_000) "\xde\xad\xbe\xef\xde\xad\xbe\xef";
  let verdict = ref None in
  ignore (scan platform checker ~base ~len ~verdict);
  run platform (Sim_time.ms 20);
  match !verdict with
  | Some v ->
      Alcotest.(check bool) "tampered" true v.Checker.v_tampered;
      Alcotest.(check (list int)) "offsets"
        [ 500_000; 500_001; 500_002; 500_003; 500_004; 500_005; 500_006; 500_007 ]
        v.Checker.v_offsets;
      Alcotest.(check bool) "hash differs" false
        (Int64.equal v.Checker.v_hash_expected v.Checker.v_hash_observed)
  | None -> Alcotest.fail "verdict missing"

let test_restore_before_front_evades () =
  let platform, checker, base, len = setup () in
  ignore (Checker.enroll checker ~base ~len);
  let addr = base + 900_000 in
  let original =
    Bytes.to_string
      (Memory.read_bytes platform.Platform.memory ~world:World.Normal ~addr ~len:8)
  in
  Memory.write_string platform.Platform.memory ~world:World.Normal ~addr
    "\xde\xad\xbe\xef\xde\xad\xbe\xef";
  let verdict = ref None in
  ignore (scan platform checker ~base ~len ~verdict);
  (* The front needs ~6 ms to reach offset 900,000 on an A57; restore well
     before that. *)
  ignore
    (Engine.schedule platform.Platform.engine ~after:(Sim_time.ms 1) (fun () ->
         Memory.write_string platform.Platform.memory ~world:World.Normal ~addr
           original));
  run platform (Sim_time.ms 20);
  match !verdict with
  | Some v ->
      Alcotest.(check bool) "evaded (TOCTTOU)" false v.Checker.v_tampered;
      Alcotest.(check int64) "hash clean again" v.Checker.v_hash_expected
        v.Checker.v_hash_observed
  | None -> Alcotest.fail "verdict missing"

let test_restore_after_front_caught () =
  let platform, checker, base, len = setup () in
  ignore (Checker.enroll checker ~base ~len);
  let addr = base + 100_000 in
  let original =
    Bytes.to_string
      (Memory.read_bytes platform.Platform.memory ~world:World.Normal ~addr ~len:8)
  in
  Memory.write_string platform.Platform.memory ~world:World.Normal ~addr
    "\xde\xad\xbe\xef\xde\xad\xbe\xef";
  let verdict = ref None in
  ignore (scan platform checker ~base ~len ~verdict);
  (* Front passes offset 100,000 at ~0.7 ms; restore at 2 ms — too late,
     even though the content is pristine by scan end. *)
  ignore
    (Engine.schedule platform.Platform.engine ~after:(Sim_time.ms 2) (fun () ->
         Memory.write_string platform.Platform.memory ~world:World.Normal ~addr
           original));
  run platform (Sim_time.ms 20);
  match !verdict with
  | Some v ->
      Alcotest.(check bool) "caught despite restore" true v.Checker.v_tampered;
      Alcotest.(check int) "all 8 bytes flagged" 8 (List.length v.Checker.v_offsets);
      (* Final content is clean, so the observed hash matches: the paper's
         point that snapshot-free detection must catch it in flight. *)
      Alcotest.(check int64) "end-of-scan hash clean" v.Checker.v_hash_expected
        v.Checker.v_hash_observed
  | None -> Alcotest.fail "verdict missing"

let test_write_ahead_of_front_caught () =
  let platform, checker, base, len = setup () in
  ignore (Checker.enroll checker ~base ~len);
  let verdict = ref None in
  ignore (scan platform checker ~base ~len ~verdict);
  (* Dirty a byte ahead of the front mid-scan and leave it. *)
  ignore
    (Engine.schedule platform.Platform.engine ~after:(Sim_time.ms 1) (fun () ->
         Memory.write_byte platform.Platform.memory ~world:World.Normal
           ~addr:(base + 800_000) 0xEE));
  run platform (Sim_time.ms 20);
  match !verdict with
  | Some v ->
      Alcotest.(check bool) "caught" true v.Checker.v_tampered;
      Alcotest.(check (list int)) "offset" [ 800_000 ] v.Checker.v_offsets
  | None -> Alcotest.fail "verdict missing"

let test_write_behind_front_missed () =
  let platform, checker, base, len = setup () in
  ignore (Checker.enroll checker ~base ~len);
  let verdict = ref None in
  ignore (scan platform checker ~base ~len ~verdict);
  (* Dirty a byte the front has already passed: invisible to this round. *)
  ignore
    (Engine.schedule platform.Platform.engine ~after:(Sim_time.ms 5) (fun () ->
         Memory.write_byte platform.Platform.memory ~world:World.Normal
           ~addr:(base + 1_000) 0xEE));
  run platform (Sim_time.ms 20);
  (match !verdict with
  | Some v -> Alcotest.(check bool) "missed this round" false v.Checker.v_tampered
  | None -> Alcotest.fail "verdict missing");
  (* The next round catches it. *)
  let verdict2 = ref None in
  ignore (scan platform checker ~base ~len ~verdict:verdict2);
  run platform (Sim_time.ms 20);
  match !verdict2 with
  | Some v ->
      Alcotest.(check bool) "caught next round" true v.Checker.v_tampered
  | None -> Alcotest.fail "second verdict missing"

let test_counters () =
  let platform, checker, base, len = setup () in
  ignore (Checker.enroll checker ~base ~len);
  let verdict = ref None in
  ignore (scan platform checker ~base ~len ~verdict);
  run platform (Sim_time.ms 20);
  Memory.write_byte platform.Platform.memory ~world:World.Normal ~addr:(base + 5) 0x77;
  ignore (scan platform checker ~base ~len ~verdict);
  run platform (Sim_time.ms 20);
  Alcotest.(check int) "scans" 2 (Checker.scans_started checker);
  Alcotest.(check int) "tampered verdicts" 1 (Checker.tampered_verdicts checker)

let test_enrolled_hash_lookup () =
  let _, checker, base, len = setup () in
  Alcotest.(check bool) "absent before enroll" true
    (Checker.enrolled_hash checker ~base ~len = None);
  let h = Checker.enroll checker ~base ~len in
  Alcotest.(check (option int64)) "present after" (Some h)
    (Checker.enrolled_hash checker ~base ~len)

(* Property: for a single tampered byte restored at time T, the verdict
   matches the closed-form race predicate — tampered iff the scan front
   passes the byte before the restore lands. *)
let prop_race_predicate =
  QCheck.Test.make ~name:"verdict = (pass time < restore time)" ~count:60
    QCheck.(pair (int_bound 999_999) (int_bound 9_000))
    (fun (offset, restore_us) ->
      let platform, checker, base, len = setup () in
      ignore (Checker.enroll checker ~base ~len);
      let addr = base + offset in
      let original = Memory.read_byte platform.Platform.memory ~world:World.Normal ~addr in
      Memory.write_byte platform.Platform.memory ~world:World.Normal ~addr
        ((original + 1) land 0xff);
      let verdict = ref None in
      let duration = scan platform checker ~base ~len ~verdict in
      let rate = Sim_time.to_sec_f duration /. float_of_int len in
      let pass_s = rate *. float_of_int offset in
      let restore_s = float_of_int restore_us *. 1e-6 in
      ignore
        (Engine.schedule platform.Platform.engine
           ~after:(Sim_time.of_sec_f restore_s) (fun () ->
             Memory.write_byte platform.Platform.memory ~world:World.Normal ~addr
               original));
      run platform (Sim_time.ms 30);
      match !verdict with
      | Some v ->
          (* Ties (equal instants) may go either way through event ordering;
             skip the knife edge. *)
          Float.abs (pass_s -. restore_s) < 2e-7
          || Bool.equal v.Checker.v_tampered (pass_s < restore_s)
      | None -> false)

let suite =
  [
    Alcotest.test_case "enroll required" `Quick test_enroll_required;
    Alcotest.test_case "clean scan" `Quick test_clean_scan;
    Alcotest.test_case "static tamper detected" `Quick test_static_tamper_detected;
    Alcotest.test_case "restore before front evades" `Quick test_restore_before_front_evades;
    Alcotest.test_case "restore after front caught" `Quick test_restore_after_front_caught;
    Alcotest.test_case "write ahead of front caught" `Quick test_write_ahead_of_front_caught;
    Alcotest.test_case "write behind front missed" `Quick test_write_behind_front_missed;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "enrolled hash lookup" `Quick test_enrolled_hash_lookup;
    QCheck_alcotest.to_alcotest prop_race_predicate;
  ]
