(* Shared boot image: every scenario in a process loads one read-only
   kernel image and enrolls against it, sharing its golden hashes and
   per-block digests. The copy-and-hash enroll path, taken by any range
   that is not an unwritten image slice, is the reference the shared path
   must equal. *)

module Scenario = Satin.Scenario
open Satin_engine
open Satin_hw
module Layout = Satin_kernel.Layout
module Area = Satin_introspect.Area
module Checker = Satin_introspect.Checker
module Hash = Satin_introspect.Hash
module Satin_def = Satin_introspect.Satin
module Runner = Satin_runner.Runner
module Kernel = Satin_kernel.Kernel
module Syscall_table = Satin_kernel.Syscall_table
module Rootkit = Satin_attack.Rootkit
module Injector = Satin_inject.Injector
module Fault_plan = Satin_inject.Fault_plan

let mib = 1024 * 1024

(* The image generator as it was before images were shared: a Buffer of
   little-endian PRNG draws cut to size, the syscall table written over
   it. *)
let reference_image layout ~seed =
  let size = Layout.total_size layout in
  let prng = Prng.create seed in
  let buf = Buffer.create size in
  while Buffer.length buf < size do
    Buffer.add_int64_le buf (Prng.next_int64 prng)
  done;
  let img = Bytes.of_string (String.sub (Buffer.contents buf) 0 size) in
  let tbl = Layout.syscall_table layout in
  for n = 0 to (tbl.Layout.sym_size / 8) - 1 do
    Bytes.set_int64_le img
      (tbl.Layout.sym_addr - Layout.base layout + (n * 8))
      (Int64.add 0xffff000008080000L (Int64.of_int (n * 0x400)))
  done;
  Bytes.to_string img

let kernel_bytes memory layout =
  Bytes.to_string
    (Memory.read_bytes memory ~world:World.Secure ~addr:(Layout.base layout)
       ~len:(Layout.total_size layout))

let test_image_matches_generator () =
  let s = Scenario.create ~seed:42 () in
  let layout = s.Scenario.kernel.Satin_kernel.Kernel.layout in
  Alcotest.(check bool) "paper image" true
    (String.equal
       (reference_image layout ~seed:0xBEEF)
       (kernel_bytes s.Scenario.platform.Platform.memory layout));
  (* A size that is not a multiple of 8 exercises the partial last word. *)
  let layout =
    Layout.synthetic ~base:4096 ~total_size:1_000_003 ~areas:7 ~seed:3
  in
  let memory = Memory.create ~size:(2 * mib) in
  ignore (Layout.install layout memory ~seed:5);
  Alcotest.(check bool) "synthetic image, odd size" true
    (String.equal (reference_image layout ~seed:5) (kernel_bytes memory layout))

(* The ranges the simulator enrolls: the 19 paper areas (SATIN), the whole
   kernel (the baseline checker) and the 2 MiB prefix the cache-channel
   experiment scans. *)
let ranges layout =
  let kbase = Layout.base layout and klen = Layout.total_size layout in
  List.map (fun a -> (a.Area.base, a.Area.size)) (Area.of_layout layout)
  @ [ (kbase, klen); (kbase, min klen (2 * mib)) ]

(* Start a scan of every range at once; [finish] runs until all verdicts
   are in. *)
let start_all platform checker ranges =
  let engine = platform.Platform.engine in
  let core = Platform.core platform 4 in
  List.map
    (fun (base, len) ->
      let v = ref None in
      ignore
        (Checker.start_scan checker ~engine ~core ~base ~len
           ~on_verdict:(fun x -> v := Some x));
      v)
    ranges

let finish platform verdicts =
  let engine = platform.Platform.engine in
  Engine.run_until engine (Sim_time.add (Engine.now engine) (Sim_time.ms 500));
  List.map
    (fun v ->
      match !v with
      | Some v -> (v.Checker.v_offsets, v.Checker.v_hash_observed)
      | None -> Alcotest.fail "verdict missing")
    verdicts

let verdicts_t = Alcotest.(list (pair (list int) int64))

let shared_equals_copy ~incremental =
  let name = if incremental then "incremental" else "full-rehash" in
  let s = Scenario.create ~seed:42 () in
  let layout = s.Scenario.kernel.Satin_kernel.Kernel.layout in
  let mem = s.Scenario.platform.Platform.memory in
  (* The reference: the same bytes written by hand into a platform that
     never loaded an image. *)
  let ref_platform = Platform.juno_r1 ~seed:42 () in
  let ref_mem = ref_platform.Platform.memory in
  Memory.write_string ref_mem ~world:World.Secure ~addr:(Layout.base layout)
    (kernel_bytes mem layout);
  let ref_checker =
    Checker.create ~memory:ref_mem ~cycle:ref_platform.Platform.cycle
      ~prng:(Platform.split_prng ref_platform) ()
  in
  let rs = ranges layout in
  List.iter
    (fun (base, len) ->
      Alcotest.(check bool) "scenario range is an image slice" true
        (Memory.image_slice mem ~addr:base ~len <> None);
      Alcotest.(check bool) "reference range is not" true
        (Memory.image_slice ref_mem ~addr:base ~len = None);
      Alcotest.(check int64)
        (name ^ " enroll hash")
        (Checker.enroll ref_checker ~base ~len)
        (Checker.enroll s.Scenario.checker ~base ~len))
    rs;
  let enrolled =
    List.map
      (fun (base, len) ->
        Option.get (Checker.enrolled_hash s.Scenario.checker ~base ~len))
      rs
  in
  (* 8 bytes mid-area, written identically on both sides. *)
  let spots =
    List.map (fun a -> a.Area.base + (a.Area.size / 2)) (Area.of_layout layout)
  in
  let saved =
    List.map
      (fun addr -> Memory.read_int64_le mem ~world:World.Normal ~addr)
      spots
  in
  let write_all values () =
    List.iter2
      (fun addr v ->
        Memory.write_int64_le mem ~world:World.Normal ~addr v;
        Memory.write_int64_le ref_mem ~world:World.Normal ~addr v)
      spots values
  in
  let tamper = write_all (List.map (fun _ -> 0x5a5a5a5a5a5a5a5aL) spots)
  and restore = write_all saved in
  (* One scan of every range on both sides; [during] runs as the scans
     start, while every spot is still ahead of the front. *)
  let phase label during =
    let got = start_all s.Scenario.platform s.Scenario.checker rs in
    let want = start_all ref_platform ref_checker rs in
    during ();
    let got = finish s.Scenario.platform got in
    let want = finish ref_platform want in
    Alcotest.check verdicts_t (name ^ " " ^ label) want got;
    got
  in
  let caught verdicts = List.for_all (fun (offs, _) -> offs <> []) verdicts
  and clean verdicts =
    List.for_all (fun (offs, _) -> offs = []) verdicts
    && List.map snd verdicts = enrolled
  in
  tamper ();
  Alcotest.(check bool) "tamper caught" true (caught (phase "tampered" ignore));
  restore ();
  Alcotest.(check bool) "restored clean" true (clean (phase "restored" ignore));
  Alcotest.(check bool) "restored ahead of the front: clean" true
    (clean
       (phase "tamper and restore ahead of the front" (fun () ->
            tamper ();
            restore ())));
  Alcotest.(check bool) "tamper ahead of the front caught" true
    (caught (phase "tamper ahead of the front" tamper));
  restore ()

(* Both scan paths read the golden content: the incremental one and the
   full re-hash reference. *)
let test_shared_equals_copy () =
  List.iter
    (fun incremental ->
      Satin_introspect.Incremental.with_enabled incremental (fun () ->
          shared_equals_copy ~incremental))
    [ true; false ]

let test_tampered_before_enroll () =
  let layout = Layout.paper_layout () in
  let area14 = List.nth (Area.of_layout layout) 14 in
  let base = area14.Area.base and len = area14.Area.size in
  let enroll s = Checker.enroll s.Scenario.checker ~base ~len in
  let pristine = enroll (Scenario.create ~seed:1 ()) in
  let s = Scenario.create ~seed:2 () in
  let mem = s.Scenario.platform.Platform.memory in
  let entry =
    (Layout.syscall_table layout).Layout.sym_addr + (8 * Layout.gettid_nr)
  in
  let saved = Memory.read_int64_le mem ~world:World.Normal ~addr:entry in
  Memory.write_int64_le mem ~world:World.Normal ~addr:entry 0xdeadbeefL;
  Alcotest.(check bool) "tampered area is no image slice" true
    (Memory.image_slice mem ~addr:base ~len = None);
  let a0 = List.hd (Area.of_layout layout) in
  Alcotest.(check bool) "untouched area still is" true
    (Memory.image_slice mem ~addr:a0.Area.base ~len:a0.Area.size <> None);
  let tampered = enroll s in
  Alcotest.(check int64) "copy path hashes the live bytes"
    (Hash.hash_region mem ~world:World.Secure ~addr:base ~len)
    tampered;
  Alcotest.(check bool) "tampered hash differs" true (tampered <> pristine);
  Alcotest.(check int64) "next fresh scenario enrolls the pristine hash"
    pristine
    (enroll (Scenario.create ~seed:3 ()));
  (* Rewriting the original bytes stamps the page: the copy path runs and
     still finds the pristine hash. *)
  Memory.write_int64_le mem ~world:World.Normal ~addr:entry saved;
  Alcotest.(check bool) "restored area takes the copy path" true
    (Memory.image_slice mem ~addr:base ~len = None);
  Alcotest.(check int64) "restored area enrolls the pristine hash" pristine
    (enroll s)

(* Images of two content seeds at one address share a key of the golden
   table, never its entry: each enroll must hash its own image. *)
let test_images_keep_their_golds () =
  let layout =
    Layout.synthetic ~base:4096 ~total_size:1_000_003 ~areas:7 ~seed:3
  in
  let base = Layout.base layout and len = Layout.total_size layout in
  List.iter
    (fun seed ->
      let platform = Platform.juno_r1 ~seed:1 () in
      let memory = platform.Platform.memory in
      ignore (Layout.install layout memory ~seed);
      let checker =
        Checker.create ~memory ~cycle:platform.Platform.cycle
          ~prng:(Platform.split_prng platform) ()
      in
      Alcotest.(check int64)
        (Printf.sprintf "content seed %d" seed)
        (Hash.hash_region memory ~world:World.Secure ~addr:base ~len)
        (Checker.enroll checker ~base ~len))
    [ 5; 6; 5 ]

(* Independent of host speed: after a warm-up, building a scenario and
   installing SATIN allocates a page table and the pages the build writes,
   not 32 MiB of DRAM, a copy of the image or golden copies, whether the
   build is bracketed or not. Words are counted as the minor words
   allocated plus the words the major heap gained other than by
   promotion: on OCaml 5.1, [Gc.allocated_bytes] misses part of the minor
   allocation and jumps by up to a minor heap when a collection falls
   inside the measured build. *)
let test_build_allocation () =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let allocated build =
    build ();
    let before = words () in
    build ();
    (words () -. before) *. float_of_int (Sys.word_size / 8) /. float_of_int mib
  in
  let check what build =
    let mib = allocated build in
    if mib > 2.0 then
      Alcotest.failf "%s allocated %.1f MiB (ceiling 2)" what mib
  in
  check "warm create + install_satin" (fun () ->
      ignore (Scenario.install_satin (Scenario.create ~seed:42 ()) ()));
  check "warm create + install_satin inside with_" (fun () ->
      Scenario.with_ ~seed:42 (fun s -> ignore (Scenario.install_satin s ())))

(* Every scenario's unwritten image pages alias the process's one image
   string. A rootkit write, injected bit flips and a syscall-table write
   into one scenario's image land in that scenario's own copies of the
   pages they touch: the image keeps its bytes, and a scenario booted
   afterwards enrolls the pristine hashes and scans clean. *)
let test_image_never_written () =
  let layout = Layout.paper_layout () in
  let kbase = Layout.base layout and klen = Layout.total_size layout in
  let image s =
    match
      Memory.image_slice s.Scenario.platform.Platform.memory ~addr:kbase
        ~len:klen
    with
    | Some (src, 0) -> src
    | _ -> Alcotest.fail "the kernel is not an unwritten image slice"
  in
  let s = Scenario.create ~seed:7 () in
  let src = image s in
  let digest = Digest.string src in
  let mem = s.Scenario.platform.Platform.memory in
  let rootkit = Rootkit.create s.Scenario.kernel ~cleanup_core:0 () in
  Rootkit.arm rootkit;
  Syscall_table.write_entry s.Scenario.kernel.Kernel.syscalls
    ~world:World.Normal 1 0xdeadbeefL;
  let injector =
    Injector.install
      ~plan:(Fault_plan.Flip_kernel_bits { period = Sim_time.ms 1; flips = 4 })
      ~seed:3 ~platform:s.Scenario.platform ~kernel:s.Scenario.kernel
      ~areas:(Area.of_layout layout)
  in
  Scenario.run_for s (Sim_time.ms 20);
  Alcotest.(check bool) "the hijack landed" true (Rootkit.hijacked_now rootkit);
  Alcotest.(check bool) "bits flipped" true (Injector.flip_sites injector <> []);
  Alcotest.(check bool) "the scenario's kernel differs from the image" true
    (Hash.hash_region mem ~world:World.Secure ~addr:kbase ~len:klen
    <> Hash.hash_string src);
  Alcotest.(check string) "the image keeps its bytes" (Digest.to_hex digest)
    (Digest.to_hex (Digest.string src));
  Alcotest.(check bool) "the image equals the reference generator" true
    (String.equal src (reference_image layout ~seed:0xBEEF));
  let s = Scenario.create ~seed:8 () in
  Alcotest.(check bool) "the next boot aliases the same image" true
    (image s == src);
  let rs = ranges layout in
  List.iter
    (fun (base, len) ->
      Alcotest.(check int64) "pristine enroll hash"
        (Hash.hash_sub (Bytes.unsafe_of_string src) ~off:(base - kbase) ~len)
        (Checker.enroll s.Scenario.checker ~base ~len))
    rs;
  let verdicts =
    finish s.Scenario.platform
      (start_all s.Scenario.platform s.Scenario.checker rs)
  in
  List.iter2
    (fun (base, len) (offsets, observed) ->
      Alcotest.(check (list int)) "clean scan" [] offsets;
      Alcotest.(check (option int64)) "observed = enrolled"
        (Checker.enrolled_hash s.Scenario.checker ~base ~len)
        (Some observed))
    rs verdicts

(* A scenario that escapes its bracket is dead: its memory may already
   back the next scenario, so running it raises, whether the body returned
   or raised. *)
let test_leaked_scenario_raises () =
  let leaked = ref None in
  let leak s =
    leaked := Some s;
    Scenario.run_for s (Sim_time.ms 1)
  in
  let run_leaked () = Scenario.run_for (Option.get !leaked) (Sim_time.ms 1) in
  Scenario.with_ ~seed:1 leak;
  Alcotest.check_raises "after return" Memory.Released run_leaked;
  Alcotest.check_raises "the body's exception passes through" Exit (fun () ->
      Scenario.with_ ~seed:2 (fun s ->
          leak s;
          raise Exit));
  Alcotest.check_raises "after raise" Memory.Released run_leaked

(* Four domains boot and enroll concurrently. The layout is booted by no
   other test, so both memos start cold and the domains contend on their
   first misses. Each trial is bracketed, so a domain's later trials boot
   on the memory its earlier ones released. *)
let test_parallel_builds () =
  let layout =
    Layout.synthetic ~base:(2 * mib) ~total_size:((3 * mib) + 13) ~areas:19
      ~seed:1515
  in
  let trial i =
    Scenario.with_ ~seed:i ~layout @@ fun s ->
    let satin = Scenario.install_satin s () in
    List.map
      (fun a ->
        Option.get
          (Checker.enrolled_hash s.Scenario.checker ~base:a.Area.base
             ~len:a.Area.size))
      (Satin_def.areas satin)
  in
  let par = Runner.map (Runner.create ~clamp:false ~jobs:4 ()) 8 trial in
  let seq = Runner.map Runner.sequential 8 trial in
  Array.iteri
    (fun i hashes ->
      Alcotest.(check int) "19 areas" 19 (List.length hashes);
      Alcotest.(check (list int64))
        (Printf.sprintf "trial %d area hashes" i)
        seq.(i) hashes)
    par

let suite =
  [
    Alcotest.test_case "image equals the reference generator" `Quick
      test_image_matches_generator;
    Alcotest.test_case "shared enroll equals copy enroll" `Quick
      test_shared_equals_copy;
    Alcotest.test_case "tampered before enroll takes the copy path" `Quick
      test_tampered_before_enroll;
    Alcotest.test_case "images keep their own golds" `Quick
      test_images_keep_their_golds;
    Alcotest.test_case "warm build allocation ceiling" `Quick
      test_build_allocation;
    Alcotest.test_case "writes never reach the shared image" `Quick
      test_image_never_written;
    Alcotest.test_case "leaked scenario raises" `Quick
      test_leaked_scenario_raises;
    Alcotest.test_case "parallel builds equal sequential" `Quick
      test_parallel_builds;
  ]
