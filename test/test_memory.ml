open Satin_hw

let make () =
  let m = Memory.create ~size:4096 in
  let _ =
    Memory.add_region m ~name:"ns" ~base:0 ~size:1024
      ~security:Memory.Non_secure_region
  in
  let _ =
    Memory.add_region m ~name:"sec" ~base:1024 ~size:1024
      ~security:Memory.Secure_region
  in
  m

let test_rw_roundtrip () =
  let m = make () in
  Memory.write_byte m ~world:World.Normal ~addr:10 0xAB;
  Alcotest.(check int) "read back" 0xAB (Memory.read_byte m ~world:World.Normal ~addr:10);
  Memory.write_byte m ~world:World.Secure ~addr:1030 0xCD;
  Alcotest.(check int) "secure read back" 0xCD
    (Memory.read_byte m ~world:World.Secure ~addr:1030)

let test_byte_masking () =
  let m = make () in
  Memory.write_byte m ~world:World.Normal ~addr:0 0x1FF;
  Alcotest.(check int) "masked to byte" 0xFF (Memory.read_byte m ~world:World.Normal ~addr:0)

let test_normal_cannot_touch_secure () =
  let m = make () in
  let expect_violation f =
    try
      f ();
      Alcotest.fail "expected Access_violation"
    with Memory.Access_violation { region; _ } ->
      Alcotest.(check string) "region named" "sec" region
  in
  expect_violation (fun () ->
      ignore (Memory.read_byte m ~world:World.Normal ~addr:1500));
  expect_violation (fun () -> Memory.write_byte m ~world:World.Normal ~addr:1500 1);
  expect_violation (fun () ->
      ignore (Memory.read_bytes m ~world:World.Normal ~addr:1000 ~len:100));
  expect_violation (fun () ->
      Memory.write_string m ~world:World.Normal ~addr:1020 "12345678")

let test_secure_can_touch_everything () =
  let m = make () in
  Memory.write_byte m ~world:World.Secure ~addr:10 1;
  Memory.write_byte m ~world:World.Secure ~addr:1500 2;
  Alcotest.(check int) "ns" 1 (Memory.read_byte m ~world:World.Secure ~addr:10);
  Alcotest.(check int) "sec" 2 (Memory.read_byte m ~world:World.Secure ~addr:1500)

let test_unmapped_is_non_secure () =
  let m = make () in
  Memory.write_byte m ~world:World.Normal ~addr:3000 7;
  Alcotest.(check int) "plain dram" 7 (Memory.read_byte m ~world:World.Normal ~addr:3000)

let test_bad_address () =
  let m = make () in
  Alcotest.check_raises "negative" (Memory.Bad_address (-1)) (fun () ->
      ignore (Memory.read_byte m ~world:World.Secure ~addr:(-1)));
  Alcotest.check_raises "beyond end" (Memory.Bad_address 4096) (fun () ->
      ignore (Memory.read_byte m ~world:World.Secure ~addr:4096))

let test_region_overlap_rejected () =
  let m = make () in
  (try
     ignore
       (Memory.add_region m ~name:"bad" ~base:512 ~size:1024
          ~security:Memory.Non_secure_region);
     Alcotest.fail "expected overlap rejection"
   with Invalid_argument _ -> ())

let test_region_of_addr () =
  let m = make () in
  (match Memory.region_of_addr m 1100 with
  | Some r -> Alcotest.(check string) "secure region" "sec" r.Memory.name
  | None -> Alcotest.fail "missing region");
  Alcotest.(check bool) "unmapped" true (Memory.region_of_addr m 3000 = None)

let test_regions_sorted () =
  let m = make () in
  Alcotest.(check (list string)) "sorted by base" [ "ns"; "sec" ]
    (List.map (fun r -> r.Memory.name) (Memory.regions m))

let test_write_string_and_read_bytes () =
  let m = make () in
  Memory.write_string m ~world:World.Normal ~addr:100 "hello";
  Alcotest.(check string) "snapshot" "hello"
    (Bytes.to_string (Memory.read_bytes m ~world:World.Normal ~addr:100 ~len:5))

let test_fold_range () =
  let m = make () in
  Memory.write_string m ~world:World.Normal ~addr:0 "\x01\x02\x03";
  let sum =
    Memory.fold_range m ~world:World.Normal ~addr:0 ~len:3 ~init:0 ~f:( + )
  in
  Alcotest.(check int) "fold sum" 6 sum

let test_range_straddling_secure_rejected () =
  let m = make () in
  (* Range starting in ns memory but crossing into the secure region. *)
  try
    ignore (Memory.read_bytes m ~world:World.Normal ~addr:1000 ~len:48);
    Alcotest.fail "expected violation"
  with Memory.Access_violation _ -> ()

let test_blit_within () =
  let m = make () in
  Memory.write_string m ~world:World.Normal ~addr:0 "abcd";
  Memory.blit_within m ~world:World.Normal ~src:0 ~dst:100 ~len:4;
  Alcotest.(check string) "copied" "abcd"
    (Bytes.to_string (Memory.read_bytes m ~world:World.Normal ~addr:100 ~len:4))

let test_write_watcher () =
  let m = make () in
  let hits = ref [] in
  let w = Memory.add_write_watcher m (fun ~addr ~len -> hits := (addr, len) :: !hits) in
  Memory.write_byte m ~world:World.Normal ~addr:5 1;
  Memory.write_string m ~world:World.Normal ~addr:10 "xy";
  Alcotest.(check (list (pair int int))) "watched" [ (5, 1); (10, 2) ] (List.rev !hits);
  Memory.remove_write_watcher m w;
  Memory.write_byte m ~world:World.Normal ~addr:5 2;
  Alcotest.(check int) "removed watcher silent" 2 (List.length !hits)

let test_watcher_not_fired_on_read () =
  let m = make () in
  let hits = ref 0 in
  ignore (Memory.add_write_watcher m (fun ~addr:_ ~len:_ -> incr hits));
  ignore (Memory.read_bytes m ~world:World.Normal ~addr:0 ~len:16);
  Alcotest.(check int) "reads silent" 0 !hits

let test_int64_roundtrip_and_watcher () =
  let m = make () in
  let hits = ref [] in
  ignore (Memory.add_write_watcher m (fun ~addr ~len -> hits := (addr, len) :: !hits));
  Memory.write_int64_le m ~world:World.Normal ~addr:16 0x1122334455667788L;
  Alcotest.(check int64) "read back" 0x1122334455667788L
    (Memory.read_int64_le m ~world:World.Normal ~addr:16);
  (* Little-endian: the low byte lands first. *)
  Alcotest.(check int) "low byte at addr" 0x88
    (Memory.read_byte m ~world:World.Normal ~addr:16);
  Alcotest.(check int) "high byte at addr+7" 0x11
    (Memory.read_byte m ~world:World.Normal ~addr:23);
  Alcotest.(check (list (pair int int))) "watcher saw one 8-byte write"
    [ (16, 8) ] !hits

let test_int64_access_checks () =
  let m = make () in
  (* The whole 8-byte range is validated, not just the first byte: a word
     starting in ns memory but ending in the secure region must trap. *)
  (try
     Memory.write_int64_le m ~world:World.Normal ~addr:1020 1L;
     Alcotest.fail "expected Access_violation"
   with Memory.Access_violation _ -> ());
  (try
     ignore (Memory.read_int64_le m ~world:World.Normal ~addr:1020);
     Alcotest.fail "expected Access_violation"
   with Memory.Access_violation _ -> ());
  Alcotest.check_raises "past the end" (Memory.Bad_address 4089) (fun () ->
      Memory.write_int64_le m ~world:World.Normal ~addr:4089 1L)

(* Regression for the direct (non-byte-loop) int64 write path: a write guard
   must still trap an 8-byte write that merely overlaps its range, and a
   denied write must leave no partial bytes behind. *)
let test_guard_traps_int64_write () =
  let m = make () in
  let g =
    Memory.add_write_guard m ~name:"hook" ~base:40 ~len:8
      ~decide:(fun ~addr:_ ~len:_ -> `Deny)
  in
  (try
     Memory.write_int64_le m ~world:World.Normal ~addr:36 0xFFFFFFFFFFFFFFFFL;
     Alcotest.fail "expected Write_trapped"
   with Memory.Write_trapped { guard_name; _ } ->
     Alcotest.(check string) "guard named" "hook" guard_name);
  for addr = 36 to 43 do
    Alcotest.(check int)
      (Printf.sprintf "no byte landed at %d" addr)
      0
      (Memory.read_byte m ~world:World.Secure ~addr)
  done;
  (* Secure-world writes bypass guards, as on real page tables. *)
  Memory.write_int64_le m ~world:World.Secure ~addr:40 7L;
  Alcotest.(check int64) "secure write landed" 7L
    (Memory.read_int64_le m ~world:World.Secure ~addr:40);
  Memory.remove_write_guard m g;
  Memory.write_int64_le m ~world:World.Normal ~addr:40 9L;
  Alcotest.(check int64) "unguarded write landed" 9L
    (Memory.read_int64_le m ~world:World.Normal ~addr:40)

let test_with_range_ro () =
  let m = make () in
  Memory.write_string m ~world:World.Normal ~addr:0 "\x01\x02\x03";
  let sum =
    Memory.with_range_ro m ~world:World.Normal ~addr:0 ~len:3
      ~f:(fun data off ->
        Char.code (Bytes.get data off)
        + Char.code (Bytes.get data (off + 1))
        + Char.code (Bytes.get data (off + 2)))
  in
  Alcotest.(check int) "direct sum" 6 sum;
  (* Same validation as a read: normal world cannot map a secure range. *)
  try
    Memory.with_range_ro m ~world:World.Normal ~addr:1000 ~len:48
      ~f:(fun _ _ -> ());
    Alcotest.fail "expected violation"
  with Memory.Access_violation _ -> ()

let test_generation_stamps () =
  let ps = Memory.gen_page_size in
  let m = Memory.create ~size:(4 * ps) in
  Alcotest.(check int) "fresh counter" 0 (Memory.write_generation m);
  Alcotest.(check int) "fresh page" 0 (Memory.generation m ~addr:0 ~len:ps);
  Memory.write_byte m ~world:World.Normal ~addr:5 1;
  let g1 = Memory.write_generation m in
  Alcotest.(check bool) "counter advanced" true (g1 > 0);
  Alcotest.(check int) "page 0 stamped" g1 (Memory.generation m ~addr:0 ~len:10);
  Alcotest.(check int) "page 1 untouched" 0
    (Memory.generation m ~addr:ps ~len:8);
  (* A write straddling a page boundary stamps both pages, one counter bump. *)
  Memory.write_string m ~world:World.Normal ~addr:(ps - 2) "abcd";
  let g2 = Memory.write_generation m in
  Alcotest.(check int) "one bump per write" (g1 + 1) g2;
  Alcotest.(check int) "page 0 restamped" g2 (Memory.generation m ~addr:0 ~len:1);
  Alcotest.(check int) "page 1 stamped" g2 (Memory.generation m ~addr:ps ~len:1);
  (* [generation] over a range is the max stamp of the covered pages. *)
  Memory.write_byte m ~world:World.Normal ~addr:(3 * ps) 9;
  let g3 = Memory.write_generation m in
  Alcotest.(check int) "range max" g3
    (Memory.generation m ~addr:0 ~len:(Memory.size m));
  Alcotest.(check int) "middle pages keep older stamps" g2
    (Memory.generation m ~addr:ps ~len:ps)

let test_bump_generation () =
  let ps = Memory.gen_page_size in
  let m = Memory.create ~size:(4 * ps) in
  let hits = ref 0 in
  ignore (Memory.add_write_watcher m (fun ~addr:_ ~len:_ -> incr hits));
  Memory.bump_generation m ~addr:100 ~len:(ps + 1);
  Alcotest.(check bool) "pages stamped" true
    (Memory.generation m ~addr:0 ~len:1 > 0
    && Memory.generation m ~addr:ps ~len:1 > 0);
  Alcotest.(check int) "beyond the range untouched" 0
    (Memory.generation m ~addr:(3 * ps) ~len:1);
  Alcotest.(check int) "no watcher fired, no byte written" 0 !hits;
  Alcotest.check_raises "empty range"
    (Invalid_argument "Memory.bump_generation: empty range") (fun () ->
      Memory.bump_generation m ~addr:0 ~len:0)

let test_generation_visible_in_watcher () =
  let m = make () in
  let seen = ref (-1) in
  ignore
    (Memory.add_write_watcher m (fun ~addr ~len ->
         seen := Memory.generation m ~addr ~len));
  Memory.write_byte m ~world:World.Normal ~addr:7 3;
  Alcotest.(check int) "stamp already visible to the watcher"
    (Memory.write_generation m) !seen

(* The hot write path — access check, guard screen, generation stamp,
   watcher fan-out — must allocate nothing: workloads issue millions of
   writes per campaign and the generation tracking rides along for free. *)
let test_write_path_zero_alloc () =
  let m = make () in
  let n = 10_000 in
  let v = 0x0123456789ABCDEFL in
  let byte_pass () =
    for i = 0 to n - 1 do
      Memory.write_byte m ~world:World.Normal ~addr:(i land 0x3ff) 0x5a
    done
  in
  let int64_pass () =
    for i = 0 to n - 1 do
      Memory.write_int64_le m ~world:World.Normal ~addr:(i land 0x7f * 8) v
    done
  in
  let words_per_op f =
    f ();
    let w0 = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let wb = words_per_op byte_pass in
  if wb > 0.01 then
    Alcotest.failf "write_byte allocates %.3f minor words/write (want 0)" wb;
  let wi = words_per_op int64_pass in
  if wi > 0.01 then
    Alcotest.failf "write_int64_le allocates %.3f minor words/write (want 0)"
      wi

let prop_rw_any_byte =
  QCheck.Test.make ~name:"write/read any ns byte"
    QCheck.(pair (int_bound 1023) (int_bound 255))
    (fun (addr, v) ->
      let m = make () in
      Memory.write_byte m ~world:World.Normal ~addr v;
      Memory.read_byte m ~world:World.Normal ~addr = v)

(* ---- released memories ---- *)

let test_released_raises () =
  let m = make () in
  Memory.load_image m ~addr:2048 "image";
  let g =
    Memory.add_write_guard m ~name:"g" ~base:0 ~len:8 ~decide:(fun ~addr:_ ~len:_ ->
        `Allow)
  in
  let w = Memory.add_write_watcher m (fun ~addr:_ ~len:_ -> ()) in
  Alcotest.(check bool) "an image slice before release" true
    (Memory.image_slice m ~addr:2048 ~len:5 <> None);
  Memory.release m;
  let raises name f =
    Alcotest.check_raises name Memory.Released (fun () -> ignore (f ()))
  in
  let world = World.Secure in
  raises "size" (fun () -> Memory.size m);
  raises "add_region" (fun () ->
      Memory.add_region m ~name:"r" ~base:3072 ~size:16
        ~security:Memory.Non_secure_region);
  raises "region_of_addr" (fun () -> Memory.region_of_addr m 0);
  raises "regions" (fun () -> Memory.regions m);
  raises "check_access" (fun () -> Memory.check_access m ~world ~addr:0);
  raises "read_byte" (fun () -> Memory.read_byte m ~world ~addr:0);
  raises "write_byte" (fun () -> Memory.write_byte m ~world ~addr:0 1);
  raises "read_bytes" (fun () -> Memory.read_bytes m ~world ~addr:0 ~len:8);
  raises "write_string" (fun () -> Memory.write_string m ~world ~addr:0 "x");
  raises "empty write_string" (fun () -> Memory.write_string m ~world ~addr:0 "");
  raises "read_int64_le" (fun () -> Memory.read_int64_le m ~world ~addr:0);
  raises "write_int64_le" (fun () -> Memory.write_int64_le m ~world ~addr:0 1L);
  raises "fold_range" (fun () ->
      Memory.fold_range m ~world ~addr:0 ~len:8 ~init:0 ~f:( + ));
  raises "with_range_ro" (fun () ->
      Memory.with_range_ro m ~world ~addr:0 ~len:8 ~f:(fun _ _ -> ()));
  raises "blit_within" (fun () -> Memory.blit_within m ~world ~src:0 ~dst:8 ~len:8);
  raises "add_write_guard" (fun () ->
      Memory.add_write_guard m ~name:"h" ~base:0 ~len:8 ~decide:(fun ~addr:_ ~len:_ ->
          `Deny));
  raises "remove_write_guard" (fun () -> Memory.remove_write_guard m g);
  raises "add_write_watcher" (fun () ->
      Memory.add_write_watcher m (fun ~addr:_ ~len:_ -> ()));
  raises "remove_write_watcher" (fun () -> Memory.remove_write_watcher m w);
  raises "write_generation" (fun () -> Memory.write_generation m);
  raises "generation" (fun () -> Memory.generation m ~addr:0 ~len:8);
  raises "bump_generation" (fun () -> Memory.bump_generation m ~addr:0 ~len:8);
  raises "load_image" (fun () -> Memory.load_image m ~addr:0 "image");
  raises "image_slice of the loaded image" (fun () ->
      Memory.image_slice m ~addr:2048 ~len:5);
  raises "release" (fun () -> Memory.release m);
  raises "check_live" (fun () -> Memory.check_live m)

(* One constructor per mutating entry point. Addresses reach past the end
   and guards may deny, so a step can raise; its outcome is then part of
   what two memories must agree on. *)
type op =
  | Write_byte of World.t * int * int
  | Write_string of World.t * int * string
  | Write_int64 of World.t * int * int64
  | Blit of World.t * int * int * int
  | Load_image of int * string
  | Bump of int * int
  | Add_region of int * int * Memory.security
  | Add_guard of int * int * bool (* deny? *)
  | Drop_guard of bool (* remove (true) or disable (false) the newest *)
  | Add_watcher
  | Drop_watcher

let world_name = function World.Normal -> "ns" | World.Secure -> "s"

let pp_op = function
  | Write_byte (w, a, v) -> Printf.sprintf "byte %s@%d=%d" (world_name w) a v
  | Write_string (w, a, s) ->
      Printf.sprintf "string %s@%d+%d" (world_name w) a (String.length s)
  | Write_int64 (w, a, _) -> Printf.sprintf "int64 %s@%d" (world_name w) a
  | Blit (w, src, dst, len) ->
      Printf.sprintf "blit %s %d->%d+%d" (world_name w) src dst len
  | Load_image (a, s) -> Printf.sprintf "image @%d+%d" a (String.length s)
  | Bump (a, len) -> Printf.sprintf "bump @%d+%d" a len
  | Add_region (b, n, sec) ->
      Printf.sprintf "region @%d+%d %s" b n
        (if sec = Memory.Secure_region then "secure" else "ns")
  | Add_guard (b, n, deny) -> Printf.sprintf "guard @%d+%d deny=%b" b n deny
  | Drop_guard remove -> if remove then "remove guard" else "disable guard"
  | Add_watcher -> "watch"
  | Drop_watcher -> "unwatch"

(* Seven pages, the last one partial. *)
let reuse_size = (6 * Memory.gen_page_size) + 100

let gen_op =
  let ps = Memory.gen_page_size in
  QCheck.Gen.(
    let addr = int_bound (reuse_size + 16) in
    let world = oneofl [ World.Normal; World.Secure ] in
    let bytes n = string_size ~gen:char (int_bound n) in
    frequency
      [
        (4, map3 (fun w a v -> Write_byte (w, a, v)) world addr (int_bound 255));
        (3, map3 (fun w a s -> Write_string (w, a, s)) world addr (bytes (2 * ps)));
        (3, map3 (fun w a v -> Write_int64 (w, a, v)) world addr ui64);
        ( 2,
          map4 (fun w src dst len -> Blit (w, src, dst, len)) world addr addr
            (int_bound (2 * ps)) );
        (2, map2 (fun a s -> Load_image (a, s)) addr (bytes (3 * ps)));
        (2, map2 (fun a len -> Bump (a, len)) addr (int_bound (2 * ps)));
        ( 1,
          map3
            (fun b n sec -> Add_region (b, n, sec))
            addr (int_bound (2 * ps))
            (oneofl [ Memory.Secure_region; Memory.Non_secure_region ]) );
        (1, map3 (fun b n deny -> Add_guard (b, n, deny)) addr (int_bound ps) bool);
        (1, map (fun remove -> Drop_guard remove) bool);
        (1, return Add_watcher);
        (1, return Drop_watcher);
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 0 40) gen_op)

(* A memory with the guards and watchers registered on it so far; every
   watcher logs each write it is told about. *)
type handle = {
  mem : Memory.t;
  mutable guards : Memory.guard list;
  mutable watchers : Memory.watcher list;
  mutable log : (int * int * int) list;
}

let handle mem = { mem; guards = []; watchers = []; log = [] }

let apply h op =
  let m = h.mem in
  match op with
  | Write_byte (world, addr, v) -> Memory.write_byte m ~world ~addr v
  | Write_string (world, addr, s) -> Memory.write_string m ~world ~addr s
  | Write_int64 (world, addr, v) -> Memory.write_int64_le m ~world ~addr v
  | Blit (world, src, dst, len) -> Memory.blit_within m ~world ~src ~dst ~len
  | Load_image (addr, s) -> Memory.load_image m ~addr s
  | Bump (addr, len) -> Memory.bump_generation m ~addr ~len
  | Add_region (base, size, security) ->
      ignore
        (Memory.add_region m
           ~name:(Printf.sprintf "r%d" base)
           ~base ~size ~security)
  | Add_guard (base, len, deny) ->
      let g =
        Memory.add_write_guard m ~name:"g" ~base ~len ~decide:(fun ~addr:_ ~len:_ ->
            if deny then `Deny else `Allow)
      in
      h.guards <- g :: h.guards
  | Drop_guard remove -> (
      match h.guards with
      | g :: rest when remove ->
          Memory.remove_write_guard m g;
          h.guards <- rest
      | g :: _ -> Memory.disable_write_guard g
      | [] -> ())
  | Add_watcher ->
      let id = List.length h.watchers in
      let w =
        Memory.add_write_watcher m (fun ~addr ~len ->
            h.log <- (id, addr, len) :: h.log)
      in
      h.watchers <- w :: h.watchers
  | Drop_watcher -> (
      match h.watchers with
      | w :: rest ->
          Memory.remove_write_watcher m w;
          h.watchers <- rest
      | [] -> ())

(* Each step's outcome: "ok" or the exception it raised. *)
let run h ops =
  List.map
    (fun op ->
      match apply h op with () -> "ok" | exception e -> Printexc.to_string e)
    ops

(* Everything a caller can observe of a memory's state. *)
let observe m ranges =
  let ps = Memory.gen_page_size in
  ( Memory.read_bytes m ~world:World.Secure ~addr:0 ~len:(Memory.size m),
    List.init
      ((Memory.size m + ps - 1) / ps)
      (fun p -> Memory.generation m ~addr:(p * ps) ~len:1),
    Memory.write_generation m,
    Memory.regions m,
    List.map (fun (addr, len) -> Memory.image_slice m ~addr ~len) ranges )

(* A memory's backing store, let out of [with_range_ro] only to compare
   its identity. *)
let backing m =
  Memory.with_range_ro m ~world:World.Secure ~addr:0 ~len:1 ~f:(fun data _ ->
      data)

(* A runner spawns fresh worker domains for every batch: a store released
   on one of them must still serve the next memory, on any domain. *)
let test_pool_crosses_domains () =
  let released =
    Domain.join
      (Domain.spawn (fun () ->
           let m = Memory.create ~size:reuse_size in
           let store = backing m in
           Memory.release m;
           store))
  in
  Alcotest.(check bool) "the caller takes the worker's store" true
    (backing (Memory.create ~size:reuse_size) == released)

(* Releasing more memories than the cap keeps exactly the newest [cap]
   stores idle, whatever their domains. *)
let test_pool_cap () =
  let cap = Domain.recommended_domain_count () in
  let size = reuse_size + 1 in
  let ms = List.init (cap + 2) (fun _ -> Memory.create ~size) in
  let stores = List.map backing ms in
  List.iter Memory.release ms;
  let again = List.init (cap + 2) (fun _ -> backing (Memory.create ~size)) in
  let reused s = List.exists (( == ) s) stores in
  Alcotest.(check int) "stores handed back" cap
    (List.length (List.filter reused again));
  Alcotest.(check bool) "the newest first" true
    (List.hd again == List.nth stores (cap + 1))

(* The reuse oracle: memory B, built on the store that A released, must be
   indistinguishable from a fresh memory, before and after one more random
   sequence runs on both. *)
let prop_reuse_equals_fresh =
  QCheck.Test.make ~name:"a memory on a released store equals a fresh one"
    ~count:200
    QCheck.(
      triple arb_ops arb_ops
        (list_of_size Gen.(int_range 1 8)
           (pair (int_bound reuse_size) (int_bound (3 * Memory.gen_page_size)))))
    (fun (before, after, ranges) ->
      let a = handle (Memory.create ~size:reuse_size) in
      ignore (run a before);
      let a_store = backing a.mem in
      let a_log = a.log in
      Memory.release a.mem;
      let b = handle (Memory.create ~size:reuse_size) in
      if backing b.mem != a_store then
        QCheck.Test.fail_report "B did not take A's released store";
      let fresh = handle (Memory.create ~size:reuse_size) in
      if observe b.mem ranges <> observe fresh.mem ranges then
        QCheck.Test.fail_report "B differs from a fresh memory";
      if run b after <> run fresh after then
        QCheck.Test.fail_report "a step's outcome differs";
      if b.log <> fresh.log then QCheck.Test.fail_report "watcher logs differ";
      if a.log != a_log then
        QCheck.Test.fail_report "a watcher of the released memory fired";
      if observe b.mem ranges <> observe fresh.mem ranges then
        QCheck.Test.fail_report "B differs from the fresh memory afterwards";
      true)

let suite =
  [
    Alcotest.test_case "rw roundtrip" `Quick test_rw_roundtrip;
    Alcotest.test_case "byte masking" `Quick test_byte_masking;
    Alcotest.test_case "normal blocked from secure" `Quick test_normal_cannot_touch_secure;
    Alcotest.test_case "secure sees all" `Quick test_secure_can_touch_everything;
    Alcotest.test_case "unmapped is non-secure" `Quick test_unmapped_is_non_secure;
    Alcotest.test_case "bad address" `Quick test_bad_address;
    Alcotest.test_case "overlap rejected" `Quick test_region_overlap_rejected;
    Alcotest.test_case "region_of_addr" `Quick test_region_of_addr;
    Alcotest.test_case "regions sorted" `Quick test_regions_sorted;
    Alcotest.test_case "write_string/read_bytes" `Quick test_write_string_and_read_bytes;
    Alcotest.test_case "fold_range" `Quick test_fold_range;
    Alcotest.test_case "straddling range rejected" `Quick test_range_straddling_secure_rejected;
    Alcotest.test_case "blit_within" `Quick test_blit_within;
    Alcotest.test_case "write watcher" `Quick test_write_watcher;
    Alcotest.test_case "watcher ignores reads" `Quick test_watcher_not_fired_on_read;
    Alcotest.test_case "int64 roundtrip + watcher" `Quick test_int64_roundtrip_and_watcher;
    Alcotest.test_case "int64 access checks" `Quick test_int64_access_checks;
    Alcotest.test_case "guard traps int64 write" `Quick test_guard_traps_int64_write;
    Alcotest.test_case "with_range_ro" `Quick test_with_range_ro;
    Alcotest.test_case "generation stamps" `Quick test_generation_stamps;
    Alcotest.test_case "bump_generation" `Quick test_bump_generation;
    Alcotest.test_case "generation visible in watcher" `Quick
      test_generation_visible_in_watcher;
    Alcotest.test_case "write path allocates nothing" `Quick
      test_write_path_zero_alloc;
    QCheck_alcotest.to_alcotest prop_rw_any_byte;
    Alcotest.test_case "released memory raises" `Quick test_released_raises;
    QCheck_alcotest.to_alcotest prop_reuse_equals_fresh;
    Alcotest.test_case "a released store crosses domains" `Quick
      test_pool_crosses_domains;
    Alcotest.test_case "the idle pool keeps at most the cap" `Quick
      test_pool_cap;
  ]
