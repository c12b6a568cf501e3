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

let test_range_straddling_secure_rejected () =
  let m = make () in
  (* Range starting in ns memory but crossing into the secure region. *)
  try
    ignore (Memory.read_bytes m ~world:World.Normal ~addr:1000 ~len:48);
    Alcotest.fail "expected violation"
  with Memory.Access_violation _ -> ()

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

(* The pieces of a fold, as (bytes, length) in order. *)
let pieces m ~world ~addr ~len =
  List.rev
    (Memory.fold_pages m ~world ~addr ~len ~init:[] ~f:(fun acc data off n ->
         (Bytes.sub_string data off n, n) :: acc))

let test_fold_pages () =
  let m = make () in
  Memory.write_string m ~world:World.Normal ~addr:0 "\x01\x02\x03";
  Alcotest.(check (list (pair string int))) "one piece, in place"
    [ ("\x01\x02\x03", 3) ]
    (pieces m ~world:World.Normal ~addr:0 ~len:3);
  (* Same validation as a read: normal world cannot map a secure range. *)
  (try
     ignore (pieces m ~world:World.Normal ~addr:1000 ~len:48);
     Alcotest.fail "expected violation"
   with Memory.Access_violation _ -> ());
  (* A range across pages comes in pieces split at each page boundary,
     whatever the pages alias: here a private page, an image page and the
     zero page. *)
  let ps = Memory.gen_page_size in
  let m = Memory.create ~size:(4 * ps) in
  let image = String.init ps (fun i -> Char.chr (i land 0xff)) in
  Memory.load_image m ~addr:ps image;
  Memory.write_byte m ~world:World.Normal ~addr:(ps - 1) 7;
  let got = pieces m ~world:World.Normal ~addr:(ps - 1) ~len:(ps + 2) in
  Alcotest.(check (list int)) "split at page boundaries" [ 1; ps; 1 ]
    (List.map snd got);
  Alcotest.(check string) "the bytes of a read"
    (Bytes.to_string
       (Memory.read_bytes m ~world:World.Normal ~addr:(ps - 1) ~len:(ps + 2)))
    (String.concat "" (List.map fst got))

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
  raises "fold_pages" (fun () ->
      Memory.fold_pages m ~world ~addr:0 ~len:8 ~init:() ~f:(fun () _ _ _ -> ()));
  raises "add_write_guard" (fun () ->
      Memory.add_write_guard m ~name:"h" ~base:0 ~len:8 ~decide:(fun ~addr:_ ~len:_ ->
          `Deny));
  raises "remove_write_guard" (fun () -> Memory.remove_write_guard m g);
  raises "add_write_watcher" (fun () ->
      Memory.add_write_watcher m (fun ~addr:_ ~len:_ -> ()));
  raises "remove_write_watcher" (fun () -> Memory.remove_write_watcher m w);
  raises "write_generation" (fun () -> Memory.write_generation m);
  raises "generation" (fun () -> Memory.generation m ~addr:0 ~len:8);
  raises "load_image" (fun () -> Memory.load_image m ~addr:0 "image");
  raises "image_slice of the loaded image" (fun () ->
      Memory.image_slice m ~addr:2048 ~len:5);
  raises "release" (fun () -> Memory.release m);
  raises "check_live" (fun () -> Memory.check_live m)

(* ---- the paged memory against the flat model ---- *)

(* One constructor per mutating entry point, then the reads. Addresses
   reach past the end and guards may deny, so a step can raise; its
   outcome is then part of what two memories must agree on. *)
type op =
  | Write_byte of World.t * int * int
  | Write_string of World.t * int * string
  | Write_int64 of World.t * int * int64
  | Load_image of int * string
  | Add_region of int * int * Memory.security
  | Add_guard of int * int * bool (* deny? *)
  | Drop_guard of bool (* remove (true) or disable (false) the newest *)
  | Add_watcher
  | Drop_watcher
  | Read of World.t * int * int
  | Read_int64 of World.t * int
  | Fold of World.t * int * int

let world_name = function World.Normal -> "ns" | World.Secure -> "s"

let pp_op = function
  | Write_byte (w, a, v) -> Printf.sprintf "byte %s@%d=%d" (world_name w) a v
  | Write_string (w, a, s) ->
      Printf.sprintf "string %s@%d+%d" (world_name w) a (String.length s)
  | Write_int64 (w, a, _) -> Printf.sprintf "int64 %s@%d" (world_name w) a
  | Load_image (a, s) -> Printf.sprintf "image @%d+%d" a (String.length s)
  | Add_region (b, n, sec) ->
      Printf.sprintf "region @%d+%d %s" b n
        (if sec = Memory.Secure_region then "secure" else "ns")
  | Add_guard (b, n, deny) -> Printf.sprintf "guard @%d+%d deny=%b" b n deny
  | Drop_guard remove -> if remove then "remove guard" else "disable guard"
  | Add_watcher -> "watch"
  | Drop_watcher -> "unwatch"
  | Read (w, a, len) -> Printf.sprintf "read %s@%d+%d" (world_name w) a len
  | Read_int64 (w, a) -> Printf.sprintf "read int64 %s@%d" (world_name w) a
  | Fold (w, a, len) -> Printf.sprintf "fold %s@%d+%d" (world_name w) a len

(* Seven pages, the last one partial. *)
let prop_size = (6 * Memory.gen_page_size) + 100

let world = QCheck.Gen.oneofl [ World.Normal; World.Secure ]

(* The mutating entry points, at any address. *)
let gen_op =
  let ps = Memory.gen_page_size in
  QCheck.Gen.(
    let addr = int_bound (prop_size + 16) in
    let bytes n = string_size ~gen:char (int_bound n) in
    frequency
      [
        (4, map3 (fun w a v -> Write_byte (w, a, v)) world addr (int_bound 255));
        (3, map3 (fun w a s -> Write_string (w, a, s)) world addr (bytes (2 * ps)));
        (3, map3 (fun w a v -> Write_int64 (w, a, v)) world addr ui64);
        (2, map2 (fun a s -> Load_image (a, s)) addr (bytes (3 * ps)));
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

(* What paging adds: page-aligned loads (the unaligned ones come from
   [gen_op]), and writes, reads and folds near a page boundary, so they
   straddle pages and land in the pages an image covers. *)
let gen_paged_op =
  let ps = Memory.gen_page_size in
  QCheck.Gen.(
    let edge = map2 (fun p d -> max 0 ((p * ps) + d)) (int_range 1 6) (int_range (-9) 9) in
    let len = int_bound ((2 * ps) + 16) in
    frequency
      [
        (8, gen_op);
        ( 1,
          map2
            (fun p s -> Load_image (p * ps, s))
            (int_bound 6)
            (string_size ~gen:char (int_range ps (3 * ps))) );
        (1, map3 (fun w a v -> Write_int64 (w, a, v)) world edge ui64);
        (1, map3 (fun w a v -> Write_byte (w, a, v)) world edge (int_bound 255));
        (2, map3 (fun w a n -> Read (w, a, n)) world edge len);
        (1, map2 (fun w a -> Read_int64 (w, a)) world edge);
        (2, map3 (fun w a n -> Fold (w, a, n)) world edge len);
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 0 40) gen_paged_op)

(* The entry points the property drives; [Memory] and [Memory_ref] both
   have them. *)
module type MEMORY = sig
  type t
  type guard
  type watcher

  val size : t -> int

  val add_region :
    t -> name:string -> base:int -> size:int -> security:Memory.security ->
    Memory.region

  val regions : t -> Memory.region list
  val write_byte : t -> world:World.t -> addr:int -> int -> unit
  val read_bytes : t -> world:World.t -> addr:int -> len:int -> bytes
  val write_string : t -> world:World.t -> addr:int -> string -> unit
  val read_int64_le : t -> world:World.t -> addr:int -> int64
  val write_int64_le : t -> world:World.t -> addr:int -> int64 -> unit

  val fold_pages :
    t -> world:World.t -> addr:int -> len:int -> init:'a ->
    f:('a -> Bytes.t -> int -> int -> 'a) -> 'a

  val add_write_guard :
    t -> name:string -> base:int -> len:int ->
    decide:(addr:int -> len:int -> [ `Allow | `Deny ]) -> guard

  val remove_write_guard : t -> guard -> unit
  val disable_write_guard : guard -> unit
  val add_write_watcher : t -> (addr:int -> len:int -> unit) -> watcher
  val remove_write_watcher : t -> watcher -> unit
  val write_generation : t -> int
  val generation : t -> addr:int -> len:int -> int
  val load_image : t -> addr:int -> string -> unit
  val image_slice : t -> addr:int -> len:int -> (string * int) option
end

module Drive (M : MEMORY) = struct
  (* A memory with the guards and watchers registered on it so far; every
     watcher logs each write it is told about. *)
  type handle = {
    mem : M.t;
    mutable guards : M.guard list;
    mutable watchers : M.watcher list;
    mutable log : (int * int * int) list;
  }

  let handle mem = { mem; guards = []; watchers = []; log = [] }

  (* A step's outcome: "ok", or what a read returned. *)
  let apply h op =
    let m = h.mem in
    match op with
    | Write_byte (world, addr, v) -> M.write_byte m ~world ~addr v; "ok"
    | Write_string (world, addr, s) -> M.write_string m ~world ~addr s; "ok"
    | Write_int64 (world, addr, v) -> M.write_int64_le m ~world ~addr v; "ok"
    | Load_image (addr, s) -> M.load_image m ~addr s; "ok"
    | Add_region (base, size, security) ->
        ignore
          (M.add_region m ~name:(Printf.sprintf "r%d" base) ~base ~size ~security);
        "ok"
    | Add_guard (base, len, deny) ->
        let g =
          M.add_write_guard m ~name:"g" ~base ~len ~decide:(fun ~addr:_ ~len:_ ->
              if deny then `Deny else `Allow)
        in
        h.guards <- g :: h.guards;
        "ok"
    | Drop_guard remove ->
        (match h.guards with
        | g :: rest when remove ->
            M.remove_write_guard m g;
            h.guards <- rest
        | g :: _ -> M.disable_write_guard g
        | [] -> ());
        "ok"
    | Add_watcher ->
        let id = List.length h.watchers in
        let w =
          M.add_write_watcher m (fun ~addr ~len -> h.log <- (id, addr, len) :: h.log)
        in
        h.watchers <- w :: h.watchers;
        "ok"
    | Drop_watcher ->
        (match h.watchers with
        | w :: rest ->
            M.remove_write_watcher m w;
            h.watchers <- rest
        | [] -> ());
        "ok"
    | Read (world, addr, len) -> Bytes.to_string (M.read_bytes m ~world ~addr ~len)
    | Read_int64 (world, addr) -> Int64.to_string (M.read_int64_le m ~world ~addr)
    | Fold (world, addr, len) ->
        String.concat "|"
          (List.rev
             (M.fold_pages m ~world ~addr ~len ~init:[] ~f:(fun acc data off n ->
                  Bytes.sub_string data off n :: acc)))

  (* Each step's outcome, or the exception it raised. *)
  let run h ops =
    List.map (fun op -> try apply h op with e -> Printexc.to_string e) ops

  (* Everything a caller can observe of a memory's state. *)
  let observe m ranges =
    let ps = Memory.gen_page_size in
    ( M.read_bytes m ~world:World.Secure ~addr:0 ~len:(M.size m),
      List.init
        ((M.size m + ps - 1) / ps)
        (fun p -> M.generation m ~addr:(p * ps) ~len:1),
      M.write_generation m,
      M.regions m,
      List.map (fun (addr, len) -> M.image_slice m ~addr ~len) ranges )
end

module Paged = Drive (Memory)
module Flat = Drive (Memory_ref)

(* The paging oracle: the same random sequence on a paged memory and on
   the flat model must give the same outcome at every step, the same
   watcher logs, and then the same contents, page stamps, write counter,
   regions and image slices over random ranges. Nothing may write shared
   bytes: every loaded string keeps its bytes, and a fresh memory still
   reads zero. *)
let prop_paged_equals_flat =
  QCheck.Test.make ~name:"paged memory equals the flat model" ~count:300
    QCheck.(
      pair arb_ops
        (list_of_size Gen.(int_range 1 8)
           (pair (int_bound prop_size) (int_bound (3 * Memory.gen_page_size)))))
    (fun (ops, ranges) ->
      let sources =
        List.filter_map
          (function
            | Load_image (_, s) -> Some (s, Bytes.to_string (Bytes.of_string s))
            | _ -> None)
          ops
      in
      let paged = Paged.handle (Memory.create ~size:prop_size) in
      let flat = Flat.handle (Memory_ref.create ~size:prop_size) in
      List.iteri
        (fun i (got, want) ->
          if got <> want then
            QCheck.Test.fail_reportf "step %d (%s): %S, want %S" i
              (pp_op (List.nth ops i)) got want)
        (List.combine (Paged.run paged ops) (Flat.run flat ops));
      if paged.log <> flat.log then QCheck.Test.fail_report "watcher logs differ";
      if Paged.observe paged.mem ranges <> Flat.observe flat.mem ranges then
        QCheck.Test.fail_report "the memory differs from the model";
      if not (List.for_all (fun (s, copy) -> String.equal s copy) sources) then
        QCheck.Test.fail_report "a loaded image was written";
      let fresh = Memory.create ~size:prop_size in
      if
        Bytes.exists (( <> ) '\000')
          (Memory.read_bytes fresh ~world:World.Secure ~addr:0 ~len:prop_size)
      then QCheck.Test.fail_report "the zero page was written";
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
    Alcotest.test_case "straddling range rejected" `Quick test_range_straddling_secure_rejected;
    Alcotest.test_case "write watcher" `Quick test_write_watcher;
    Alcotest.test_case "watcher ignores reads" `Quick test_watcher_not_fired_on_read;
    Alcotest.test_case "int64 roundtrip + watcher" `Quick test_int64_roundtrip_and_watcher;
    Alcotest.test_case "int64 access checks" `Quick test_int64_access_checks;
    Alcotest.test_case "guard traps int64 write" `Quick test_guard_traps_int64_write;
    Alcotest.test_case "fold_pages" `Quick test_fold_pages;
    Alcotest.test_case "generation stamps" `Quick test_generation_stamps;
    Alcotest.test_case "generation visible in watcher" `Quick
      test_generation_visible_in_watcher;
    Alcotest.test_case "write path allocates nothing" `Quick
      test_write_path_zero_alloc;
    QCheck_alcotest.to_alcotest prop_rw_any_byte;
    Alcotest.test_case "released memory raises" `Quick test_released_raises;
    QCheck_alcotest.to_alcotest prop_paged_equals_flat;
  ]
