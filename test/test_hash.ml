open Satin_introspect
open Satin_hw

(* Known-answer values computed from the reference C implementation
   (djb2: h = h*33 + c from 5381). *)
let test_djb2_known () =
  Alcotest.(check int64) "empty" 5381L (Hash.hash_string "");
  Alcotest.(check int64) "a" (Int64.add (Int64.mul 5381L 33L) 97L)
    (Hash.hash_string "a");
  (* djb2("hello") computed stepwise *)
  let expect =
    List.fold_left
      (fun h c -> Int64.add (Int64.mul h 33L) (Int64.of_int (Char.code c)))
      5381L [ 'h'; 'e'; 'l'; 'l'; 'o' ]
  in
  Alcotest.(check int64) "hello" expect (Hash.hash_string "hello")

let test_single_bit_sensitivity () =
  let a = Hash.hash_string "abcdefgh" in
  let b = Hash.hash_string "abcdefgi" in
  if Int64.equal a b then Alcotest.fail "djb2 missed a one-byte change"

let test_streaming_matches_whole () =
  let s = "stream me in pieces" in
  let stepped =
    String.fold_left (fun h c -> Hash.step h (Char.code c)) Hash.init s
  in
  Alcotest.(check int64) "djb2" (Hash.hash_string s) stepped

let test_hash_region_matches_string () =
  let m = Memory.create ~size:1024 in
  Memory.write_string m ~world:World.Normal ~addr:100 "region contents";
  Alcotest.(check int64) "djb2"
    (Hash.hash_string "region contents")
    (Hash.hash_region m ~world:World.Secure ~addr:100 ~len:15)

let test_hash_bytes_matches_string () =
  let b = Bytes.of_string "bytes" in
  Alcotest.(check int64) "bytes = string" (Hash.hash_string "bytes")
    (Hash.hash_bytes b)

let step_fold data ~off ~len =
  let h = ref Hash.init in
  for i = off to off + len - 1 do
    h := Hash.step !h (Char.code (Bytes.get data i))
  done;
  !h

(* The unrolled [hash_sub] loop must agree with a plain [step] fold at every
   length around the 4-byte unroll boundary and at every offset. *)
let test_hash_sub_edge_lengths () =
  let data = Bytes.init 64 (fun i -> Char.chr ((i * 37) land 0xff)) in
  for off = 0 to 5 do
    for len = 0 to 9 do
      Alcotest.(check int64)
        (Printf.sprintf "off=%d len=%d" off len)
        (step_fold data ~off ~len)
        (Hash.hash_sub data ~off ~len)
    done
  done

let test_hash_sub_bounds () =
  let data = Bytes.create 16 in
  let reject name f =
    try
      ignore (f ());
      Alcotest.failf "%s accepted" name
    with Invalid_argument _ -> ()
  in
  reject "negative off" (fun () -> Hash.hash_sub data ~off:(-1) ~len:4);
  reject "negative len" (fun () -> Hash.hash_sub data ~off:0 ~len:(-1));
  reject "past the end" (fun () -> Hash.hash_sub data ~off:10 ~len:7)

let prop_hash_sub_matches_fold =
  QCheck.Test.make ~name:"hash_sub = step fold at any split"
    QCheck.(pair string (int_bound 64))
    (fun (s, k) ->
      let data = Bytes.of_string s in
      let off = if Bytes.length data = 0 then 0 else k mod Bytes.length data in
      let len = Bytes.length data - off in
      Int64.equal (step_fold data ~off ~len) (Hash.hash_sub data ~off ~len))

let prop_deterministic =
  QCheck.Test.make ~name:"hash deterministic" QCheck.string (fun s ->
      Int64.equal (Hash.hash_string s) (Hash.hash_string s))

let prop_concat_streaming =
  QCheck.Test.make ~name:"hash(a^b) = resume(hash a, b)"
    QCheck.(pair string string)
    (fun (a, b) ->
      let resumed =
        String.fold_left
          (fun h c -> Hash.step h (Char.code c))
          (Hash.hash_string a) b
      in
      Int64.equal (Hash.hash_string (a ^ b)) resumed)

(* The affine factorization behind incremental scans: hashing a
   concatenation equals folding cached per-block digests with
   [combine_block]. Splits are arbitrary, not page-sized. *)
let prop_block_combine =
  QCheck.Test.make ~name:"hash = fold of block digests (djb2)"
    QCheck.(pair string (small_list small_nat))
    (fun (s, cuts) ->
      let data = Bytes.of_string s in
      let n = Bytes.length data in
      (* Turn the generated naturals into a partition of [0, n). *)
      let bounds =
        List.sort_uniq compare (0 :: n :: List.map (fun c -> c mod (n + 1)) cuts)
      in
      let rec blocks = function
        | a :: (b :: _ as rest) -> (a, b - a) :: blocks rest
        | _ -> []
      in
      let h =
        List.fold_left
          (fun h (off, len) ->
            Hash.combine_block h ~pow:(Hash.block_pow ~len)
              ~digest:(Hash.block_digest data ~off ~len))
          Hash.init (blocks bounds)
      in
      Int64.equal h (Hash.hash_sub data ~off:0 ~len:n))

let test_block_pow () =
  Alcotest.(check int64) "pow^0 = 1" 1L (Hash.block_pow ~len:0);
  Alcotest.(check int64) "pow^1 = m" 33L (Hash.block_pow ~len:1);
  Alcotest.(check int64) "pow^2 = m*m" 1089L (Hash.block_pow ~len:2)

let suite =
  [
    Alcotest.test_case "djb2 known answers" `Quick test_djb2_known;
    Alcotest.test_case "single-bit sensitivity" `Quick test_single_bit_sensitivity;
    Alcotest.test_case "streaming matches whole" `Quick test_streaming_matches_whole;
    Alcotest.test_case "hash_region" `Quick test_hash_region_matches_string;
    Alcotest.test_case "hash_bytes" `Quick test_hash_bytes_matches_string;
    Alcotest.test_case "hash_sub edge lengths" `Quick test_hash_sub_edge_lengths;
    Alcotest.test_case "hash_sub bounds" `Quick test_hash_sub_bounds;
    QCheck_alcotest.to_alcotest prop_hash_sub_matches_fold;
    QCheck_alcotest.to_alcotest prop_deterministic;
    QCheck_alcotest.to_alcotest prop_concat_streaming;
    Alcotest.test_case "block_pow" `Quick test_block_pow;
    QCheck_alcotest.to_alcotest prop_block_combine;
  ]
