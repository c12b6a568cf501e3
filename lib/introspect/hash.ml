(* djb2: h' = h * 33 + c (mod 2^64), from 5381. The multiply is
   strength-reduced to a shift and an add. *)
let init = 5381L

let[@inline] djb2_step h c =
  Int64.add (Int64.add (Int64.shift_left h 5) h) (Int64.of_int c)

let step h byte = djb2_step h (byte land 0xff)

let absorb_int64 h v =
  let acc = ref h in
  for i = 0 to 7 do
    acc := step !acc (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done;
  !acc

(* A 4x-unrolled loop over raw bytes. Folding [step] over a range costs a
   closure call per byte; on the multi-MiB regions the introspection rounds
   scan, this loop is the difference between the hash dominating a campaign
   and it disappearing into the noise. Bit-identical to the fold. *)
let hash_sub_seeded ~seed data ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "Hash.hash_sub: range out of bounds";
  let stop = off + len in
  let stop4 = stop - 3 in
  let[@inline] byte i = Char.code (Bytes.unsafe_get data i) in
  let h = ref seed in
  let i = ref off in
  while !i < stop4 do
    let h0 = djb2_step !h (byte !i) in
    let h1 = djb2_step h0 (byte (!i + 1)) in
    let h2 = djb2_step h1 (byte (!i + 2)) in
    h := djb2_step h2 (byte (!i + 3));
    i := !i + 4
  done;
  while !i < stop do
    h := djb2_step !h (byte !i);
    incr i
  done;
  !h

let hash_sub data ~off ~len = hash_sub_seeded ~seed:init data ~off ~len

(* Block combine. djb2 is an affine recurrence h' = h*33 + c (mod 2^64),
   so hashing s1 ++ s2 factors as
       H(s1 ++ s2) = H(s1) * 33^|s2| + K(s2)
   where K(s2) is the same recurrence run from state 0 — a seed-independent
   per-block digest that can be cached and recombined in O(blocks). *)

let block_pow ~len =
  if len < 0 then invalid_arg "Hash.block_pow: negative length";
  let r = ref 1L and b = ref 33L and e = ref len in
  while !e > 0 do
    if !e land 1 = 1 then r := Int64.mul !r !b;
    b := Int64.mul !b !b;
    e := !e asr 1
  done;
  !r

let block_digest data ~off ~len = hash_sub_seeded ~seed:0L data ~off ~len

let block_digest_string s ~off ~len =
  block_digest (Bytes.unsafe_of_string s) ~off ~len

let[@inline] combine_block h ~pow ~digest = Int64.add (Int64.mul h pow) digest

let hash_bytes b = hash_sub b ~off:0 ~len:(Bytes.length b)
let hash_string s = hash_bytes (Bytes.unsafe_of_string s)

(* One seeded pass per page piece: the state carries across pieces, so
   the chain is the single pass over the whole range. *)
let hash_region memory ~world ~addr ~len =
  Satin_hw.Memory.fold_pages memory ~world ~addr ~len ~init
    ~f:(fun h data off n -> hash_sub_seeded ~seed:h data ~off ~len:n)
