(* The 64-bit state lives unboxed in 8 bytes: a mutable [int64] field would
   box every new state (3 words) and pay a [caml_modify] on each draw, while
   [Bytes.get/set_int64_le] compile to plain loads and stores, so a draw
   allocates nothing once [next_int64] is inlined into its caller. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 state;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let derive seed index =
  (* Two mix64 rounds over (seed, index) — a full-avalanche combiner, so
     derived seeds never collide in practice and adjacent indices share no
     stream structure. *)
  Int64.to_int
    (mix64
       (Int64.add
          (mix64 (Int64.of_int seed))
          (Int64.mul golden_gamma (Int64.of_int (index + 1)))))

let[@inline] next_int64 t =
  let state = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 state;
  mix64 state

let split t = of_state (mix64 (next_int64 t))
let copy = Bytes.copy
let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let float01 t =
  (* 53 high bits of the 64-bit output, scaled to [0, 1). *)
  let x = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float x *. (1.0 /. 9007199254740992.0)

let uniform t a b =
  assert (a <= b);
  a +. ((b -. a) *. float01 t)

let int t bound =
  assert (bound > 0);
  (* Rejection sampling over 62 bits for exact uniformity. *)
  let mask_bound = bound - 1 in
  if bound land mask_bound = 0 then bits t land mask_bound
  else
    let limit = max_int / 2 / bound * bound in
    let x = ref (bits t) in
    while !x >= limit * 2 do
      x := bits t
    done;
    !x mod bound

let bool t = Int64.compare (next_int64 t) 0L < 0
let bernoulli t p = float01 t < p

let gaussian t ~mu ~sigma =
  let u1 = 1.0 -. float01 t and u2 = float01 t in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let exponential t ~mean =
  assert (mean > 0.0);
  -.mean *. log (1.0 -. float01 t)

let lognormal t ~mu ~sigma = exp (gaussian t ~mu ~sigma)

let pareto t ~scale ~shape =
  assert (scale > 0.0 && shape > 0.0);
  scale /. ((1.0 -. float01 t) ** (1.0 /. shape))

let triangular t ~low ~mode ~high =
  assert (low <= mode && mode <= high);
  if high = low then low
  else
    let u = float01 t in
    let fc = (mode -. low) /. (high -. low) in
    if u < fc then low +. sqrt (u *. (high -. low) *. (mode -. low))
    else high -. sqrt ((1.0 -. u) *. (high -. low) *. (high -. mode))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let sim_duration t ~mean_s ~jitter =
  let x =
    if jitter <= 0.0 then mean_s
    else
      (* Lognormal with median [mean_s] and log-space sigma [jitter]. *)
      mean_s *. lognormal t ~mu:0.0 ~sigma:jitter
  in
  Stdlib.max 1 (Sim_time.of_sec_f x)
