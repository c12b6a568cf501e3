module Stats = Satin_engine.Stats

(* Log-linear bucketing: a positive sample v = m * 2^e (frexp, m in
   [0.5, 1)) maps to sub-bucket floor((2m - 1) * sub) of exponent e, so
   each power of two is split into [sub] equal-width slices. Exponents
   are clamped into [e_min, e_max]; anything beyond falls into the
   outermost bucket of that side, which keeps the array fixed-size while
   still counting (and min/max still track the exact extremes). *)
let sub_bits = 4
let sub = 1 lsl sub_bits
let e_min = -64
let e_max = 64
let n_buckets = (e_max - e_min + 1) * sub

type t = {
  pos : int array;
  neg : int array; (* mirrored: neg.(i) counts -v with |v| bucketed like pos *)
  mutable zero : int;
  mutable count : int;
  mutable min : float;
  mutable max : float;
}

let create () =
  {
    pos = Array.make n_buckets 0;
    neg = Array.make n_buckets 0;
    zero = 0;
    count = 0;
    min = infinity;
    max = neg_infinity;
  }

let bucket e s =
  let e = if e < e_min then e_min else if e > e_max then e_max else e in
  ((e - e_min) * sub) + s

(* Bucket index of a positive finite magnitude. For a normal v, frexp's
   e is the biased IEEE exponent minus 1022 and floor((2m - 1) * sub) is
   the top [sub_bits] bits of the stored mantissa, so both are read
   straight from the bits: no libm call and no allocation on the capture
   path. Subnormals (biased exponent 0) take frexp, which normalizes. *)
let index_of_magnitude v =
  let bits = Int64.bits_of_float v in
  let biased = Int64.to_int (Int64.shift_right_logical bits 52) in
  if biased > 0 then
    bucket (biased - 1022)
      (Int64.to_int (Int64.shift_right_logical bits (52 - sub_bits)) land (sub - 1))
  else
    let m, e = Float.frexp v in
    bucket e (int_of_float (((2.0 *. m) -. 1.0) *. float_of_int sub))

let add t v =
  if Float.is_nan v then invalid_arg "Histogram.add: NaN sample";
  let v =
    if v > Float.max_float then Float.max_float
    else if v < -.Float.max_float then -.Float.max_float
    else v
  in
  if v < t.min then t.min <- v;
  if v > t.max then t.max <- v;
  t.count <- t.count + 1;
  if v = 0.0 then t.zero <- t.zero + 1
  else if v > 0.0 then begin
    let i = index_of_magnitude v in
    t.pos.(i) <- t.pos.(i) + 1
  end
  else begin
    let i = index_of_magnitude (-.v) in
    t.neg.(i) <- t.neg.(i) + 1
  end

let of_stats s =
  let t = create () in
  Stats.iter (add t) s;
  t

let count t = t.count
let is_empty t = t.count = 0

let require_nonempty t name =
  if t.count = 0 then invalid_arg ("Histogram." ^ name ^ ": empty histogram")

let min t =
  require_nonempty t "min";
  t.min

let max t =
  require_nonempty t "max";
  t.max

(* Midpoint of bucket i (positive side): the bucket spans
   [ldexp (0.5 + s/(2*sub)) e, ldexp (0.5 + (s+1)/(2*sub)) e). All
   quantities are exact dyadic rationals, so this is deterministic. *)
let midpoint i =
  let e = (i / sub) + e_min in
  let s = i mod sub in
  Float.ldexp (0.5 +. ((float_of_int s +. 0.5) /. float_of_int (2 * sub))) e

let mean t =
  require_nonempty t "mean";
  (* Fixed ascending order (negatives from largest magnitude down, zero,
     positives up) so the float summation never depends on merge shape:
     it is recomputed from the merged counts, not carried through. *)
  let acc = ref 0.0 in
  for i = n_buckets - 1 downto 0 do
    if t.neg.(i) > 0 then
      acc := !acc -. (float_of_int t.neg.(i) *. midpoint i)
  done;
  for i = 0 to n_buckets - 1 do
    if t.pos.(i) > 0 then
      acc := !acc +. (float_of_int t.pos.(i) *. midpoint i)
  done;
  let m = !acc /. float_of_int t.count in
  (* Midpoint approximation can drift just past the exact extremes; the
     true mean never can, so clamp. *)
  if m < t.min then t.min else if m > t.max then t.max else m

let quantile t q =
  require_nonempty t "quantile";
  if not (0.0 <= q && q <= 1.0) then
    invalid_arg "Histogram.quantile: q outside [0, 1]";
  (* Index of the order statistic to locate (0-based, nearest-rank on the
     lower side), then a walk over buckets in ascending value order. *)
  let rank = int_of_float (q *. float_of_int (t.count - 1)) in
  let clamp v = if v < t.min then t.min else if v > t.max then t.max else v in
  let seen = ref 0 in
  let result = ref t.max in
  (try
     for i = n_buckets - 1 downto 0 do
       if t.neg.(i) > 0 then begin
         seen := !seen + t.neg.(i);
         if !seen > rank then begin
           result := -.midpoint i;
           raise Exit
         end
       end
     done;
     if t.zero > 0 then begin
       seen := !seen + t.zero;
       if !seen > rank then begin
         result := 0.0;
         raise Exit
       end
     end;
     for i = 0 to n_buckets - 1 do
       if t.pos.(i) > 0 then begin
         seen := !seen + t.pos.(i);
         if !seen > rank then begin
           result := midpoint i;
           raise Exit
         end
       end
     done
   with Exit -> ());
  clamp !result

let merge_into t b =
  for i = 0 to n_buckets - 1 do
    t.pos.(i) <- t.pos.(i) + b.pos.(i);
    t.neg.(i) <- t.neg.(i) + b.neg.(i)
  done;
  t.zero <- t.zero + b.zero;
  t.count <- t.count + b.count;
  t.min <- Float.min t.min b.min;
  t.max <- Float.max t.max b.max

let merge a b =
  let t = create () in
  merge_into t a;
  merge_into t b;
  t

let equal a b =
  a.count = b.count && a.zero = b.zero
  && (a.count = 0 || (a.min = b.min && a.max = b.max))
  && a.pos = b.pos && a.neg = b.neg

(* ---- codec ---- *)

let sparse arr =
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if arr.(i) > 0 then
      acc := Json.List [ Json.Int i; Json.Int arr.(i) ] :: !acc
  done;
  Json.List !acc

let to_json t =
  let fields =
    [
      ("v", Json.Int 1);
      ("count", Json.Int t.count);
      ("zero", Json.Int t.zero);
      ("pos", sparse t.pos);
      ("neg", sparse t.neg);
    ]
  in
  let fields =
    if t.count = 0 then fields
    else fields @ [ ("min", Json.float t.min); ("max", Json.float t.max) ]
  in
  Json.Obj fields

let num_opt = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float x -> Some x
  | _ -> None

let of_json j =
  let ( let* ) r f = Result.bind r f in
  let int_field name =
    match Json.member name j with
    | Some (Json.Int i) -> Ok i
    | _ -> Error (Printf.sprintf "Histogram.of_json: missing int %S" name)
  in
  let fill arr name =
    match Json.member name j with
    | Some (Json.List entries) ->
        List.fold_left
          (fun acc e ->
            let* () = acc in
            match e with
            | Json.List [ Json.Int i; Json.Int c ]
              when i >= 0 && i < n_buckets && c > 0 ->
                arr.(i) <- c;
                Ok ()
            | _ -> Error "Histogram.of_json: malformed bucket entry")
          (Ok ()) entries
    | _ -> Error (Printf.sprintf "Histogram.of_json: missing list %S" name)
  in
  let* v = int_field "v" in
  if v <> 1 then Error (Printf.sprintf "Histogram.of_json: unknown version %d" v)
  else
    let* count = int_field "count" in
    let* zero = int_field "zero" in
    let t = create () in
    t.count <- count;
    t.zero <- zero;
    let* () = fill t.pos "pos" in
    let* () = fill t.neg "neg" in
    let total =
      Array.fold_left ( + ) 0 t.pos + Array.fold_left ( + ) 0 t.neg + t.zero
    in
    if total <> count then Error "Histogram.of_json: bucket counts disagree with count"
    else if count = 0 then Ok t
    else
      match
        (Option.bind (Json.member "min" j) num_opt,
         Option.bind (Json.member "max" j) num_opt)
      with
      | Some mn, Some mx when mn <= mx ->
          t.min <- mn;
          t.max <- mx;
          Ok t
      | _ -> Error "Histogram.of_json: missing or inverted min/max"
