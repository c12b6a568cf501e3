type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let s n = n * 1_000_000_000
let of_sec_f x = int_of_float (Float.round (x *. 1e9))
let to_sec_f t = float_of_int t /. 1e9
let of_ns_f x = int_of_float (Float.round x)
let add = ( + )
let sub = ( - )
let diff a b = a - b
let min (a : t) (b : t) = if a <= b then a else b
let max (a : t) (b : t) = if a >= b then a else b
let compare (a : t) (b : t) = Stdlib.compare a b
let scale t k = of_ns_f (float_of_int t *. k)
let is_negative t = t < 0

let until_next_multiple ~period now =
  if period <= 0 then invalid_arg "Sim_time.until_next_multiple: period <= 0";
  (((now / period) + 1) * period) - now

let pp fmt t =
  let sec = to_sec_f t in
  let abs = Float.abs sec in
  if abs >= 1.0 || t = 0 then Format.fprintf fmt "%.3f s" sec
  else Format.fprintf fmt "%.3e s" sec

let to_string t = Format.asprintf "%a" pp t
