type t = {
  mutable earlier : (float array * int) list; (* [append]ed, latest first *)
  mutable data : float array;
  mutable size : int;
  mutable sorted : float array option; (* cache, invalidated on add *)
}

let create () = { earlier = []; data = [||]; size = 0; sorted = None }

let add t x =
  if Float.is_nan x then invalid_arg "Stats.add: NaN sample";
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let ndata = Array.make ncap 0.0 in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.sorted <- None

(* Every sample, as (array, count) runs in insertion order. *)
let runs t = List.rev ((t.data, t.size) :: t.earlier)

(* A sample array is only ever written past its count, so [t] adopts
   [src]'s arrays instead of copying them: they keep the samples they
   were adopted with, whatever [src] does next. *)
let append t src =
  t.earlier <-
    List.filter
      (fun (_, n) -> n > 0)
      (List.rev_append (runs src) ((t.data, t.size) :: t.earlier));
  t.data <- [||];
  t.size <- 0;
  t.sorted <- None

let add_time t x = add t (Sim_time.to_sec_f x)
let count t = List.fold_left (fun c (_, n) -> c + n) t.size t.earlier
let is_empty t = count t = 0

let check_nonempty t name =
  if is_empty t then invalid_arg ("Stats." ^ name ^ ": empty")

let fold f init t =
  let run acc (a, n) =
    let acc = ref acc in
    for i = 0 to n - 1 do
      acc := f !acc a.(i)
    done;
    !acc
  in
  List.fold_left run init (runs t)

let iter f t = fold (fun () x -> f x) () t

let total t = fold ( +. ) 0.0 t

let mean t =
  check_nonempty t "mean";
  total t /. float_of_int (count t)

let min t =
  check_nonempty t "min";
  fold Stdlib.min infinity t

let max t =
  check_nonempty t "max";
  fold Stdlib.max neg_infinity t

let stddev t =
  check_nonempty t "stddev";
  if count t = 1 then 0.0
  else
    let m = mean t in
    let ss = fold (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 t in
    sqrt (ss /. float_of_int (count t - 1))

let to_array t =
  let a = Array.make (count t) 0.0 and k = ref 0 in
  List.iter (fun (r, n) -> Array.blit r 0 a !k n; k := !k + n) (runs t);
  a

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
      let a = to_array t in
      Array.sort Float.compare a;
      t.sorted <- Some a;
      a

let quantile t q =
  check_nonempty t "quantile";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q out of [0,1]";
  let a = sorted t in
  let n = Array.length a in
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor h) in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let frac = h -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median t = quantile t 0.5

type boxplot = {
  low_whisker : float;
  q1 : float;
  median : float;
  q3 : float;
  high_whisker : float;
  outliers : float list;
}

let boxplot t =
  check_nonempty t "boxplot";
  let q1 = quantile t 0.25 and q3 = quantile t 0.75 in
  let med = quantile t 0.5 in
  let iqr = q3 -. q1 in
  let lo_fence = q1 -. (1.5 *. iqr) and hi_fence = q3 +. (1.5 *. iqr) in
  let a = sorted t in
  let inside = Array.to_list a |> List.filter (fun x -> x >= lo_fence && x <= hi_fence) in
  let low_whisker = match inside with x :: _ -> x | [] -> q1 in
  let high_whisker =
    match List.rev inside with x :: _ -> x | [] -> q3
  in
  let outliers =
    Array.to_list a |> List.filter (fun x -> x < lo_fence || x > hi_fence)
  in
  { low_whisker; q1; median = med; q3; high_whisker; outliers }

let histogram t ~bins =
  check_nonempty t "histogram";
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  let lo = min t and hi = max t in
  let width = (hi -. lo) /. float_of_int bins in
  let counts = Array.make bins 0 in
  iter
    (fun x ->
      let b =
        if width <= 0.0 then 0
        else Stdlib.min (bins - 1) (int_of_float ((x -. lo) /. width))
      in
      counts.(b) <- counts.(b) + 1)
    t;
  List.init bins (fun b -> (lo +. (float_of_int b *. width), counts.(b)))

let pp_sci fmt x = Format.fprintf fmt "%.2e" x

let summary_row t =
  Format.asprintf "%a / %a / %a" pp_sci (mean t) pp_sci (max t) pp_sci (min t)

module Running = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity; total = 0.0 }

  let add t x =
    if Float.is_nan x then invalid_arg "Stats.Running.add: NaN sample";
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    t.total <- t.total +. x

  let count t = t.n

  let check t name = if t.n = 0 then invalid_arg ("Stats.Running." ^ name ^ ": empty")

  let mean t =
    check t "mean";
    t.mean

  let variance t =
    check t "variance";
    if t.n = 1 then 0.0 else t.m2 /. float_of_int (t.n - 1)

  let stddev t = sqrt (variance t)

  let min t =
    check t "min";
    t.min

  let max t =
    check t "max";
    t.max

  let total t = t.total
end
