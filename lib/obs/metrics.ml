module Stats = Satin_engine.Stats
module Sim_time = Satin_engine.Sim_time

type labels = (string * string) list

type series =
  | Counter of int ref
  | Gauge of float ref
  | Histogram of Stats.t
  | Buckets of Histogram.t
  | Unresolved (* a key's cell before its first use; never in [table] *)

type t = {
  bucketed : bool;
  table : (string * labels, series) Hashtbl.t;
  mutable cells : series array; (* by key, filled from [table] on first use *)
}

let create ?(bucketed = false) () =
  { bucketed; table = Hashtbl.create 64; cells = [||] }

let canonical name labels =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then
          invalid_arg
            (Printf.sprintf "Metrics: duplicate label key %S on metric %S" a name)
        else check rest
    | [ _ ] | [] -> ()
  in
  check sorted;
  (name, sorted)

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ | Buckets _ -> "histogram"
  | Unresolved -> "unresolved"

(* ---- series keys ----

   Keys are minted at module initialization and when components are
   deployed, which happens on worker domains too, so the intern table is
   mutex-guarded. Hooks never touch it: they index a registry's [cells]. *)

type key = int

let intern_lock = Mutex.create ()
let interned : (string * labels, key) Hashtbl.t = Hashtbl.create 64
let key_series : (string * labels) array ref = ref [||]

let key ?(labels = []) name =
  let series = canonical name labels in
  Mutex.protect intern_lock (fun () ->
      match Hashtbl.find_opt interned series with
      | Some k -> k
      | None ->
          let k = Hashtbl.length interned in
          let n = Array.length !key_series in
          if k = n then begin
            let grown = Array.make (max 64 (2 * n)) series in
            Array.blit !key_series 0 grown 0 n;
            key_series := grown
          end;
          !key_series.(k) <- series;
          Hashtbl.replace interned series k;
          k)

let series_of_key k = Mutex.protect intern_lock (fun () -> !key_series.(k))

let cell t k =
  if k < Array.length t.cells then Array.unsafe_get t.cells k else Unresolved

(* First keyed use of [k] in [t]: find or create its series in [table] and
   cache it in [cells]. A kind mismatch is cached too, so it raises on
   every use, not only the first. *)
let resolve t k ~make =
  let series = series_of_key k in
  let s =
    match Hashtbl.find_opt t.table series with
    | Some s -> s
    | None ->
        let s = make () in
        Hashtbl.replace t.table series s;
        s
  in
  let n = Array.length t.cells in
  if k >= n then begin
    let cells = Array.make (max (k + 1) (2 * n)) Unresolved in
    Array.blit t.cells 0 cells 0 n;
    t.cells <- cells
  end;
  t.cells.(k) <- s;
  s

let mismatch op k s =
  invalid_arg
    (Printf.sprintf "Metrics.%s: %S is already a %s" op
       (fst (series_of_key k)) (kind_name s))

let counter t k =
  match cell t k with
  | Counter r -> r
  | _ -> (
      match resolve t k ~make:(fun () -> Counter (ref 0)) with
      | Counter r -> r
      | s -> mismatch "counter" k s)

let gauge t k =
  match cell t k with
  | Gauge r -> r
  | _ -> (
      match resolve t k ~make:(fun () -> Gauge (ref 0.0)) with
      | Gauge r -> r
      | s -> mismatch "gauge" k s)

type histogram = series

let histogram t k =
  match cell t k with
  | (Histogram _ | Buckets _) as h -> h
  | _ -> (
      let make () =
        if t.bucketed then Buckets (Histogram.create ())
        else Histogram (Stats.create ())
      in
      match resolve t k ~make with
      | (Histogram _ | Buckets _) as h -> h
      | s -> mismatch "histogram" k s)

let record h v =
  match h with
  | Histogram s -> Stats.add s v
  | Buckets b -> Histogram.add b v
  | Counter _ | Gauge _ | Unresolved -> assert false

let merge ~into src =
  if into.bucketed <> src.bucketed then
    invalid_arg "Metrics.merge: an exact and a bucketed registry do not merge";
  Hashtbl.iter
    (fun series s ->
      match (Hashtbl.find_opt into.table series, s) with
      | None, _ -> Hashtbl.replace into.table series s
      | Some (Counter a), Counter b -> a := !a + !b
      | Some (Gauge a), Gauge b -> a := !b
      | Some (Histogram a), Histogram b -> Stats.append a b
      | Some (Buckets a), Buckets b -> Histogram.merge_into a b
      | Some d, _ ->
          invalid_arg
            (Printf.sprintf "Metrics.merge: %S is already a %s" (fst series)
               (kind_name d)))
    src.table

(* ---- by name ---- *)

let incr t ?labels ?(by = 1) name =
  let r = counter t (key ?labels name) in
  r := !r + by

let set t ?labels name v = gauge t (key ?labels name) := v
let observe t ?labels name v = record (histogram t (key ?labels name)) v

let observe_time t ?labels name d = observe t ?labels name (Sim_time.to_sec_f d)

let series_count t = Hashtbl.length t.table

let lookup t name labels = Hashtbl.find_opt t.table (canonical name labels)

let counter_value t ?(labels = []) name =
  match lookup t name labels with Some (Counter r) -> Some !r | _ -> None

let gauge_value t ?(labels = []) name =
  match lookup t name labels with Some (Gauge r) -> Some !r | _ -> None

let histogram_stats t ?(labels = []) name =
  match lookup t name labels with Some (Histogram s) -> Some s | _ -> None

type view =
  [ `Counter of int
  | `Gauge of float
  | `Histogram of Stats.t
  | `Buckets of Histogram.t ]

let sorted_entries t =
  let entries =
    Hashtbl.fold (fun (name, labels) s acc -> (name, labels, s) :: acc) t.table []
  in
  List.sort (fun (n1, l1, _) (n2, l2, _) -> compare (n1, l1) (n2, l2)) entries

let iter_sorted t f =
  List.iter
    (fun (name, labels, s) ->
      let view =
        match s with
        | Counter r -> `Counter !r
        | Gauge r -> `Gauge !r
        | Histogram st -> `Histogram st
        | Buckets b -> `Buckets b
        | Unresolved -> assert false
      in
      f name labels view)
    (sorted_entries t)

(* ---- snapshots ---- *)

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let series_json name labels s =
  let head = [ ("name", Json.String name); ("labels", labels_json labels) ] in
  match s with
  | Counter r -> Json.Obj (head @ [ ("value", Json.Int !r) ])
  | Gauge r -> Json.Obj (head @ [ ("value", Json.float !r) ])
  | Histogram s ->
      let quantile q = if Stats.is_empty s then Json.Null else Json.float (Stats.quantile s q) in
      let stat f = if Stats.is_empty s then Json.Null else Json.float (f s) in
      Json.Obj
        (head
        @ [
            ("count", Json.Int (Stats.count s));
            ("total", stat Stats.total);
            ("mean", stat Stats.mean);
            ("min", stat Stats.min);
            ("max", stat Stats.max);
            ("p50", quantile 0.5);
            ("p90", quantile 0.9);
            ("p99", quantile 0.99);
          ])
  | Buckets b ->
      Json.Obj
        (head
        @ [ ("count", Json.Int (Histogram.count b)); ("buckets", Histogram.to_json b) ])
  | Unresolved -> assert false

let snapshot t ~at =
  let entries = sorted_entries t in
  let bucket kind =
    List.filter_map
      (fun (name, labels, s) ->
        if String.equal (kind_name s) kind then Some (series_json name labels s)
        else None)
      entries
  in
  Json.Obj
    [
      ("at", Json.float (Sim_time.to_sec_f at));
      ("counters", Json.List (bucket "counter"));
      ("gauges", Json.List (bucket "gauge"));
      ("histograms", Json.List (bucket "histogram"));
    ]
