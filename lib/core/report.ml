module Stats = Satin_engine.Stats

let section title =
  let pad = max 0 (70 - String.length title - 10) in
  Printf.sprintf "\n==== %s %s\n" title (String.make pad '=')

let table ~header rows =
  List.iter
    (fun row ->
      if List.length row <> List.length header then
        invalid_arg "Report.table: row arity mismatch")
    rows;
  let cells = header :: rows in
  let ncols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 cells
  in
  let widths = List.init ncols width in
  let render_row row =
    String.concat "  "
      (List.mapi
         (fun c cell -> Printf.sprintf "%-*s" (List.nth widths c) cell)
         row)
  in
  let rule =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (render_row header :: rule :: List.map render_row rows)
  ^ "\n"

let sci x = Printf.sprintf "%.2e" x
let pct x = Printf.sprintf "%.3f%%" x

let boxplot_row ~label (b : Stats.boxplot) ~width ~lo ~hi =
  let span = if hi > lo then hi -. lo else 1.0 in
  let pos x =
    let p = int_of_float (float_of_int (width - 1) *. ((x -. lo) /. span)) in
    min (width - 1) (max 0 p)
  in
  let lane = Bytes.make width ' ' in
  let put i c = Bytes.set lane i c in
  let lw = pos b.Stats.low_whisker
  and q1 = pos b.Stats.q1
  and med = pos b.Stats.median
  and q3 = pos b.Stats.q3
  and hw = pos b.Stats.high_whisker in
  for i = lw to hw do
    put i '-'
  done;
  for i = q1 to q3 do
    put i '='
  done;
  put lw '|';
  put hw '|';
  put q1 '[';
  put q3 ']';
  put med '#';
  List.iter (fun o -> put (pos o) 'o') b.Stats.outliers;
  Printf.sprintf "%-10s %s" label (Bytes.to_string lane)

let bar ~label ~value ~max_value ~width =
  let frac = if max_value > 0.0 then value /. max_value else 0.0 in
  let n = int_of_float (Float.round (frac *. float_of_int width)) in
  let n = min width (max 0 n) in
  Printf.sprintf "%-20s %s %s" label (String.make n '#') (pct value)
