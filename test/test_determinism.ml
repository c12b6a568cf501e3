(* The parallel runner's contract: a pooled run is a pure wall-clock
   optimization. The full quick evaluation report and every spec's
   machine-readable summary must be byte-identical at jobs=1 and jobs=4,
   whatever the seed. *)

module Registry = Satin.Registry
module Runner = Satin_runner.Runner
module Json = Satin_obs.Json

(* One [Registry.all ~quick:true] per (jobs, seed), shared by the report
   and summary cases (and by [Test_registry]): the printed report, and the
   serialized summaries of every spec. *)
let runs = Hashtbl.create 8

let quick_all ~jobs ~seed =
  match Hashtbl.find_opt runs (jobs, seed) with
  | Some r -> r
  | None ->
      let pool =
        if jobs = 1 then Runner.sequential
        else Runner.create ~clamp:false ~jobs ()
      in
      let buf = Buffer.create (1 lsl 16) in
      let fmt = Format.formatter_of_buffer buf in
      let summaries = Registry.all fmt ~pool ~seed ~quick:true in
      Format.pp_print_flush fmt ();
      let r = (Buffer.contents buf, Json.to_string (Json.Obj summaries)) in
      Hashtbl.replace runs (jobs, seed) r;
      r

(* First divergence position, for a failure message that actually helps. *)
let check_identical what seq par =
  if not (String.equal seq par) then begin
    let n = min (String.length seq) (String.length par) in
    let i = ref 0 in
    while !i < n && seq.[!i] = par.[!i] do
      incr i
    done;
    let context s =
      let from = max 0 (!i - 40) in
      String.sub s from (min 80 (String.length s - from))
    in
    Alcotest.failf "%s diverges at byte %d:\n  jobs=1: %S\n  jobs=4: %S" what
      !i (context seq) (context par)
  end

let test_identical what part seed () =
  check_identical
    (Printf.sprintf "%s (seed %d)" what seed)
    (part (quick_all ~jobs:1 ~seed))
    (part (quick_all ~jobs:4 ~seed))

let seeds = [ 7; 11; 42 ]

let suite =
  List.concat_map
    (fun seed ->
      [
        Alcotest.test_case
          (Printf.sprintf "run_all report jobs 1 = 4 (seed %d)" seed)
          `Slow
          (test_identical "all --quick report" fst seed);
        Alcotest.test_case
          (Printf.sprintf "json summary jobs 1 = 4 (seed %d)" seed)
          `Slow
          (test_identical "--json summary" snd seed);
      ])
    seeds
