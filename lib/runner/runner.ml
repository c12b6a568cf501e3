module Obs = Satin_obs.Obs
module Progress = Satin_obs.Progress

module Metric = struct
  let batches = Obs.key "runner.batches"
  let trials = Obs.key "runner.trials"
  let queue_depth = Obs.key "runner.queue_depth"
  let batch_wall_s = Obs.key "runner.batch_wall_s"
  let jobs_requested = Obs.key "runner.jobs_requested"
  let jobs_effective = Obs.key "runner.jobs_effective"

  let domain_trials w =
    Obs.key ~labels:[ ("domain", string_of_int w) ] "runner.domain_trials"
end

type t = {
  jobs : int;
  effective_jobs : int;
  domain_trials : Obs.key array; (* runner.domain_trials{domain=i} *)
  mutable last_wall_s : float;
}

(* Domains beyond the host's cores only add GC-synchronization stalls:
   BENCH_runner.json showed --jobs 4 running at 0.22-0.74x of --jobs 1 on
   a 1-core host before the clamp. The requested width is kept for
   reporting; dispatch uses the clamped width. *)
let host_cores () = Domain.recommended_domain_count ()

let create ?(clamp = true) ?(jobs = 1) () =
  if jobs < 1 then invalid_arg "Runner.create: jobs must be >= 1";
  let cores = host_cores () in
  if clamp && jobs > cores then
    Printf.eprintf
      "runner: --jobs %d exceeds the %d available core(s); clamping to %d\n%!"
      jobs cores cores;
  let effective_jobs = if clamp then min jobs cores else jobs in
  let domain_trials = Array.init effective_jobs Metric.domain_trials in
  { jobs; effective_jobs; domain_trials; last_wall_s = 0.0 }

let sequential = create ()
let jobs t = t.jobs
let effective_jobs t = t.effective_jobs
let last_batch_wall_s t = t.last_wall_s

(* Set while the current domain is executing a trial body; [map] from a
   flagged domain is a nested fan-out and is rejected. *)
let in_trial = Domain.DLS.new_key (fun () -> false)

type 'a cell =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

let run_trial f i =
  match f i with
  | v ->
      Progress.trial_done ~hit:false;
      Done v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Failed (e, bt)

(* Submission-order collection: Array.map visits indices in order, so the
   lowest-indexed failure is the one re-raised. *)
let collect results =
  Array.map
    (function
      | Done v -> v
      | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
      | Pending -> assert false)
    results

let record_metrics pool ~n ~effective ~wall executed =
  Obs.incr Metric.batches;
  Obs.incr Metric.trials ~by:n;
  Obs.set_gauge Metric.queue_depth 0.0;
  (* Wall time is the one nondeterministic reading here; it goes to the
     segregated real-time registry so --metrics output stays byte-stable.
     The pool widths and each domain's share of the batch join it: they
     depend on the host (the clamp) and on scheduling, not on the
     simulated run. *)
  Obs.observe_wall Metric.batch_wall_s wall;
  Obs.observe_wall Metric.jobs_requested (float_of_int pool.jobs);
  Obs.observe_wall Metric.jobs_effective (float_of_int effective);
  Array.iteri (fun w c -> Obs.observe_wall pool.domain_trials.(w) (float c))
    executed

let map pool n f =
  if n < 0 then invalid_arg "Runner.map: negative batch size";
  if Domain.DLS.get in_trial then
    invalid_arg "Runner.map: nested use (map called from inside a trial)";
  let jobs = min pool.effective_jobs n in
  Obs.set_gauge Metric.queue_depth (float_of_int n);
  Progress.batch_start n;
  let wall0 = Unix.gettimeofday () in
  let results = Array.make n Pending in
  let executed =
    if jobs <= 1 then begin
      Domain.DLS.set in_trial true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set in_trial false)
        (fun () ->
          for i = 0 to n - 1 do
            results.(i) <- run_trial f i
          done);
      [| n |]
    end
    else begin
      let next = Atomic.make 0 in
      let executed = Array.make jobs 0 in
      (* Work stealing over a chunked atomic cursor: each worker claims a
         run of [chunk] indices per fetch-and-add, amortizing the shared-
         counter traffic and domain wake-ups over several trials while
         leaving enough chunks (about 8 per worker) for load balancing.
         Each worker writes private result slots, so domains never touch
         the same location and the result array is index-ordered by
         construction. *)
      let chunk = max 1 (n / (jobs * 8)) in
      let worker w =
        Domain.DLS.set in_trial true;
        let count = ref 0 in
        let rec loop () =
          let lo = Atomic.fetch_and_add next chunk in
          if lo < n then begin
            let hi = min (lo + chunk) n in
            for i = lo to hi - 1 do
              results.(i) <- run_trial f i;
              incr count
            done;
            loop ()
          end
        in
        loop ();
        Domain.DLS.set in_trial false;
        executed.(w) <- !count
      in
      let others =
        Array.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1)))
      in
      Fun.protect
        ~finally:(fun () -> Array.iter Domain.join others)
        (fun () -> worker 0);
      executed
    end
  in
  let wall = Unix.gettimeofday () -. wall0 in
  pool.last_wall_s <- wall;
  record_metrics pool ~n ~effective:jobs ~wall executed;
  collect results
