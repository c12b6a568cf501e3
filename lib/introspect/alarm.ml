module Sim_time = Satin_engine.Sim_time

type severity = Info | Alert

type entry = {
  seq : int;
  time : Sim_time.t;
  severity : severity;
  area_index : int;
  core : int;
  offsets : int list;
  digest : int64;
}

type t = {
  log_clean_rounds : bool;
  genesis : int64;
  mutable log : entry list; (* newest first *)
  mutable next_seq : int;
  mutable alarm_hooks : (entry -> unit) list;
}

let genesis_value = 0x5a71a17e_0001L

let create ?(log_clean_rounds = false) () =
  {
    log_clean_rounds;
    genesis = genesis_value;
    log = [];
    next_seq = 0;
    alarm_hooks = [];
  }

let genesis t = t.genesis

(* Serialize an entry's payload (everything but the digest) and absorb it
   into the chain after the previous digest. *)
let payload_string ~seq ~time ~severity ~area_index ~core ~offsets =
  Printf.sprintf "%d|%d|%s|%d|%d|%s" seq time
    (match severity with Info -> "i" | Alert -> "A")
    area_index core
    (String.concat "," (List.map string_of_int offsets))

let chain_digest ~prev ~payload =
  let h = Hash.absorb_int64 Hash.init prev in
  String.fold_left (fun acc c -> Hash.step acc (Char.code c)) h payload

let head_digest t =
  match t.log with [] -> t.genesis | e :: _ -> e.digest

let append t ~time ~severity ~area_index ~core ~offsets =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let payload = payload_string ~seq ~time ~severity ~area_index ~core ~offsets in
  let digest = chain_digest ~prev:(head_digest t) ~payload in
  let entry = { seq; time; severity; area_index; core; offsets; digest } in
  t.log <- entry :: t.log;
  if severity = Alert then List.iter (fun f -> f entry) t.alarm_hooks;
  entry

let record_round t (round : Round.t) =
  let tampered = Round.detected round in
  if tampered || t.log_clean_rounds then
    ignore
      (append t ~time:round.Round.started
         ~severity:(if tampered then Alert else Info)
         ~area_index:round.Round.area_index ~core:round.Round.core
         ~offsets:round.Round.verdict.Checker.v_offsets)

let attach_satin t satin = Satin.on_round satin (record_round t)

let entries t = List.rev t.log
let alarms t = List.rev (List.filter (fun e -> e.severity = Alert) t.log)
let count t = List.length t.log

let verify_entries ~genesis log =
  let rec go prev expected_seq = function
    | [] -> true
    | e :: rest ->
        let payload =
          payload_string ~seq:e.seq ~time:e.time ~severity:e.severity
            ~area_index:e.area_index ~core:e.core ~offsets:e.offsets
        in
        e.seq = expected_seq
        && Int64.equal e.digest (chain_digest ~prev ~payload)
        && go e.digest (expected_seq + 1) rest
  in
  go genesis 0 log

let verify_chain t = verify_entries ~genesis:t.genesis (entries t)

let on_alarm t f = t.alarm_hooks <- t.alarm_hooks @ [ f ]
