module Key = Satin_store.Key
module Codec = Satin_store.Codec
module Store = Satin_store.Store
module Memo = Satin_store.Memo
module Fingerprint = Satin_store.Fingerprint
module Runner = Satin_runner.Runner
module Obs = Satin_obs.Obs
module Metrics = Satin_obs.Metrics

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "satin_store_test_%d_%d" (Unix.getpid ()) !counter)
    in
    (match Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)) with
    | 0 -> ()
    | _ -> ());
    dir

(* ---- codec ---- *)

(* Arbitrary pure-data payloads: the codec must round-trip anything the
   experiment summaries are built from. *)
let payload_arb =
  QCheck.(
    pair string (pair (list (pair small_int float)) (array small_string)))

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec round-trips any pure payload"
    QCheck.(pair string payload_arb)
    (fun (experiment, payload) ->
      let bytes = Codec.encode ~experiment payload in
      match Codec.decode bytes with
      | Ok v -> v = payload
      | Error e -> QCheck.Test.fail_reportf "decode: %s" (Codec.error_to_string e))

let prop_codec_detects_flip =
  (* Flipping any single bit of the record must yield an error, never a
     silently different payload. (Flips inside the header may surface as
     any header error; flips in the payload must be Bad_checksum.) *)
  QCheck.Test.make ~name:"codec rejects any single-bit flip"
    QCheck.(pair payload_arb (pair small_nat (int_bound 7)))
    (fun (payload, (pos, bit)) ->
      let bytes = Bytes.of_string (Codec.encode ~experiment:"flip" payload) in
      let pos = pos mod Bytes.length bytes in
      Bytes.set bytes pos
        (Char.chr (Char.code (Bytes.get bytes pos) lxor (1 lsl bit)));
      match Codec.decode (Bytes.to_string bytes) with
      | Error _ -> true
      | Ok v ->
          (* The only acceptable Ok is the flip landing in the stored
             checksum's hex case or similar being impossible: require the
             payload to come back exact, else fail. *)
          if v = payload then
            QCheck.Test.fail_reportf
              "flip at byte %d bit %d was absorbed silently" pos bit
          else
            QCheck.Test.fail_reportf "flip at byte %d bit %d decoded Ok" pos
              bit)

let test_codec_errors () =
  let record = Codec.encode ~experiment:"e1" (1, 2.0) in
  (match (Codec.decode "not a record" : (unit, _) result) with
  | Error Codec.Bad_magic -> ()
  | _ -> Alcotest.fail "junk accepted");
  (match
     (Codec.decode
        (Printf.sprintf "satin-store/v9\ne1\n%s\n4\nabcd" (String.make 32 '0'))
       : (unit, _) result)
   with
  | Error (Codec.Bad_version v) ->
      Alcotest.(check string) "foreign version reported" "satin-store/v9" v
  | _ -> Alcotest.fail "foreign version accepted");
  (match
     (Codec.decode (String.sub record 0 (String.length record - 3))
       : (unit, _) result)
   with
  | Error (Codec.Truncated | Codec.Bad_checksum) -> ()
  | _ -> Alcotest.fail "truncated record accepted");
  match Codec.decode_raw record with
  | Ok (e, _) -> Alcotest.(check string) "header experiment" "e1" e
  | Error e -> Alcotest.fail (Codec.error_to_string e)

(* ---- keys ---- *)

let test_key_field_order_independent () =
  let a =
    Key.make ~experiment:"table2" ~seed:42 ~trial_index:3
      ~config:[ ("rounds", "50"); ("period_s", Key.f 0.5) ]
      ()
  in
  let b =
    Key.make ~experiment:"table2" ~seed:42 ~trial_index:3
      ~config:[ ("period_s", Key.f 0.5); ("rounds", "50") ]
      ()
  in
  Alcotest.(check string) "order-independent" a b;
  Alcotest.(check string)
    "canonical encodings equal"
    (Key.canonical [ ("b", "2"); ("a", "1") ])
    (Key.canonical [ ("a", "1"); ("b", "2") ])

let test_key_sensitivity () =
  let base ?(experiment = "e1") ?(seed = 42) ?(trial = 0)
      ?(config = [ ("runs", "100") ]) () =
    Key.make ~experiment ~seed ~trial_index:trial ~config ()
  in
  let k = base () in
  Alcotest.(check bool) "seed matters" true (k <> base ~seed:43 ());
  Alcotest.(check bool) "trial matters" true (k <> base ~trial:1 ());
  Alcotest.(check bool)
    "experiment matters" true
    (k <> base ~experiment:"e3" ());
  Alcotest.(check bool)
    "config value matters" true
    (k <> base ~config:[ ("runs", "101") ] ());
  Alcotest.(check bool)
    "config field matters" true
    (k <> base ~config:[ ("runs", "100"); ("extra", "1") ] ());
  (* Ambient context (the CLI's --check marker) must change every key. *)
  Key.set_ambient [ ("check", "1") ];
  let k_check = base () in
  Key.set_ambient [];
  Alcotest.(check bool) "ambient context matters" true (k <> k_check);
  Alcotest.(check string) "ambient restored" k (base ());
  (* A rebuilt binary (different fingerprint) must never share keys. *)
  Fingerprint.override_for_testing (Some (String.make 32 'f'));
  let k_other_build = base () in
  Fingerprint.override_for_testing None;
  Alcotest.(check bool) "fingerprint matters" true (k <> k_other_build);
  Alcotest.(check string) "fingerprint restored" k (base ())

let test_key_rejects_duplicate_fields () =
  try
    ignore (Key.canonical [ ("a", "1"); ("a", "2") ]);
    Alcotest.fail "duplicate field accepted"
  with Invalid_argument _ -> ()

let test_key_escaping () =
  (* Values containing the separator bytes must not be confusable with
     differently-split fields. *)
  let a = Key.canonical [ ("a", "1\nb=2") ] in
  let b = Key.canonical [ ("a", "1"); ("b", "2") ] in
  Alcotest.(check bool) "newline-in-value not confusable" true (a <> b)

(* ---- store ---- *)

let test_store_roundtrip_and_persistence () =
  let dir = tmp_dir () in
  let s = Store.open_ dir in
  let key = Key.make ~experiment:"rt" ~seed:1 ~trial_index:0 () in
  Alcotest.(check bool) "cold miss" true (Store.find s ~key = (None : int option));
  Store.add s ~key ~experiment:"rt" 1234;
  Alcotest.(check (option int)) "hit after add" (Some 1234) (Store.find s ~key);
  (* A fresh handle on the same directory reads the same file. *)
  let s2 = Store.open_ dir in
  Alcotest.(check (option int)) "hit after reopen" (Some 1234) (Store.find s2 ~key);
  Alcotest.(check int) "one live record" 1 (Store.live_records s2);
  let c = Store.counters s in
  Alcotest.(check int) "hits counted" 1 c.Store.hits;
  Alcotest.(check int) "misses counted" 1 c.Store.misses;
  Alcotest.(check int) "writes counted" 1 c.Store.writes;
  (* A closed handle refuses lookups and counts a write as failed. *)
  Store.close s;
  Alcotest.check_raises "find on a closed handle"
    (Unix.Unix_error (Unix.EBADF, "Store", dir))
    (fun () -> ignore (Store.find s ~key : int option));
  Store.add s ~key ~experiment:"rt" 1234;
  Alcotest.(check int) "add on a closed handle" 1
    (Store.counters s).Store.write_errors;
  Store.close s2

let find_record_file dir =
  let rec walk acc p =
    if Sys.is_directory p then
      Array.fold_left (fun acc f -> walk acc (Filename.concat p f)) acc
        (Sys.readdir p)
    else if Filename.check_suffix p ".rec" then p :: acc
    else acc
  in
  walk [] (Filename.concat dir "objects")

let test_store_quarantines_corruption () =
  let dir = tmp_dir () in
  let s = Store.open_ dir in
  let key = Key.make ~experiment:"corrupt" ~seed:7 ~trial_index:0 () in
  Store.add s ~key ~experiment:"corrupt" [| 1.0; 2.0; 3.0 |];
  (match find_record_file dir with
  | [ path ] ->
      (* Flip one bit in the payload on disk. *)
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let bytes = really_input_string ic len |> Bytes.of_string in
      close_in ic;
      let pos = len - 1 in
      Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 1));
      let oc = open_out_bin path in
      output_bytes oc bytes;
      close_out oc
  | files ->
      Alcotest.failf "expected exactly one record file, found %d"
        (List.length files));
  (* The flipped record must read as a miss, never as data... *)
  Alcotest.(check bool)
    "corrupt record not served" true
    (Store.find s ~key = (None : float array option));
  Alcotest.(check int) "corruption counted" 1 (Store.counters s).Store.corrupt;
  (* ...and the file must land in quarantine, not be served on reopen. *)
  Alcotest.(check int) "no live record files" 0
    (List.length (find_record_file dir));
  Alcotest.(check bool)
    "quarantine holds the record" true
    (Array.length (Sys.readdir (Filename.concat dir "quarantine")) = 1);
  let s2 = Store.open_ dir in
  Alcotest.(check bool)
    "miss after reopen" true
    (Store.find s2 ~key = (None : float array option))

(* Every keyed entry point refuses a key that is not 32 lowercase hex
   digits, before anything is counted or touches the disk. *)
let test_store_malformed_key () =
  let s = Store.open_ (tmp_dir ()) in
  let key = "a" in
  List.iter
    (fun (op, f) ->
      Alcotest.check_raises op
        (Invalid_argument ("Store." ^ op ^ ": malformed key"))
        f)
    [
      ("find", fun () -> ignore (Store.find s ~key : int option));
      ("contains", fun () -> ignore (Store.contains s ~key));
      ("find_capsule", fun () -> ignore (Store.find_capsule s ~key));
      ("add", fun () -> Store.add s ~key ~experiment:"k" 1);
      ("add_capsule", fun () -> Store.add_capsule s ~key ~experiment:"k" "{}");
      ("try_claim", fun () -> ignore (Store.try_claim s ~key ~ttl_s:1.0));
      ("release_claim", fun () -> Store.release_claim s ~key);
      ("claim_lease", fun () -> ignore (Store.claim_lease s ~key));
    ];
  let c = Store.counters s in
  Alcotest.(check (list int)) "nothing counted" [ 0; 0; 0; 0; 0; 0 ]
    [ c.Store.misses; c.Store.writes; c.Store.capsule_misses;
      c.Store.capsule_writes; c.Store.claims; c.Store.write_errors ];
  Store.close s

(* The files are the whole store: records copied into a fresh directory,
   with nothing else beside them, are served as they are. *)
let test_store_copied_records_hit () =
  let src = tmp_dir () and dst = tmp_dir () in
  let key i = Key.make ~experiment:"copy" ~seed:5 ~trial_index:i () in
  let s = Store.open_ src in
  for i = 0 to 4 do
    Store.add s ~key:(key i) ~experiment:"copy" (i, i * i)
  done;
  Store.close s;
  Store.mkdir_p dst;
  Alcotest.(check int) "objects/ copied" 0
    (Sys.command
       (Printf.sprintf "cp -R %s %s"
          (Filename.quote (Filename.concat src "objects"))
          (Filename.quote dst)));
  let d = Store.open_ dst in
  for i = 0 to 4 do
    Alcotest.(check bool) "copied record served" true
      (Store.find d ~key:(key i) = Some (i, i * i))
  done;
  let c = Store.counters d in
  Alcotest.(check (pair int int)) "hits, misses" (5, 0) (c.Store.hits, c.Store.misses);
  Alcotest.(check int) "live records" 5 (Store.live_records d);
  Store.close d

let object_path_of dir key =
  Filename.concat dir
    (Filename.concat "objects"
       (Filename.concat (String.sub key 0 2)
          (Filename.concat (String.sub key 2 2) (key ^ ".rec"))))

let write_file path content =
  Store.mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* A killed writer leaves a complete record under its temp name; a
   record moved by hand leaves its key's path. Neither is served or
   counted live, and only the moved one is a violation. *)
let test_store_tmp_and_misplaced () =
  let dir = tmp_dir () in
  let s = Store.open_ dir in
  let key i = Key.make ~experiment:"debris" ~seed:6 ~trial_index:i () in
  Store.add s ~key:(key 0) ~experiment:"debris" 0;
  let live = object_path_of dir (key 0) in
  let size = (Unix.stat live).Unix.st_size in
  let tmp = object_path_of dir (key 1) ^ ".4242.tmp" in
  write_file tmp (Codec.encode ~experiment:"debris" 1);
  write_file (live ^ ".4243.tmp") (Codec.encode ~experiment:"debris" 0);
  Alcotest.(check bool) "a .tmp is not served" true
    (Store.find s ~key:(key 1) = (None : int option));
  Alcotest.(check bool) "a .tmp is not contained" false
    (Store.contains s ~key:(key 1));
  Alcotest.(check (pair int int)) "only the record is live" (1, size)
    (Store.live_records s, Store.live_bytes s);
  Alcotest.(check (list string)) "a .tmp is no violation" []
    (Store.invariant_violations s);
  let k2 = key 2 in
  let moved =
    List.fold_left Filename.concat dir
      [ "objects"; (if String.sub k2 0 2 = "00" then "01" else "00");
        String.sub k2 2 2; k2 ^ ".rec" ]
  in
  write_file moved (Codec.encode ~experiment:"debris" 2);
  Alcotest.(check bool) "a misplaced record is not served" true
    (Store.find s ~key:k2 = (None : int option));
  Alcotest.(check int) "nor counted live" 1 (Store.live_records s);
  Alcotest.(check (list string)) "but reported"
    [ moved ^ " is not at the path its key names" ]
    (Store.invariant_violations s);
  Store.close s

(* ---- memo ---- *)

let with_store dir f =
  let s = Store.open_ dir in
  Store.install s;
  Fun.protect ~finally:Store.uninstall (fun () -> f s)

let trial i = (i, float_of_int (i * i) /. 7.0)

let test_memo_counts_and_resume () =
  let dir = tmp_dir () in
  let run () =
    with_store dir (fun s ->
        let r =
          Memo.map Runner.sequential ~experiment:"memo" ~seed:42
            ~config:[ ("n", "10") ]
            10 trial
        in
        (r, Store.counters s))
  in
  let cold, c1 = run () in
  Alcotest.(check int) "cold: all miss" 10 c1.Store.misses;
  Alcotest.(check int) "cold: no hits" 0 c1.Store.hits;
  let warm, c2 = run () in
  Alcotest.(check int) "warm: all hit" 10 c2.Store.hits;
  Alcotest.(check int) "warm: no misses" 0 c2.Store.misses;
  Alcotest.(check bool) "warm results identical" true (cold = warm);
  (* Partial warmth — e.g. a campaign killed mid-batch: grow the fan-out
     and only the new indices are computed. *)
  let bigger, c3 =
    with_store dir (fun s ->
        let r =
          Memo.map Runner.sequential ~experiment:"memo" ~seed:42
            ~config:[ ("n", "10") ]
            15 trial
        in
        (r, Store.counters s))
  in
  Alcotest.(check int) "resume: old trials hit" 10 c3.Store.hits;
  Alcotest.(check int) "resume: only new trials computed" 5 c3.Store.misses;
  Array.iteri
    (fun i v -> Alcotest.(check bool) "resume values correct" true (v = trial i))
    bigger;
  (* Unsharded, a run is shard 0 of 1: it owns every trial and claims none. *)
  Alcotest.(check int) "no claims taken" 0 c3.Store.claims;
  Alcotest.(check (array string)) "claims/ left empty" [||]
    (Sys.readdir (Filename.concat dir "claims"))

let test_memo_warm_matches_any_pool_width () =
  let dir = tmp_dir () in
  let run pool =
    with_store dir (fun _ ->
        Memo.map pool ~experiment:"width" ~seed:9
          ~trial_config:(fun i -> [ ("tp", Key.f (float_of_int i)) ])
          20 trial)
  in
  let cold = run Runner.sequential in
  let warm_par = run (Runner.create ~clamp:false ~jobs:4 ()) in
  let no_store =
    Memo.map (Runner.create ~clamp:false ~jobs:4 ()) ~experiment:"width" ~seed:9
      ~trial_config:(fun i -> [ ("tp", Key.f (float_of_int i)) ])
      20 trial
  in
  Alcotest.(check bool) "warm jobs=4 = cold jobs=1" true (cold = warm_par);
  Alcotest.(check bool) "store path = storeless path" true (cold = no_store)

let test_memo_without_store_is_plain_map () =
  Store.uninstall ();
  let r = Memo.map Runner.sequential ~experiment:"plain" ~seed:1 5 trial in
  Alcotest.(check bool) "plain map" true (r = Array.init 5 trial)

(* A store that cannot persist anything still serves a complete run: every
   failed write is counted and reported, and the results are unharmed. *)
let test_memo_write_failures_reported () =
  let dir = tmp_dir () in
  let s = Store.open_ dir in
  List.iter
    (fun sub ->
      let path = Filename.concat dir sub in
      Sys.rmdir path;
      close_out (open_out path))
    [ "objects"; "capsules" ];
  Store.install s;
  Fun.protect ~finally:Store.uninstall (fun () ->
      let r =
        Memo.map Runner.sequential ~experiment:"unwritable" ~seed:2 4 trial
      in
      Alcotest.(check bool) "results unharmed" true (r = Array.init 4 trial));
  let c = Store.counters s in
  Alcotest.(check int) "record and capsule write errors" 8 c.Store.write_errors;
  Alcotest.(check int) "no record written" 0 c.Store.writes;
  Alcotest.(check int) "no capsule written" 0 c.Store.capsule_writes;
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "summary line reports them" true
    (contains (Store.summary_line s) "0 corrupt, 8 write error(s);");
  Store.close s

(* Under a sink, a fan-out is one pool batch whatever the store holds;
   [runner.trials] counts the trials this call computed, in the pool or
   stolen after it, and [runner.trials_resolved], recorded only with a
   store, the ones it served from it. *)
let test_memo_one_batch_per_call () =
  let n = 6 and experiment = "batches" and seed = 4 in
  let run () = Memo.map Runner.sequential ~experiment ~seed n trial in
  let check label want =
    let obs = Obs.create () in
    Obs.install obs;
    let got =
      Fun.protect ~finally:Obs.uninstall (fun () ->
          Alcotest.(check bool) (label ^ ": results") true
            (run () = Array.init n trial);
          let c = Metrics.counter_value (Obs.metrics obs) in
          (c "runner.batches", c "runner.trials", c "runner.trials_resolved"))
    in
    Alcotest.(check (triple (option int) (option int) (option int)))
      (label ^ ": batches, trials, trials_resolved") want got
  in
  Store.uninstall ();
  check "no store" (Some 1, Some n, None);
  let dir = tmp_dir () in
  with_store dir (fun _ -> check "cold" (Some 1, Some n, Some 0));
  with_store dir (fun _ -> check "warm" (Some 1, Some 0, Some n));
  Memo.set_lease_ttl 0.2;
  Fun.protect
    ~finally:(fun () ->
      Memo.set_shard None;
      Memo.set_lease_ttl 60.0)
    (fun () ->
      (* A lone shard computes its own share in the batch and steals the
         rest after the grace, outside the pool: every trial is counted. *)
      with_store (tmp_dir ()) (fun _ ->
          Memo.set_shard (Some (0, 2));
          check "lone shard" (Some 1, Some n, Some 0));
      with_store (tmp_dir ()) (fun _ ->
          Memo.set_shard (Some (0, 1));
          check "shard 0 of 1" (Some 1, Some n, Some 0)))

(* ---- multi-writer: two handles on one directory ---- *)

let test_store_two_handles () =
  let dir = tmp_dir () in
  let a = Store.open_ dir in
  let b = Store.open_ dir in
  let key i = Key.make ~experiment:"mw" ~seed:3 ~trial_index:i () in
  Store.add a ~key:(key 0) ~experiment:"mw" "from-a";
  (* B serves A's record the moment its rename lands, without reopening. *)
  Alcotest.(check (option string))
    "B sees A's add without reopening" (Some "from-a")
    (Store.find b ~key:(key 0));
  Store.add b ~key:(key 1) ~experiment:"mw" "from-b";
  Alcotest.(check (option string))
    "A sees B's add" (Some "from-b")
    (Store.find a ~key:(key 1));
  Alcotest.(check (list string)) "A invariants clean" []
    (Store.invariant_violations a);
  Alcotest.(check (list string)) "B invariants clean" []
    (Store.invariant_violations b);
  Alcotest.(check int) "A sees both live" 2 (Store.live_records a);
  Alcotest.(check int) "B sees both live" 2 (Store.live_records b);
  Store.close a;
  Store.close b;
  let c = Store.open_ dir in
  Alcotest.(check int) "reopen sees both" 2 (Store.live_records c);
  Alcotest.(check (list string)) "reopen invariants clean" []
    (Store.invariant_violations c);
  Store.close c

(* ---- the store against a model, under any add/find/corrupt mix ---- *)

type store_op = Op_add of int | Op_find of int | Op_corrupt of int

let op_arb =
  QCheck.(
    map
      (fun (which, k) ->
        match which mod 3 with
        | 0 -> Op_add k
        | 1 -> Op_find k
        | _ -> Op_corrupt k)
      (pair int (int_bound 5)))

module Ints = Set.Make (Int)

(* The model is two sets: the keys added and not since corrupted, which
   [find] must serve, and the keys corrupted, whose records must sit in
   quarantine/. *)
let prop_store_consistent =
  QCheck.Test.make ~count:60 ~name:"store invariants hold under any op mix"
    QCheck.(list_of_size (Gen.int_range 1 40) op_arb)
    (fun ops ->
      let dir = tmp_dir () in
      let s = Store.open_ dir in
      let key i = Key.make ~experiment:"prop" ~seed:1 ~trial_index:i () in
      let value i = String.make 200 (Char.chr (97 + i)) in
      let live = ref Ints.empty and corrupted = ref Ints.empty in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      List.iter
        (fun op ->
          (match op with
          | Op_add i ->
              Store.add s ~key:(key i) ~experiment:"prop" (value i);
              live := Ints.add i !live
          | Op_find i -> ignore (Store.find s ~key:(key i) : string option)
          | Op_corrupt i ->
              let path = object_path_of dir (key i) in
              if Sys.file_exists path then begin
                write_file path "garbage";
                ignore (Store.find s ~key:(key i) : string option);
                live := Ints.remove i !live;
                corrupted := Ints.add i !corrupted
              end);
          (match Store.invariant_violations s with
          | [] -> ()
          | v -> fail "violations: %s" (String.concat "; " v));
          for i = 0 to 5 do
            let want = if Ints.mem i !live then Some (value i) else None in
            if Store.find s ~key:(key i) <> want then
              fail "find %d disagrees with the model" i
          done;
          Ints.iter
            (fun i ->
              let q = Filename.concat dir ("quarantine/" ^ key i ^ ".rec") in
              if not (Sys.file_exists q) then fail "%d not in quarantine" i)
            !corrupted;
          let s2 = Store.open_ dir in
          let n = Store.live_records s2 in
          Store.close s2;
          if n <> Ints.cardinal !live || Store.live_records s <> n then
            fail "live records %d, reopened %d, model %d"
              (Store.live_records s) n (Ints.cardinal !live))
        ops;
      Store.close s;
      true)

(* ---- mkdir_p ---- *)

let test_mkdir_p () =
  let dir = tmp_dir () in
  let deep = List.fold_left Filename.concat dir [ "a"; "b"; "c"; "d" ] in
  Store.mkdir_p deep;
  Alcotest.(check bool) "deep path created" true (Sys.is_directory deep);
  (* Idempotent: every level already existing is success, not an error. *)
  Store.mkdir_p deep;
  (* Racing creators: domains hammering the same fan-out path must all
     succeed (the old file_exists-then-mkdir version threw EEXIST here). *)
  let race = List.fold_left Filename.concat dir [ "race"; "x"; "y" ] in
  let domains =
    Array.init 4 (fun _ -> Domain.spawn (fun () -> Store.mkdir_p race))
  in
  Array.iter Domain.join domains;
  Alcotest.(check bool) "raced path created" true (Sys.is_directory race);
  (* Relative paths terminate: dirname's fixpoint is ".", which exists. *)
  let cwd = Sys.getcwd () in
  Store.mkdir_p dir;
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () -> Sys.chdir cwd)
    (fun () ->
      Store.mkdir_p "rel/sub/dir";
      Alcotest.(check bool)
        "relative path created" true
        (Sys.is_directory "rel/sub/dir"))

(* A plain file where a directory of the layout belongs is refused at
   open, not discovered as one write error per trial. *)
let test_open_refuses_damaged_layout () =
  List.iter
    (fun sub ->
      let dir = tmp_dir () in
      Store.mkdir_p dir;
      close_out (open_out (Filename.concat dir sub));
      match Store.open_ dir with
      | exception Unix.Unix_error (Unix.EEXIST, _, path) ->
          Alcotest.(check string) (sub ^ ": names the entry")
            (Filename.concat dir sub) path
      | s ->
          Store.close s;
          Alcotest.failf "a plain-file %s/ was accepted" sub)
    [ "objects"; "capsules"; "quarantine"; "claims" ];
  Alcotest.check_raises "a plain file where mkdir_p wants a directory"
    (Unix.Unix_error (Unix.EEXIST, "mkdir", "/dev/null"))
    (fun () -> Store.mkdir_p "/dev/null")

(* ---- claims ---- *)

(* A NaN or infinite TTL would make a waiting shard's grace test
   [now - t0 >= ttl] never true, so it would wait forever for a trial
   nobody claimed. Both entry points refuse it, as they refuse 0. *)
let test_lease_ttl_must_be_finite () =
  let dir = tmp_dir () in
  let s = Store.open_ dir in
  let key = Key.make ~experiment:"ttl" ~seed:1 ~trial_index:0 () in
  let saved = Memo.lease_ttl () in
  List.iter
    (fun ttl ->
      (match Memo.set_lease_ttl ttl with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "Memo.set_lease_ttl %g accepted" ttl);
      match Store.try_claim s ~key ~ttl_s:ttl with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "Store.try_claim ~ttl_s:%g accepted" ttl)
    [ Float.nan; Float.infinity; Float.neg_infinity; 0.0 ];
  Alcotest.(check (float 0.0)) "TTL unchanged" saved (Memo.lease_ttl ());
  Alcotest.(check bool) "no lease written" true (Store.claim_lease s ~key = None);
  Store.close s

let test_claims () =
  let dir = tmp_dir () in
  let s = Store.open_ dir in
  let key = Key.make ~experiment:"claim" ~seed:1 ~trial_index:0 () in
  Alcotest.(check bool) "fresh claim granted" true
    (Store.try_claim s ~key ~ttl_s:30.0);
  Alcotest.(check bool) "own claim re-granted (refresh)" true
    (Store.try_claim s ~key ~ttl_s:30.0);
  (match Store.claim_lease s ~key with
  | Some l ->
      Alcotest.(check int) "lease names us" (Unix.getpid ()) l.Store.lease_pid;
      Alcotest.(check bool) "lease live" true (Store.lease_live l)
  | None -> Alcotest.fail "granted lease unreadable");
  Store.release_claim s ~key;
  Alcotest.(check bool) "released lease gone" true
    (Store.claim_lease s ~key = None);
  (* A lease held by another host is respected until its expiry passes. *)
  let lease_file = Filename.concat dir (Filename.concat "claims" (key ^ ".lease")) in
  let write_lease pid host expiry =
    let oc = open_out_bin lease_file in
    Printf.fprintf oc "%d %s %.3f\n" pid host expiry;
    close_out oc
  in
  write_lease 1 "some-other-host" (Unix.gettimeofday () +. 60.0);
  Alcotest.(check bool) "foreign live lease blocks" false
    (Store.try_claim s ~key ~ttl_s:30.0);
  write_lease 1 "some-other-host" (Unix.gettimeofday () -. 1.0);
  Alcotest.(check bool) "expired lease stolen" true
    (Store.try_claim s ~key ~ttl_s:30.0);
  (* A same-host lease whose pid is provably dead is stolen before its
     expiry. (Scanned for, not forked: on OCaml 5 [Unix.fork] is refused
     once any test has spawned a domain.) *)
  let dead_pid =
    let rec scan p =
      if p < 2 then Alcotest.fail "no dead pid found"
      else
        match Unix.kill p 0 with
        | () -> scan (p - 1)
        | exception Unix.Unix_error (Unix.ESRCH, _, _) -> p
        | exception Unix.Unix_error _ -> scan (p - 1)
    in
    scan 99999
  in
  let host =
    String.map (fun c -> if c = ' ' then '_' else c) (Unix.gethostname ())
  in
  write_lease dead_pid host (Unix.gettimeofday () +. 60.0);
  Alcotest.(check bool) "dead-pid lease stolen" true
    (Store.try_claim s ~key ~ttl_s:30.0);
  let c = Store.counters s in
  Alcotest.(check int) "claims counted" 4 c.Store.claims;
  Alcotest.(check int) "steals counted" 2 c.Store.claim_steals;
  Store.close s

(* ---- sharded memo ---- *)

let test_memo_sharded () =
  let dir = tmp_dir () in
  let expected = Array.init 8 trial in
  let run () =
    Memo.map Runner.sequential ~experiment:"shard" ~seed:3
      ~config:[ ("n", "8") ]
      8 trial
  in
  Memo.set_lease_ttl 0.2;
  Fun.protect
    ~finally:(fun () ->
      Memo.set_shard None;
      Memo.set_lease_ttl 60.0)
    (fun () ->
      (* A lone shard: it computes its owned half immediately and, after
         the grace (one TTL) with no peer claiming, steals the rest — so
         it still returns the full, unsharded-identical result array. *)
      let claims =
        with_store dir (fun s ->
            Memo.set_shard (Some (0, 2));
            let r = run () in
            Alcotest.(check bool) "lone shard = unsharded" true (r = expected);
            Alcotest.(check (list string)) "invariants clean" []
              (Store.invariant_violations s);
            (Store.counters s).Store.claims)
      in
      Alcotest.(check bool) "lone shard claimed trials" true (claims > 0);
      Alcotest.(check (array string)) "every claim released" [||]
        (Sys.readdir (Filename.concat dir "claims"));
      (* Warm pass as the other shard: everything resolves in phase 1. *)
      with_store dir (fun s ->
          Memo.set_shard (Some (1, 2));
          let r = run () in
          Alcotest.(check bool) "warm other shard = unsharded" true
            (r = expected);
          let c = Store.counters s in
          Alcotest.(check int) "warm pass all hits" 8 c.Store.hits;
          Alcotest.(check int) "warm pass no misses" 0 c.Store.misses))

(* A raising trial must not keep its lease: a live lease blocks every
   same-host peer until the process exits or the TTL passes. *)
let test_memo_sharded_failure_releases_claim () =
  let dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () -> Memo.set_shard None)
    (fun () ->
      with_store dir (fun s ->
          Memo.set_shard (Some (0, 2));
          (match
             Memo.map Runner.sequential ~experiment:"raise" ~seed:5 4 (fun _ ->
                 failwith "trial failed")
           with
          | _ -> Alcotest.fail "a raising fan-out returned"
          | exception Failure _ -> ());
          Alcotest.(check bool) "owned trials were claimed" true
            ((Store.counters s).Store.claims > 0);
          Alcotest.(check (array string)) "no lease left behind" [||]
            (Sys.readdir (Filename.concat dir "claims"))))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_codec_detects_flip;
    Alcotest.test_case "codec typed errors" `Quick test_codec_errors;
    Alcotest.test_case "key field-order independent" `Quick
      test_key_field_order_independent;
    Alcotest.test_case "key sensitivity" `Quick test_key_sensitivity;
    Alcotest.test_case "key duplicate fields rejected" `Quick
      test_key_rejects_duplicate_fields;
    Alcotest.test_case "key escaping" `Quick test_key_escaping;
    Alcotest.test_case "store round-trip + reopen" `Quick
      test_store_roundtrip_and_persistence;
    Alcotest.test_case "store quarantines corruption" `Quick
      test_store_quarantines_corruption;
    Alcotest.test_case "store malformed key refused" `Quick
      test_store_malformed_key;
    Alcotest.test_case "store copied records are hits" `Quick
      test_store_copied_records_hit;
    Alcotest.test_case "store .tmp and misplaced files" `Quick
      test_store_tmp_and_misplaced;
    Alcotest.test_case "memo hit/miss + resume" `Quick
      test_memo_counts_and_resume;
    Alcotest.test_case "memo warm at any width" `Quick
      test_memo_warm_matches_any_pool_width;
    Alcotest.test_case "memo without store" `Quick
      test_memo_without_store_is_plain_map;
    Alcotest.test_case "memo write failures reported" `Quick
      test_memo_write_failures_reported;
    Alcotest.test_case "memo one batch per call" `Quick
      test_memo_one_batch_per_call;
    Alcotest.test_case "store two handles, one dir" `Quick
      test_store_two_handles;
    QCheck_alcotest.to_alcotest prop_store_consistent;
    Alcotest.test_case "mkdir_p create-first" `Quick test_mkdir_p;
    Alcotest.test_case "open refuses a damaged layout" `Quick
      test_open_refuses_damaged_layout;
    Alcotest.test_case "claims: grant, block, steal" `Quick test_claims;
    Alcotest.test_case "lease TTL must be finite" `Quick
      test_lease_ttl_must_be_finite;
    Alcotest.test_case "memo sharded in-process" `Quick test_memo_sharded;
    Alcotest.test_case "memo raising trial releases claim" `Quick
      test_memo_sharded_failure_releases_claim;
  ]
