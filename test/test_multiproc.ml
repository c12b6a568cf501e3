(* Multi-process store access: real [satin_cli campaign] shards against
   one store directory. This is the contract the fleet orchestrator rests
   on — two concurrent writer processes publishing records by rename into
   one directory, byte-identical reports — exercised through the shipped
   binary, not test doubles. *)

module Store = Satin_store.Store
module Telemetry = Satin_store.Telemetry

let cli =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "satin_cli.exe"))

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "satin_multiproc_%d_%d" (Unix.getpid ()) !counter)
    in
    (match Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)) with
    | 0 -> ()
    | _ -> ());
    dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Launch the CLI with stdout/stderr captured to files; returns the pid. *)
let launch args ~out ~err =
  let fd path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let out_fd = fd out and err_fd = fd err in
  let pid =
    Unix.create_process cli
      (Array.of_list (cli :: args))
      Unix.stdin out_fd err_fd
  in
  Unix.close out_fd;
  Unix.close err_fd;
  pid

let wait_ok name pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> Alcotest.failf "%s exited %d" name c
  | Unix.WSIGNALED s -> Alcotest.failf "%s killed by signal %d" name s
  | Unix.WSTOPPED s -> Alcotest.failf "%s stopped by signal %d" name s

let campaign_args ~store extra =
  [ "campaign"; "-e"; "e1,e3"; "--seeds"; "5,6"; "--store"; store ] @ extra

let telemetry_table dir =
  let s = Store.open_ dir in
  Fun.protect
    ~finally:(fun () -> Store.close s)
    (fun () ->
      match Telemetry.collect s with
      | Error e -> Alcotest.failf "telemetry collect %s: %s" dir e
      | Ok r ->
          let b = Buffer.create 4096 in
          let fmt = Format.formatter_of_buffer b in
          Telemetry.print_table fmt r;
          Format.pp_print_flush fmt ();
          Buffer.contents b)

let test_two_shard_processes () =
  let scratch = tmp_dir () in
  Store.mkdir_p scratch;
  let base_store = Filename.concat scratch "store_base" in
  let shard_store = Filename.concat scratch "store_shard" in
  let path name = Filename.concat scratch name in
  (* The single-process ground truth. *)
  let base =
    launch
      (campaign_args ~store:base_store [])
      ~out:(path "base.out") ~err:(path "base.err")
  in
  wait_ok "unsharded campaign" base;
  (* Two real shard processes, concurrently, against one fresh store. *)
  let shard i =
    launch
      (campaign_args ~store:shard_store
         [ Printf.sprintf "--shard=%d/2" i; "--lease-ttl=2" ])
      ~out:(path (Printf.sprintf "shard%d.out" i))
      ~err:(path (Printf.sprintf "shard%d.err" i))
  in
  let s0 = shard 0 in
  let s1 = shard 1 in
  wait_ok "shard 0" s0;
  wait_ok "shard 1" s1;
  (* Every shard's stdout is the full canonical report. *)
  let base_out = read_file (path "base.out") in
  Alcotest.(check string)
    "shard 0 report = unsharded" base_out
    (read_file (path "shard0.out"));
  Alcotest.(check string)
    "shard 1 report = unsharded" base_out
    (read_file (path "shard1.out"));
  (* No torn/corrupt records under the concurrent writers. *)
  let quarantined =
    match Sys.readdir (Filename.concat shard_store "quarantine") with
    | entries -> Array.length entries
    | exception Sys_error _ -> 0
  in
  Alcotest.(check int) "nothing quarantined" 0 quarantined;
  (* The merged store aggregates to the byte-identical telemetry report. *)
  Alcotest.(check string)
    "telemetry report byte-identical"
    (telemetry_table base_store)
    (telemetry_table shard_store);
  (* The sharded store is complete: a warm unsharded pass recomputes
     nothing (each shard's own counters double-count its peer's trials as
     one early miss + one later hit, so completeness — not the per-shard
     tallies — is the meaningful sum). *)
  let warm =
    launch
      (campaign_args ~store:shard_store [])
      ~out:(path "warm.out") ~err:(path "warm.err")
  in
  wait_ok "warm pass" warm;
  Alcotest.(check string) "warm report = unsharded" base_out
    (read_file (path "warm.out"));
  let warm_err = read_file (path "warm.err") in
  let has_no_miss =
    (* The stderr summary is "store: H hit(s), M miss(es), ..." *)
    let needle = " 0 miss(es)" in
    let n = String.length needle and len = String.length warm_err in
    let rec scan i =
      i + n <= len && (String.sub warm_err i n = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "warm pass misses nothing" true has_no_miss

(* A store whose objects/ is a plain file is refused by every subcommand
   that opens one: one stderr line, exit 2, before any trial runs. *)
let test_damaged_store_refused () =
  let scratch = tmp_dir () in
  let store = Filename.concat scratch "store" in
  Store.mkdir_p store;
  close_out (open_out (Filename.concat store "objects"));
  List.iteri
    (fun i args ->
      let path ext = Filename.concat scratch (Printf.sprintf "%d.%s" i ext) in
      let name = String.concat " " args in
      (match
         snd (Unix.waitpid [] (launch args ~out:(path "out") ~err:(path "err")))
       with
      | Unix.WEXITED 2 -> ()
      | _ -> Alcotest.failf "%s: not refused with exit 2" name);
      let want = "store: cannot open " ^ store ^ ": " in
      match String.split_on_char '\n' (read_file (path "err")) with
      | [ line; "" ] ->
          Alcotest.(check string) (name ^ ": stderr") want
            (String.sub line 0 (min (String.length line) (String.length want)))
      | _ -> Alcotest.failf "%s: want one stderr line" name)
    [
      campaign_args ~store [ "--quick" ];
      campaign_args ~store [ "--quick"; "--workers"; "2" ];
      [ "e1"; "--quick"; "--store"; store ];
      [ "telemetry"; "report"; "--store"; store ];
    ]

let suite =
  [
    Alcotest.test_case "two shard processes, one store" `Slow
      test_two_shard_processes;
    Alcotest.test_case "damaged store refused" `Quick
      test_damaged_store_refused;
  ]
