type counters = {
  hits : int;
  misses : int;
  writes : int;
  corrupt : int;
  capsule_hits : int;
  capsule_misses : int;
  capsule_writes : int;
  claims : int;
  claim_steals : int;
  write_errors : int;
}

let no_counts =
  { hits = 0; misses = 0; writes = 0; corrupt = 0; capsule_hits = 0;
    capsule_misses = 0; capsule_writes = 0; claims = 0; claim_steals = 0;
    write_errors = 0 }

type t = {
  dir : string;
  mutex : Mutex.t;
  lock_fd : Unix.file_descr; (* fcntl-lock anchor (.lock) *)
  mutable closed : bool;
  mutable counts : counters;
}

(* Caller holds the mutex. *)
let count t f = t.counts <- f t.counts

(* Every operation runs under the handle mutex, and none runs on a closed
   handle: it fails as a read through the closed descriptor would. *)
let locked t f =
  Mutex.protect t.mutex (fun () ->
      if t.closed then raise (Unix.Unix_error (Unix.EBADF, "Store", t.dir));
      f ())

let is_hex_key k =
  String.length k = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) k

let check_key ~op key =
  if not (is_hex_key key) then invalid_arg ("Store." ^ op ^ ": malformed key")

(* The two fanned-out areas. A file is live exactly when it sits at the
   path its key names in its area. *)
type area = { root : string; ext : string; what : string }

let records = { root = "objects"; ext = ".rec"; what = "record" }
let capsules = { root = "capsules"; ext = ".cap"; what = "capsule" }

(* [area/ab/cd/<key><ext>]: the one place a key becomes a fan-out path. *)
let fan_out t area key =
  List.fold_left Filename.concat t.dir
    [ area.root; String.sub key 0 2; String.sub key 2 2; key ^ area.ext ]

(* The path of a keyed entry point's file; a malformed key is refused
   before anything touches the disk. *)
let path t ~op area key =
  check_key ~op key;
  fan_out t area key

let claims_dir dir = Filename.concat dir "claims"

let claim_path t ~op key =
  check_key ~op key;
  Filename.concat (claims_dir t.dir) (key ^ ".lease")

(* Create-first: one syscall in the common case, and EEXIST — the only
   outcome of several workers racing to create the same fan-out dir — is
   success at every level where the path is a directory. A plain file in
   its place is damage, and its EEXIST propagates. ENOENT walks up one
   parent at a time; a dirname fixpoint that still cannot be created
   (e.g. a relative path whose every prefix is missing from a vanished
   cwd) propagates instead of recursing forever. *)
let rec mkdir_p path =
  let mkdir () =
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) when Sys.is_directory path -> ()
  in
  try mkdir () with
  | Unix.Unix_error ((Unix.ENOENT | Unix.ENOTDIR), _, _) as e ->
      let parent = Filename.dirname path in
      if parent = path then raise e
      else begin
        mkdir_p parent;
        mkdir ()
      end

(* Cross-process critical section: an fcntl record lock on [.lock].
   Serializes claim handoffs between processes; within a process the
   handle mutex already serializes, and the kernel grants a process's
   re-request on a region it holds, so two handles in one process cannot
   deadlock each other. fcntl locks die with their process, so a crashed
   worker never wedges the store. *)
let with_file_lock t f =
  Unix.lockf t.lock_fd Unix.F_LOCK 0;
  Fun.protect
    ~finally:(fun () ->
      try Unix.lockf t.lock_fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ())
    f

let open_ dir =
  List.iter
    (fun sub -> mkdir_p (Filename.concat dir sub))
    [ records.root; capsules.root; "quarantine"; "claims" ];
  {
    dir;
    mutex = Mutex.create ();
    lock_fd =
      Unix.openfile (Filename.concat dir ".lock")
        [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644;
    closed = false;
    counts = no_counts;
  }

let close t =
  Mutex.protect t.mutex (fun () ->
      if not t.closed then begin
        t.closed <- true;
        try Unix.close t.lock_fd with Unix.Unix_error _ -> ()
      end)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Atomic publication: write next to the final path, rename over it. The
   temp name carries the pid, so concurrent stores never collide, and a
   crash leaves only a [.tmp] that no reader takes for a record. *)
let write_file_atomic path content =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content);
  Sys.rename tmp path

(* Store warnings go straight to stderr so that a store which persists
   nothing cannot stay silent about it. Each line is formatted first and
   written whole, so worker domains never interleave inside one. *)
let warn fmt =
  Printf.ksprintf
    (fun line ->
      output_string stderr line;
      flush stderr)
    ("store: " ^^ fmt ^^ "\n")

(* Caller holds the mutex. *)
let quarantine t area path key err =
  let dir = Filename.concat t.dir "quarantine" in
  (try Sys.rename path (Filename.concat dir (Filename.basename path))
   with Sys_error _ -> (try Sys.remove path with Sys_error _ -> ()));
  count t (fun c -> { c with corrupt = c.corrupt + 1 });
  warn "quarantined %s %s: %s" area.what key (Codec.error_to_string err)

(* The verified contents of [path]: [None] when it is absent, or when it
   fails verification and moves to quarantine. Caller holds the mutex. *)
let read_verified t area path key decode =
  match read_file path with
  | exception Sys_error _ -> None
  | raw -> (
      match decode raw with
      | Ok v -> Some v
      | Error err ->
          quarantine t area path key err;
          None)

(* One counted lookup of [key] in [area]. *)
let lookup t area ~op ~key decode ~hit ~miss =
  let path = path t ~op area key in
  locked t (fun () ->
      let r = read_verified t area path key decode in
      count t (if Option.is_some r then hit else miss);
      r)

let find t ~key =
  lookup t records ~op:"find" ~key Codec.decode
    ~hit:(fun c -> { c with hits = c.hits + 1 })
    ~miss:(fun c -> { c with misses = c.misses + 1 })

(* Whether [key] currently resolves, without touching the hit/miss
   counters — the polling primitive of the sharded waiting loop, which
   may probe a pending trial many times before its owner publishes. *)
let contains t ~key =
  let path = path t ~op:"contains" records key in
  locked t (fun () -> Sys.file_exists path)

(* Encode outside the mutex, then publish by rename and count. Concurrent
   writers of one key write identical bytes, so whichever rename lands
   last changes nothing. A write that fails must not poison the trial that
   just computed its result: a lost file costs one recomputation on the
   next run, so the failure is counted and reported, never raised. *)
let publish t area ~op ~key encode bump =
  let path = path t ~op area key in
  try
    let content = encode () in
    locked t (fun () ->
        mkdir_p (Filename.dirname path);
        write_file_atomic path content;
        count t bump)
  with e ->
    Mutex.protect t.mutex (fun () ->
        count t (fun c -> { c with write_errors = c.write_errors + 1 }));
    warn "failed to persist %s %s: %s" area.what key (Printexc.to_string e)

let add t ~key ~experiment v =
  publish t records ~op:"add" ~key
    (fun () -> Codec.encode ~experiment v)
    (fun c -> { c with writes = c.writes + 1 })

(* ---- claims ----

   A claim is a lease on one pending trial: `claims/<key>.lease` holding
   "pid host expiry" (expiry in Unix seconds). Workers claim a trial
   before computing it so peers can tell "someone is on this" from "the
   owner died"; a lease is stale once its expiry passes, or sooner when
   it names a provably-dead pid on this host. Claim handoffs run under
   the store-wide file lock, so two workers can never both win a steal.
   Claims are advisory: losing or duplicating one costs at most one
   redundant recomputation of a pure trial (the duplicate add rewrites
   identical bytes), never a wrong result. *)

type lease = { lease_pid : int; lease_host : string; lease_expiry : float }

let hostname = lazy (
  String.map (fun c -> if c = ' ' then '_' else c) (Unix.gethostname ()))

let read_lease_file path =
  match read_file path with
  | exception Sys_error _ -> None
  | raw -> (
      match String.split_on_char ' ' (String.trim raw) with
      | [ pid; host; expiry ] -> (
          match (int_of_string_opt pid, float_of_string_opt expiry) with
          | Some p, Some e ->
              Some { lease_pid = p; lease_host = host; lease_expiry = e }
          | _ -> None)
      | _ -> None)

let lease_live l =
  let now = Unix.gettimeofday () in
  l.lease_expiry > now
  && not
       (l.lease_host = Lazy.force hostname
       && l.lease_pid <> Unix.getpid ()
       &&
       match Unix.kill l.lease_pid 0 with
       | () -> false
       | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
       | exception Unix.Unix_error _ -> false)

let claim_lease t ~key =
  let path = claim_path t ~op:"claim_lease" key in
  locked t (fun () -> read_lease_file path)

let try_claim t ~key ~ttl_s =
  let path = claim_path t ~op:"try_claim" key in
  if not (Float.is_finite ttl_s && ttl_s > 0.0) then
    invalid_arg "Store.try_claim: ttl_s must be finite and positive";
  locked t (fun () ->
      with_file_lock t (fun () ->
          let grant ~stolen =
            mkdir_p (claims_dir t.dir);
            write_file_atomic path
              (Printf.sprintf "%d %s %.3f\n" (Unix.getpid ())
                 (Lazy.force hostname)
                 (Unix.gettimeofday () +. ttl_s));
            count t (fun c -> { c with claims = c.claims + 1 });
            if stolen then
              count t (fun c -> { c with claim_steals = c.claim_steals + 1 });
            true
          in
          match read_lease_file path with
          | None -> grant ~stolen:false
          | Some l
            when l.lease_pid = Unix.getpid ()
                 && l.lease_host = Lazy.force hostname ->
              grant ~stolen:false (* our own: refresh the expiry *)
          | Some l when not (lease_live l) -> grant ~stolen:true
          | Some _ -> false))

let release_claim t ~key =
  let path = claim_path t ~op:"release_claim" key in
  locked t (fun () ->
      with_file_lock t (fun () -> try Sys.remove path with Sys_error _ -> ()))

(* ---- capsules ----

   Capsules are a sidecar area keyed like records but framed around raw
   JSON payloads ([Codec.encode_raw]) so any build can read them back. *)

let add_capsule t ~key ~experiment payload =
  publish t capsules ~op:"add_capsule" ~key
    (fun () -> Codec.encode_raw ~experiment payload)
    (fun c -> { c with capsule_writes = c.capsule_writes + 1 })

let find_capsule t ~key =
  lookup t capsules ~op:"find_capsule" ~key Codec.decode_raw
    ~hit:(fun c -> { c with capsule_hits = c.capsule_hits + 1 })
    ~miss:(fun c -> { c with capsule_misses = c.capsule_misses + 1 })
  |> Option.map snd

(* ---- walking an area ---- *)

let sorted_entries dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.sort String.compare entries;
      Array.to_list entries

(* Fold [f acc path name] over every entry at the bottom of [area]'s
   two-level fan-out, and over any non-directory above it, sorted at every
   level, so the fold order — and any report built from it — is
   deterministic regardless of filesystem order. Caller holds the mutex. *)
let fold_area t area ~init ~f =
  let rec go depth acc dir =
    List.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if depth < 2 && Sys.is_directory path then go (depth + 1) acc path
        else f acc path name)
      acc (sorted_entries dir)
  in
  go 0 init (Filename.concat t.dir area.root)

(* The key of a live file: one that sits at the path its key names. A
   write in flight ([*.tmp]) or a misplaced file has none. *)
let key_of t area path name =
  if not (Filename.check_suffix name area.ext) then None
  else
    let key = Filename.chop_suffix name area.ext in
    if is_hex_key key && String.equal path (fan_out t area key) then Some key
    else None

let fold_capsules t ~init ~f =
  locked t (fun () ->
      fold_area t capsules ~init ~f:(fun acc path name ->
          match key_of t capsules path name with
          | None -> acc
          | Some key -> (
              match read_verified t capsules path key Codec.decode_raw with
              | Some (experiment, payload) -> f acc ~key ~experiment payload
              | None -> acc)))

let counters t = Mutex.protect t.mutex (fun () -> t.counts)

(* Live records and their bytes, in one walk. A file quarantined by a
   concurrent process between the listing and the stat is not live. *)
let live t =
  locked t (fun () ->
      fold_area t records ~init:(0, 0)
        ~f:(fun ((n, bytes) as acc) path name ->
          match key_of t records path name with
          | None -> acc
          | Some _ -> (
              match Unix.stat path with
              | st -> (n + 1, bytes + st.Unix.st_size)
              | exception Unix.Unix_error _ -> acc)))

let live_records t = fst (live t)
let live_bytes t = snd (live t)

let invariant_violations t =
  let misplaced area acc path name =
    if
      (Filename.check_suffix name records.ext
      || Filename.check_suffix name capsules.ext)
      && key_of t area path name = None
    then (path ^ " is not at the path its key names") :: acc
    else acc
  in
  locked t (fun () ->
      List.concat_map
        (fun area -> List.rev (fold_area t area ~init:[] ~f:(misplaced area)))
        [ records; capsules ])

let summary_line t =
  let c = counters t in
  let n, bytes = live t in
  let claims =
    if c.claims = 0 then ""
    else Printf.sprintf "; claims: %d (%d stolen)" c.claims c.claim_steals
  in
  Printf.sprintf
    "store: %d hit(s), %d miss(es), %d write(s), %d corrupt, %d write \
     error(s); %d record(s), %d bytes live (%s); capsules: %d hit(s), %d \
     miss(es), %d write(s)%s"
    c.hits c.misses c.writes c.corrupt c.write_errors n bytes t.dir
    c.capsule_hits c.capsule_misses c.capsule_writes claims

let ambient = ref None
let install t = ambient := Some t
let uninstall () = ambient := None
let current () = !ambient
