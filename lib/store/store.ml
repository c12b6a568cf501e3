type counters = {
  hits : int;
  misses : int;
  writes : int;
  evictions : int;
  corrupt : int;
  capsule_hits : int;
  capsule_misses : int;
  capsule_writes : int;
  claims : int;
  claim_steals : int;
  write_errors : int;
}

let no_counts =
  { hits = 0; misses = 0; writes = 0; evictions = 0; corrupt = 0;
    capsule_hits = 0; capsule_misses = 0; capsule_writes = 0; claims = 0;
    claim_steals = 0; write_errors = 0 }

(* A live record carries the journal sequence number of the [+] line that
   made it live. The FIFO order queue stores (key, seq) pairs: an entry is
   valid only while the key is live *under that same seq*, so an evicted-
   then-re-added key can never be evicted through its stale first entry,
   and stale entries can never make the GC under- or over-evict. *)
type entry = { size : int; seq : int }

type t = {
  dir : string;
  max_bytes : int;
  mutex : Mutex.t;
  live : (string, entry) Hashtbl.t;
  order : (string * int) Queue.t; (* insertion order; stale entries skipped *)
  mutable next_seq : int;
  mutable total_bytes : int;
  mutable index_fd : Unix.file_descr; (* O_APPEND journal writer *)
  mutable lock_fd : Unix.file_descr; (* fcntl-lock anchor (.lock) *)
  mutable read_pos : int; (* journal bytes already applied in-memory *)
  mutable closed : bool;
  mutable counts : counters;
}

(* Caller holds the mutex. *)
let count t f = t.counts <- f t.counts

let is_hex_key k =
  String.length k = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) k

let object_path t key =
  Filename.concat t.dir
    (Filename.concat "objects"
       (Filename.concat (String.sub key 0 2)
          (Filename.concat (String.sub key 2 2) (key ^ ".rec"))))

let quarantine_path t key =
  Filename.concat t.dir (Filename.concat "quarantine" (key ^ ".rec"))

let capsule_path t key =
  Filename.concat t.dir
    (Filename.concat "capsules"
       (Filename.concat (String.sub key 0 2)
          (Filename.concat (String.sub key 2 2) (key ^ ".cap"))))

let capsule_quarantine_path t key =
  Filename.concat t.dir (Filename.concat "quarantine" (key ^ ".cap"))

let index_path dir = Filename.concat dir "index.log"
let lock_path dir = Filename.concat dir ".lock"
let claims_dir dir = Filename.concat dir "claims"
let claim_path t key = Filename.concat (claims_dir t.dir) (key ^ ".lease")

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

(* One journal line per event:
     + <key> <size> <experiment>      record added
     - <key>                          record evicted
     ! <key>                          record quarantined
   The experiment id is informational (diagnostics, future GC policies);
   it is the last field so embedded spaces need no escaping. *)
let index_line_add key size experiment =
  Printf.sprintf "+ %s %d %s\n" key size
    (String.map (fun c -> if c = '\n' then ' ' else c) experiment)

(* Append one complete line in a single write(2). The journal fd is
   O_APPEND, so concurrent writers' lines land whole and in some total
   order — never interleaved mid-line. (A short write on a local regular
   file does not happen for lines this small; the loop is belt and
   braces for exotic filesystems.) *)
let append_index t line =
  let b = Bytes.unsafe_of_string line in
  let len = Bytes.length b in
  let rec go pos =
    if pos < len then go (pos + Unix.write t.index_fd b pos (len - pos))
  in
  go 0

(* Cross-process critical section: an fcntl record lock on [.lock].
   Serializes journal bookkeeping, GC, and claim handoffs between
   processes; within a process the handle mutex already serializes, and
   the kernel grants a process's re-request on a region it holds, so two
   handles in one process cannot deadlock each other. fcntl locks die
   with their process, so a crashed worker never wedges the store. *)
let with_file_lock t f =
  Unix.lockf t.lock_fd Unix.F_LOCK 0;
  Fun.protect
    ~finally:(fun () ->
      try Unix.lockf t.lock_fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ())
    f

let apply_line t l =
  match String.split_on_char ' ' l with
  | "+" :: key :: size :: _ when is_hex_key key -> (
      match int_of_string_opt size with
      | Some size
        when (not (Hashtbl.mem t.live key))
             && Sys.file_exists (object_path t key) ->
          let seq = t.next_seq in
          t.next_seq <- seq + 1;
          Hashtbl.replace t.live key { size; seq };
          Queue.push (key, seq) t.order;
          t.total_bytes <- t.total_bytes + size
      | _ -> ())
  | ("-" | "!") :: key :: _ -> (
      match Hashtbl.find_opt t.live key with
      | Some e ->
          Hashtbl.remove t.live key;
          t.total_bytes <- t.total_bytes - e.size
      | None -> ())
  | _ -> () (* tolerate foreign or damaged lines *)

(* Adopt journal lines appended since the last refresh — our own (already
   applied in-memory, so idempotent via the live check) and, the point,
   those of concurrent writer processes. Only complete lines are applied:
   a line becomes visible atomically with its writer's single O_APPEND
   write, and a torn tail (which only a non-compliant filesystem could
   show) is left for the next refresh. Caller holds the mutex. *)
let refresh_locked t =
  match open_in_bin (index_path t.dir) with
  | exception Sys_error _ -> ()
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          if len > t.read_pos then begin
            seek_in ic t.read_pos;
            let chunk = really_input_string ic (len - t.read_pos) in
            match String.rindex_opt chunk '\n' with
            | None -> ()
            | Some last ->
                String.sub chunk 0 last |> String.split_on_char '\n'
                |> List.iter (fun l -> if l <> "" then apply_line t l);
                t.read_pos <- t.read_pos + last + 1
          end)

(* Drop stale (evicted/quarantined/superseded) entries so a long-lived
   journal cannot grow the queue without bound. Caller holds the mutex. *)
let compact_order t =
  let q = Queue.create () in
  Queue.iter
    (fun (key, seq) ->
      match Hashtbl.find_opt t.live key with
      | Some e when e.seq = seq -> Queue.push (key, seq) q
      | _ -> ())
    t.order;
  Queue.clear t.order;
  Queue.transfer q t.order

let open_ ?(max_bytes = 512 * 1024 * 1024) dir =
  if max_bytes <= 0 then invalid_arg "Store.open_: max_bytes must be positive";
  mkdir_p (Filename.concat dir "objects");
  mkdir_p (Filename.concat dir "capsules");
  mkdir_p (Filename.concat dir "quarantine");
  mkdir_p (claims_dir dir);
  let index_fd =
    Unix.openfile (index_path dir)
      [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
      0o644
  in
  let lock_fd =
    Unix.openfile (lock_path dir) [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
  in
  let t =
    {
      dir;
      max_bytes;
      mutex = Mutex.create ();
      live = Hashtbl.create 256;
      order = Queue.create ();
      next_seq = 0;
      total_bytes = 0;
      index_fd;
      lock_fd;
      read_pos = 0;
      closed = false;
      counts = no_counts;
    }
  in
  Mutex.protect t.mutex (fun () ->
      refresh_locked t;
      compact_order t);
  t

let close t =
  Mutex.protect t.mutex (fun () ->
      if not t.closed then begin
        t.closed <- true;
        (try Unix.fsync t.index_fd with Unix.Unix_error _ -> ());
        (try Unix.close t.index_fd with Unix.Unix_error _ -> ());
        try Unix.close t.lock_fd with Unix.Unix_error _ -> ()
      end)

let sync t = Mutex.protect t.mutex (fun () -> refresh_locked t)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Atomic publication: write next to the final path, rename over it. The
   temp name carries pid + key, so concurrent stores never collide and a
   crash leaves only a harmless .tmp the next GC ignores. *)
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

let drop_live t key =
  match Hashtbl.find_opt t.live key with
  | Some e ->
      Hashtbl.remove t.live key;
      t.total_bytes <- t.total_bytes - e.size
  | None -> ()

let quarantine t key err =
  let path = object_path t key in
  (try Sys.rename path (quarantine_path t key)
   with Sys_error _ -> (try Sys.remove path with Sys_error _ -> ()));
  drop_live t key;
  append_index t (Printf.sprintf "! %s\n" key);
  count t (fun c -> { c with corrupt = c.corrupt + 1 });
  warn "quarantined record %s: %s" key (Codec.error_to_string err)

let find_locked t ~key =
  let miss () =
    count t (fun c -> { c with misses = c.misses + 1 });
    None
  in
  (* A live-table miss may just mean another process added the record
     since our last look at the journal: adopt its lines and re-check.
     This is what lets concurrent shards serve each other's trials
     without reopening the store. *)
  if not (Hashtbl.mem t.live key) then refresh_locked t;
  if not (Hashtbl.mem t.live key) then miss ()
  else
    match read_file (object_path t key) with
    | exception Sys_error _ ->
        (* Journal said live but the file is gone (external deletion or a
           concurrent GC); settle the books and recompute. *)
        drop_live t key;
        append_index t (Printf.sprintf "- %s\n" key);
        miss ()
    | raw -> (
        match Codec.decode raw with
        | Ok v ->
            count t (fun c -> { c with hits = c.hits + 1 });
            Some v
        | Error err ->
            quarantine t key err;
            miss ())

let find t ~key = Mutex.protect t.mutex (fun () -> find_locked t ~key)

(* Whether [key] currently resolves, without touching the hit/miss
   counters — the polling primitive of the sharded waiting loop, which
   may probe a pending trial many times before its owner publishes. *)
let contains t ~key =
  Mutex.protect t.mutex (fun () ->
      if not (Hashtbl.mem t.live key) then refresh_locked t;
      Hashtbl.mem t.live key)

(* Caller holds the mutex (and, under multi-writer use, the file lock).
   Evict oldest-first until under the bound, skipping stale queue
   entries; the newest record always survives even when it alone exceeds
   the bound. *)
let enforce_bound t =
  while
    t.total_bytes > t.max_bytes
    && Hashtbl.length t.live > 1
    && not (Queue.is_empty t.order)
  do
    let key, seq = Queue.pop t.order in
    match Hashtbl.find_opt t.live key with
    | Some e when e.seq = seq ->
        drop_live t key;
        (try Sys.remove (object_path t key) with Sys_error _ -> ());
        (* The sidecar capsule rides on its record's lifetime: an evicted
           trial will be recomputed (and its capsule re-sealed) anyway. *)
        (try Sys.remove (capsule_path t key) with Sys_error _ -> ());
        append_index t (Printf.sprintf "- %s\n" key);
        count t (fun c -> { c with evictions = c.evictions + 1 })
    | _ -> () (* stale entry: already evicted/quarantined/superseded *)
  done

(* A write that fails must not poison the trial that just computed its
   result: a lost record costs one recomputation on the next run, so the
   failure is counted and reported, never raised. *)
let persisting t ~what ~key f =
  try f ()
  with e ->
    Mutex.protect t.mutex (fun () ->
        count t (fun c -> { c with write_errors = c.write_errors + 1 }));
    warn "failed to persist %s %s: %s" what key (Printexc.to_string e)

let add t ~key ~experiment v =
  if not (is_hex_key key) then invalid_arg "Store.add: malformed key";
  persisting t ~what:"record" ~key @@ fun () ->
  let record = Codec.encode ~experiment v in
  Mutex.protect t.mutex (fun () ->
      with_file_lock t (fun () ->
          (* Adopt concurrent writers' adds/evictions first, so the GC
             below reasons about the store's real size, not this handle's
             stale view of it. *)
          refresh_locked t;
          let path = object_path t key in
          mkdir_p (Filename.dirname path);
          write_file_atomic path record;
          if not (Hashtbl.mem t.live key) then begin
            let size = String.length record in
            let seq = t.next_seq in
            t.next_seq <- seq + 1;
            Hashtbl.replace t.live key { size; seq };
            Queue.push (key, seq) t.order;
            t.total_bytes <- t.total_bytes + size;
            append_index t (index_line_add key size experiment)
          end;
          count t (fun c -> { c with writes = c.writes + 1 });
          enforce_bound t))

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
  if not (is_hex_key key) then invalid_arg "Store.claim_lease: malformed key";
  Mutex.protect t.mutex (fun () -> read_lease_file (claim_path t key))

let try_claim t ~key ~ttl_s =
  if not (is_hex_key key) then invalid_arg "Store.try_claim: malformed key";
  if not (Float.is_finite ttl_s && ttl_s > 0.0) then
    invalid_arg "Store.try_claim: ttl_s must be finite and positive";
  Mutex.protect t.mutex (fun () ->
      with_file_lock t (fun () ->
          let path = claim_path t key in
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
  if not (is_hex_key key) then
    invalid_arg "Store.release_claim: malformed key";
  Mutex.protect t.mutex (fun () ->
      with_file_lock t (fun () ->
          try Sys.remove (claim_path t key) with Sys_error _ -> ()))

(* ---- capsules ----

   Capsules are a sidecar area keyed like records but framed around raw
   JSON payloads ([Codec.encode_raw]) so any build can read them back.
   They are not journaled and not counted against [max_bytes]: the journal
   and the bound govern trial results (the expensive thing to recompute);
   a capsule is small and always regenerable by re-running its trial. *)

let add_capsule t ~key ~experiment payload =
  if not (is_hex_key key) then invalid_arg "Store.add_capsule: malformed key";
  persisting t ~what:"capsule" ~key @@ fun () ->
  let record = Codec.encode_raw ~experiment payload in
  Mutex.protect t.mutex (fun () ->
      let path = capsule_path t key in
      mkdir_p (Filename.dirname path);
      write_file_atomic path record;
      count t (fun c -> { c with capsule_writes = c.capsule_writes + 1 }))

let quarantine_capsule t key err =
  let path = capsule_path t key in
  (try Sys.rename path (capsule_quarantine_path t key)
   with Sys_error _ -> (try Sys.remove path with Sys_error _ -> ()));
  count t (fun c -> { c with corrupt = c.corrupt + 1 });
  warn "quarantined capsule %s: %s" key (Codec.error_to_string err)

let find_capsule t ~key =
  Mutex.protect t.mutex (fun () ->
      let miss () =
        count t (fun c -> { c with capsule_misses = c.capsule_misses + 1 });
        None
      in
      match read_file (capsule_path t key) with
      | exception Sys_error _ -> miss ()
      | raw -> (
          match Codec.decode_raw raw with
          | Ok (_, payload) ->
              count t (fun c -> { c with capsule_hits = c.capsule_hits + 1 });
              Some payload
          | Error err ->
              quarantine_capsule t key err;
              miss ()))

let fold_capsules t ~init ~f =
  Mutex.protect t.mutex (fun () ->
      let root = Filename.concat t.dir "capsules" in
      let subdirs dir =
        match Sys.readdir dir with
        | exception Sys_error _ -> []
        | entries ->
            let l = Array.to_list entries in
            List.sort String.compare l
      in
      (* Sorted at every level, so the fold order — and any report built
         from it — is deterministic regardless of filesystem order. *)
      List.fold_left
        (fun acc d1 ->
          let p1 = Filename.concat root d1 in
          if not (Sys.is_directory p1) then acc
          else
            List.fold_left
              (fun acc d2 ->
                let p2 = Filename.concat p1 d2 in
                if not (Sys.is_directory p2) then acc
                else
                  List.fold_left
                    (fun acc file ->
                      if not (Filename.check_suffix file ".cap") then acc
                      else
                        let key = Filename.chop_suffix file ".cap" in
                        if not (is_hex_key key) then acc
                        else
                          match read_file (Filename.concat p2 file) with
                          | exception Sys_error _ -> acc
                          | raw -> (
                              match Codec.decode_raw raw with
                              | Ok (experiment, payload) ->
                                  f acc ~key ~experiment payload
                              | Error err ->
                                  quarantine_capsule t key err;
                                  acc))
                    acc (subdirs p2))
              acc (subdirs p1))
        init (subdirs root))

let counters t = Mutex.protect t.mutex (fun () -> t.counts)

let live_records t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.live)
let live_bytes t = Mutex.protect t.mutex (fun () -> t.total_bytes)

let invariant_violations t =
  Mutex.protect t.mutex (fun () ->
      let v = ref [] in
      let note fmt = Printf.ksprintf (fun s -> v := s :: !v) fmt in
      let sum = Hashtbl.fold (fun _ e acc -> acc + e.size) t.live 0 in
      if sum <> t.total_bytes then
        note "total_bytes %d <> sum of live sizes %d" t.total_bytes sum;
      if t.total_bytes < 0 then note "total_bytes negative: %d" t.total_bytes;
      let seen = Hashtbl.create 16 in
      Queue.iter
        (fun (key, seq) ->
          if seq >= t.next_seq then
            note "order entry (%s, %d) beyond next_seq %d" key seq t.next_seq;
          match Hashtbl.find_opt t.live key with
          | Some e when e.seq = seq ->
              if Hashtbl.mem seen key then
                note "live key %s has duplicate valid order entries" key
              else Hashtbl.replace seen key ()
          | _ -> ())
        t.order;
      Hashtbl.iter
        (fun key _ ->
          if not (Hashtbl.mem seen key) then
            note "live key %s missing from the order queue" key)
        t.live;
      List.rev !v)

let summary_line t =
  let c = counters t in
  let claims =
    if c.claims = 0 then ""
    else Printf.sprintf "; claims: %d (%d stolen)" c.claims c.claim_steals
  in
  Printf.sprintf
    "store: %d hit(s), %d miss(es), %d write(s), %d evicted, %d corrupt, %d \
     write error(s); %d record(s), %d bytes live (%s); capsules: %d hit(s), \
     %d miss(es), %d write(s)%s"
    c.hits c.misses c.writes c.evictions c.corrupt c.write_errors
    (live_records t) (live_bytes t) t.dir c.capsule_hits c.capsule_misses
    c.capsule_writes claims

let ambient = ref None
let install t = ambient := Some t
let uninstall () = ambient := None
let current () = !ambient
