(** Content-addressed, on-disk trial-result store.

    Layout under the store directory:

    {v
    objects/ab/cd/<32-hex-key>.rec   records, two-level fan-out
    capsules/ab/cd/<32-hex-key>.cap  metric capsules (sidecar, JSON payload)
    quarantine/<32-hex-key>.rec      records that failed verification
    quarantine/<32-hex-key>.cap      capsules that failed verification
    claims/<32-hex-key>.lease        trial claims ("pid host expiry")
    .lock                            fcntl-lock anchor for claim handoffs
    v}

    Records are {!Codec} [satin-store/v1] bytes, one file per {!Key}, and
    the files are the store's only truth: a record is live exactly when
    its file sits at the path its key names. Files appear only by atomic
    rename (temp file + rename), so a store killed mid-campaign holds
    exactly the records that finished — the basis of resume-after-
    interrupt — plus at most a [*.tmp] per interrupted write, which no
    reader takes for a record. Nothing is ever evicted.

    {!find} verifies every record before serving it; a record failing
    magic/version/length/checksum is moved to [quarantine/] (never served,
    never silently deleted) and the lookup reports a miss, so one flipped
    bit costs one recomputation.

    {2 Multi-writer guarantees}

    Any number of processes may hold handles on one store directory
    concurrently. A record published by one process is a hit for every
    other the moment its rename lands, without reopening; concurrent
    writers of one key write identical bytes, so the last rename changes
    nothing. Claim handoffs additionally run under an fcntl record lock on
    [.lock], which the kernel releases if the holder dies.

    All operations are serialized on an internal mutex: worker domains may
    {!add} concurrently while the submitting domain looks up. The handle's
    {!counters} are the one count of its events: {!summary_line} prints
    them, and [Memo.map] publishes each call's growth of them as the
    [store.*] metrics. Every quarantine and every failed write also prints
    one [store: ...] line on stderr.

    Every entry point taking a key raises [Invalid_argument "Store.<name>:
    malformed key"] unless the key is 32 lowercase hex digits, as
    {!Key.make} returns.

    One store can be made ambient with {!install}: experiments are
    assembled deep inside runners, and "the store of the current run" is
    process-wide by nature. *)

type t

val open_ : string -> t
(** Open (creating directories as needed) the store rooted at the given
    directory. Raises [Unix.Unix_error] if a directory of the layout
    cannot be created or is a plain file: a damaged store is refused
    here, not at every later write. *)

val close : t -> unit
(** Release the handle's descriptor. Idempotent. Operations on a closed
    handle raise [Unix.Unix_error (EBADF, _, _)], except {!add} and
    {!add_capsule}, which count a write error, and {!counters}. *)

val find : t -> key:string -> 'a option
(** Serve the record stored under [key], verifying it first. [None] on
    absence or on a quarantined record. The caller asserts the result type,
    which holds whenever [key] came from {!Key.make} (the fingerprint pins
    the binary). *)

val contains : t -> key:string -> bool
(** Whether [key]'s record file exists — without reading the record or
    touching the hit/miss counters. This is the polling primitive for
    waiting on a trial another process is computing. *)

val add : t -> key:string -> experiment:string -> 'a -> unit
(** Persist one trial result (atomic write). Overwrites any existing
    record under [key] (necessarily with identical content). Safe to call
    from worker domains. A write that fails is counted in [write_errors]
    and reported on stderr, never raised: the caller already holds the
    result, and a lost record costs one recomputation. *)

(** {1 Trial claims}

    A claim is an advisory lease on one pending trial, backed by
    [claims/<key>.lease] holding ["pid host expiry"]. Sharded workers
    claim a trial before computing it so peers can distinguish "in
    progress" from "orphaned by a crash": a lease is stale once its expiry
    passes, or earlier when it names a provably-dead pid on the local
    host. Claim handoffs run under the store-wide file lock, so exactly
    one contender wins a steal. Claims are {e advisory}: a lost or
    duplicated claim costs at most one redundant recomputation of a pure
    trial (whose [add] rewrites identical bytes), never a wrong result. *)

type lease = { lease_pid : int; lease_host : string; lease_expiry : float }

val try_claim : t -> key:string -> ttl_s:float -> bool
(** Attempt to claim [key] for [ttl_s] seconds. [true] when this process
    now holds the lease: the key was unclaimed, the existing lease was
    stale (counted as a steal), or we already held it (the expiry is
    refreshed). [false] while another live process holds it. Raises
    [Invalid_argument] on a TTL that is not finite and positive. *)

val release_claim : t -> key:string -> unit
(** Drop any lease on [key]. Callable by non-owners (used to clear a
    stale lease after its trial's result turned up in the store). *)

val claim_lease : t -> key:string -> lease option
(** The current lease on [key], if any — parsed but not liveness-checked;
    combine with {!lease_live}. *)

val lease_live : lease -> bool
(** Whether the lease still protects its trial: unexpired, and not
    provably dead (a same-host pid that no longer exists). *)

(** {1 Metric capsules}

    Capsules are a sidecar area under [capsules/], keyed exactly like
    records but holding raw JSON payloads in the {!Codec.encode_raw}
    envelope — readable by any build, which is the point: telemetry
    aggregates capsules across campaign runs and binaries. Corrupt
    capsules are quarantined to [quarantine/<key>.cap] and read as
    misses. *)

val add_capsule : t -> key:string -> experiment:string -> string -> unit
(** Persist one capsule payload (atomic write). Safe to call from worker
    domains. Failures are handled as in {!add}. *)

val find_capsule : t -> key:string -> string option
(** The verified capsule payload stored under [key], or [None] on absence
    or quarantine. *)

val fold_capsules :
  t -> init:'acc -> f:('acc -> key:string -> experiment:string -> string -> 'acc) -> 'acc
(** Fold over every verified capsule in the store, in sorted key order —
    deterministic regardless of filesystem enumeration order, so reports
    built from a walk are byte-stable. Corrupt capsules encountered on the
    way are quarantined and skipped. Holds the store mutex for the whole
    walk: do not call {!add}/{!find} from [f]. *)

type counters = {
  hits : int;
  misses : int;
  writes : int;
  corrupt : int;  (** corrupt records {e and} corrupt capsules *)
  capsule_hits : int;
  capsule_misses : int;
  capsule_writes : int;
  claims : int;  (** leases granted to this process (incl. refreshes) *)
  claim_steals : int;  (** granted over a stale lease *)
  write_errors : int;  (** failed {!add}/{!add_capsule} writes *)
}

val counters : t -> counters
(** Snapshot of this handle's lifetime counters. *)

val live_records : t -> int
(** The record files at the path their key names, counted by a walk of
    [objects/]. *)

val live_bytes : t -> int
(** Their total size in bytes. *)

val invariant_violations : t -> string list
(** Every [.rec] or [.cap] file under [objects/] or [capsules/] that is
    not at the path its key names: such a file is never served. [*.tmp]
    files, a write in flight or a killed writer's debris, are not
    violations. Empty when healthy; used by tests and the benchmark. *)

val summary_line : t -> string
(** One-line human summary ([store: H hit(s), M miss(es), W write(s), C
    corrupt, F write error(s); N record(s), B bytes live (DIR); capsules:
    ...]) printed by the CLI to stderr — stderr so stdout reports stay
    byte-identical between warm and cold runs. Capsule counters are appended after the directory so
    existing [store:]-prefix parsers keep working; claim counters, when
    nonzero, are appended after those. *)

val mkdir_p : string -> unit
(** [mkdir] with parents, create-first: [EEXIST] on a directory is success
    at every level (safe under concurrent workers racing to create the
    same fan-out dirs), missing parents are created bottom-up, and a
    [Filename.dirname] fixpoint that cannot be created raises instead of
    recursing forever; so does a level that is not a directory ([EEXIST]).
    Exposed for tests. *)

(** {1 The ambient store} *)

val install : t -> unit
val uninstall : unit -> unit
val current : unit -> t option
