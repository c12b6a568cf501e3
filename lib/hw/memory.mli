(** Physical memory with TrustZone security attributes.

    Memory is a flat byte array partitioned into named regions, each tagged
    secure or non-secure (as the TZASC does on real silicon). Accesses carry
    the issuing world: the secure world may touch everything; a normal-world
    access to a secure region raises {!Access_violation}. This is the
    isolation boundary the whole paper rests on — the wake-up time queue,
    area set, and authorized hash table live in a secure region the rootkit
    cannot read. *)

type t

type security = Secure_region | Non_secure_region

type region = {
  name : string;
  base : int;
  size : int;
  security : security;
}

exception Access_violation of { world : World.t; addr : int; region : string }

exception Bad_address of int

exception Released
(** Raised by every function taking a [t] once that [t] has been
    {!release}d. *)

val create : size:int -> t
(** Fresh memory of [size] bytes, zero-filled, with no regions declared.
    Addresses with no declared region are treated as non-secure DRAM.
    When the process holds an idle backing store of [size] bytes (see
    {!release}), the memory takes the newest one instead of allocating;
    no entry point can tell the two apart. *)

val release : t -> unit
(** Ends [t]'s lifetime. The pages whose write generation is nonzero are
    zeroed (every write stamps its pages, so these are the only bytes that
    can differ from zero), the stamps are reset, and the backing store
    becomes the newest idle store of the process, for the next {!create}
    of its size on any domain. At most [Domain.recommended_domain_count
    ()] stores stay idle; the oldest beyond that is dropped. [t] itself
    is poisoned: every function taking it, [release] included, raises
    {!Released}, so a leaked reference can never read or write a later
    owner's bytes. *)

val check_live : t -> unit
(** Raises {!Released} if [t] has been released; does nothing otherwise. *)

val size : t -> int

val add_region :
  t -> name:string -> base:int -> size:int -> security:security -> region
(** Declares a region. Raises [Invalid_argument] on overlap with an existing
    region or if it exceeds the address space. *)

val region_of_addr : t -> int -> region option

val regions : t -> region list
(** Declared regions, sorted by base address. *)

val check_access : t -> world:World.t -> addr:int -> unit
(** Raises {!Access_violation} or {!Bad_address} as appropriate. *)

val read_byte : t -> world:World.t -> addr:int -> int

val write_byte : t -> world:World.t -> addr:int -> int -> unit

val read_bytes : t -> world:World.t -> addr:int -> len:int -> bytes
(** A snapshot copy (the "capture then analyze" introspection style). *)

val write_string : t -> world:World.t -> addr:int -> string -> unit

val read_int64_le : t -> world:World.t -> addr:int -> int64
val write_int64_le : t -> world:World.t -> addr:int -> int64 -> unit
(** Little-endian 64-bit accessors (the syscall table, PCB fields, and
    secure-memory cells are all word-granular). *)

val fold_range :
  t -> world:World.t -> addr:int -> len:int -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Left fold over a byte range without copying (the "direct hash" style). *)

val with_range_ro :
  t -> world:World.t -> addr:int -> len:int -> f:(Bytes.t -> int -> 'a) -> 'a
(** [with_range_ro t ~world ~addr ~len ~f] validates [\[addr, addr+len)]
    once — same checks as a read — and applies [f backing addr] directly to
    the backing store: the read-only bulk fast path (no per-byte closure, no
    snapshot copy) that {!Satin_introspect.Hash.hash_region} runs its
    unrolled loop over. [f] must treat the bytes as read-only, stay
    within [\[addr, addr+len)], and must not let the buffer escape. *)

external unsafe_get_int64_ne : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
(** Native-endian 64-bit load with {e no} bounds check, for word-level
    sweeps over a window an enclosing {!with_range_ro} already validated.
    Only call it with [offset + 8 <=] the validated window's end; anything
    else is undefined behaviour, not an exception. *)

external unsafe_string_get_int64_ne : string -> int -> int64
  = "%caml_string_get64u"
(** {!unsafe_get_int64_ne} over a [string] (golden images are immutable
    strings); the same hoisted-bounds-check contract applies. *)

val blit_within : t -> world:World.t -> src:int -> dst:int -> len:int -> unit

type guard
(** Registration token for a write guard. *)

exception Write_trapped of { addr : int; guard_name : string }

val add_write_guard :
  t ->
  name:string ->
  base:int ->
  len:int ->
  decide:(addr:int -> len:int -> [ `Allow | `Deny ]) ->
  guard
(** Page-protection model: normal-world writes touching
    [\[base, base+len)] are first submitted to [decide]; [`Deny] aborts the
    write with {!Write_trapped} before any byte lands. Secure-world writes
    bypass guards (the hypervisor/secure world owns the page tables). This
    is the hook synchronous introspection (SPROBES / TZ-RKP style) builds
    on. *)

val remove_write_guard : t -> guard -> unit

val disable_write_guard : guard -> unit
(** The §VII-A attack: a write-what-where exploit flips the page-table AP
    bits so the guarded range becomes writable {e without} any trap — the
    guard object remains registered (the defender believes the hook is in
    place) but no longer fires. *)

val guard_active : guard -> bool

type watcher
(** Registration token for a write watcher. *)

val add_write_watcher : t -> (addr:int -> len:int -> unit) -> watcher
(** [add_write_watcher t f] calls [f ~addr ~len] after every successful
    write. Used by an in-progress introspection scan to notice normal-world
    writes racing with its scan front (the TOCTTOU window of §IV-B1). *)

val remove_write_watcher : t -> watcher -> unit

(** {1 Write generations}

    Host-side dirty tracking riding the same path as write watchers: every
    successful write bumps a global monotonic counter and stamps it onto the
    4 KiB page(s) it touched (one array store for the common single-page
    write, zero allocation). This is simulator metadata — like watchers it
    is not architecturally visible to either world — and it is what lets the
    incremental checker re-hash only blocks whose stamp advanced. *)

val gen_page_size : int
(** Granularity of generation stamps, in bytes (4096). *)

val write_generation : t -> int
(** Current value of the global write counter (0 for fresh memory). *)

val generation : t -> addr:int -> len:int -> int
(** Max stamp over all pages covering [\[addr, addr+len)]. A cached artifact
    computed when this returned [g] is stale iff a later call returns
    [> g]. Raises [Bad_address] / [Invalid_argument] on bad ranges. *)

val bump_generation : t -> addr:int -> len:int -> unit
(** Bulk invalidation: stamps the covered pages with a fresh generation
    without writing any byte or notifying watchers. For callers that mutate
    the backing store out-of-band and must force downstream caches to
    re-derive. *)

(** {1 Loaded images}

    The boot loader copies an immutable image into memory with
    {!load_image}; the memory keeps a reference to the source string. A
    consumer that needs a read-only copy of image bytes (the checker's
    golden content) can then alias the source instead of copying, for as
    long as the write generations prove the live bytes unchanged. *)

val load_image : t -> addr:int -> string -> unit
(** [load_image t ~addr src] writes [src] at [addr] as a secure-world
    {!write_string} (same checks, one generation bump, watchers notified)
    and records [src] as the image loaded there. [src] must never be
    mutated afterwards. *)

val image_slice : t -> addr:int -> len:int -> (string * int) option
(** [Some (src, off)] when [\[addr, addr+len)] lies inside an image loaded
    with {!load_image} and no page covering it has been stamped since that
    load, so the live bytes equal [src.[off .. off+len-1]]. [None]
    otherwise, including for an empty or out-of-bounds range; [None] does
    not mean the bytes differ (rewriting the same bytes still stamps). *)
