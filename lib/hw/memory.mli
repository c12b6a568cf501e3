(** Physical memory with TrustZone security attributes.

    Memory is an address space of 4 KiB pages ({!gen_page_size})
    partitioned into named regions, each tagged secure or non-secure (as
    the TZASC does on real silicon). Accesses carry the issuing world: the
    secure world may touch everything; a normal-world access to a secure
    region raises {!Access_violation}. This is the isolation boundary the
    whole paper rests on — the wake-up time queue, area set, and
    authorized hash table live in a secure region the rootkit cannot read.

    Pages are copy-on-write. A page no write has reached aliases one
    process-wide zero page, and a page a loaded image covers whole aliases
    the image string ({!load_image}); the first write to a page copies it
    into a page of its own. So a memory costs its page table plus the
    pages written into it, and no entry point can tell an aliased page
    from a private one. *)

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
    Every page aliases the shared zero page, so this allocates the page
    table only. *)

val release : t -> unit
(** Ends [t]'s lifetime: its page table is dropped, so its private pages
    become garbage, and every function taking [t], [release] included,
    raises {!Released} from then on. A leaked reference can never read or
    write again. *)

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
(** A snapshot copy (the "capture then analyze" introspection style); the
    only read that copies. *)

val write_string : t -> world:World.t -> addr:int -> string -> unit

val read_int64_le : t -> world:World.t -> addr:int -> int64
val write_int64_le : t -> world:World.t -> addr:int -> int64 -> unit
(** Little-endian 64-bit accessors (the syscall table, PCB fields, and
    secure-memory cells are all word-granular). *)

val fold_pages :
  t ->
  world:World.t ->
  addr:int ->
  len:int ->
  init:'a ->
  f:('a -> Bytes.t -> int -> int -> 'a) ->
  'a
(** [fold_pages t ~world ~addr ~len ~init ~f] validates [\[addr, addr+len)]
    once — same checks as a read — and folds [f acc data off n] over the
    range's page pieces in address order: each piece's [n] bytes are
    [data[off, off+n)], read in place with no copy (the "direct hash"
    style {!Satin_introspect.Hash.hash_region} runs its unrolled loop
    over). The pieces tile the range and split it at every page boundary,
    so each lies in one page and all but the first and last are whole
    pages. [data] may be a private page, the zero page or a loaded image:
    [f] must only read it, stay within its piece and not let it escape. *)

external unsafe_get_int64_ne : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
(** Native-endian 64-bit load with {e no} bounds check, for word-level
    sweeps over a piece {!fold_pages} already validated. Only call it
    with [offset + 8 <=] the piece's end; anything else is undefined
    behaviour, not an exception. *)

external unsafe_string_get_int64_ne : string -> int -> int64
  = "%caml_string_get64u"
(** {!unsafe_get_int64_ne} over a [string] (golden images are immutable
    strings); the same hoisted-bounds-check contract applies. *)

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
(** The page size, in bytes (4096): the granularity of generation stamps,
    of copy-on-write and of {!fold_pages}' pieces. *)

val write_generation : t -> int
(** Current value of the global write counter (0 for fresh memory). *)

val generation : t -> addr:int -> len:int -> int
(** Max stamp over all pages covering [\[addr, addr+len)]. A cached artifact
    computed when this returned [g] is stale iff a later call returns
    [> g]. Raises [Bad_address] / [Invalid_argument] on bad ranges. *)

(** {1 Loaded images}

    The boot loader maps an immutable image into memory with
    {!load_image}; the memory keeps a reference to the source string. A
    consumer that needs a read-only copy of image bytes (the checker's
    golden content) can then alias the source instead of copying, for as
    long as the write generations prove the live bytes unchanged. *)

val load_image : t -> addr:int -> string -> unit
(** [load_image t ~addr src] writes [src] at [addr] as a secure-world
    {!write_string} (same checks, one generation bump, watchers notified)
    and records [src] as the image loaded there. Every page [src] covers
    whole aliases [src] instead of holding a copy; an edge page it covers
    in part becomes a private page. The memory never writes [src], and
    [src] must never be mutated afterwards. *)

val image_slice : t -> addr:int -> len:int -> (string * int) option
(** [Some (src, off)] when [\[addr, addr+len)] lies inside an image loaded
    with {!load_image} and no page covering it has been stamped since that
    load, so the live bytes equal [src.[off .. off+len-1]]. [None]
    otherwise, including for an empty or out-of-bounds range; [None] does
    not mean the bytes differ (rewriting the same bytes still stamps). *)
