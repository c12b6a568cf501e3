(** Sample kernel-level persistent attack: GETTID hijack (§IV-A2).

    An APT rootkit that replaces the 8-byte GETTID entry in the syscall
    table with a pointer to malicious code. While armed it "collects"
    (accumulates attack uptime); when told to hide it restores the 8
    original bytes one by one, the whole restore taking the calibrated
    [Tns_recover] for the core running the cleanup (§IV-B2: 5.80 ms on A53,
    4.96 ms on A57). Re-arming after an all-clear takes a symmetric
    modification pass. *)

type state = Dormant | Armed | Hiding | Hidden | Rearming

type t

val create :
  Satin_kernel.Kernel.t -> ?target_addr:int -> cleanup_core:int -> unit -> t
(** [cleanup_core] is where the hide/re-arm code runs; its core type sets
    the recovery speed. [target_addr] defaults to the GETTID syscall-table
    entry; override it to study other attack placements (e.g. the exception
    vector near the start of the image). Raises [Invalid_argument] for an
    unknown core. *)

val state : t -> state
val is_armed : t -> bool

val arm : t -> unit
(** First installation: save the original entry and write the hijack
    (instantaneous; the interesting timing is the {e hide} path). Only legal
    from [Dormant]. *)

val start_hide : t -> ?on_hidden:(unit -> unit) -> unit -> unit
(** Begin restoring the 8 bytes progressively; [on_hidden] fires when the
    last byte is back. Legal from [Armed] and from [Rearming] (a probe
    signal mid-re-arm aborts the re-arm and reverses it); a no-op otherwise.
    The restore runs as normal-world kernel work: it stalls only while
    every core is held by the secure world (the cleanup thread migrates
    like any other when its core is stolen). *)

val start_rearm : t -> ?on_armed:(unit -> unit) -> unit -> unit
(** Re-install the hijack after an all-clear, byte by byte. Only legal from
    [Hidden] (no-op otherwise). *)

val hijacked_now : t -> bool
(** Whether the table currently differs from the original (any byte). *)

val target_addr : t -> int
(** Address of the first hijacked byte (for placing it in an area). *)

val hides : t -> int
val rearms : t -> int

val attack_uptime : t -> Satin_engine.Sim_time.t
(** Total time spent with at least one malicious byte in place — the APT's
    "collection" time. *)

val last_hide_duration : t -> Satin_engine.Sim_time.t option
(** Wall-clock duration of the last completed hide (includes any stalls
    while the cleanup core was unavailable). *)
