(** Process-wide toggle for incremental host-side hashing.

    When enabled (the default), {!Checker} skips re-hashing blocks whose
    {!Satin_hw.Memory.generation} stamp has not advanced since they were
    last proven clean, reusing cached block digests. When disabled, every
    scan re-hashes in full — the reference path. The two modes are
    byte-identical in every observable output (verdicts, offsets, hashes,
    event timeline); only host CPU time differs. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Runs [f] with the toggle forced to the given value, restoring the
    previous value afterwards (exception-safe). *)
