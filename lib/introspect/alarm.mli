(** Alarm sink with a tamper-evident audit log.

    §V-B: "If the integrity checking module finds any abnormal small area,
    it can raise an alarm to the server side or the device user." This
    module is that channel: defenses report rounds into a sink; tampered
    rounds become alarms. Entries are hash-chained (each entry's digest
    covers the previous digest), so a normal-world attacker who later gains
    the log cannot rewrite history without breaking the chain — the
    lightweight attestation story of §VII-D. The sink itself lives in the
    secure world in a real deployment; here the chain is verifiable by
    anyone holding the genesis value. *)

type severity = Info | Alert

type entry = {
  seq : int;
  time : Satin_engine.Sim_time.t;
  severity : severity;
  area_index : int;
  core : int;
  offsets : int list; (** modified offsets caught (empty for Info) *)
  digest : int64; (** chain digest including the previous entry's *)
}

type t

val create : ?log_clean_rounds:bool -> unit -> t
(** [log_clean_rounds] (default false) also chains an Info entry per clean
    round — a heartbeat proving the introspection kept running. *)

val genesis : t -> int64

val attach_satin : t -> Satin.t -> unit
(** Subscribe to a SATIN instance's rounds. *)

val record_round : t -> Round.t -> unit
(** Manual feed (what {!attach_satin} uses). *)

val entries : t -> entry list
(** Oldest first. *)

val alarms : t -> entry list
(** Alert entries only, oldest first. *)

val count : t -> int
val head_digest : t -> int64

val verify_chain : t -> bool
(** Recompute the chain from genesis; [false] if any entry was altered. *)

val verify_entries : genesis:int64 -> entry list -> bool
(** Chain verification for an exported log (e.g. on the "server side"). *)

val on_alarm : t -> (entry -> unit) -> unit
