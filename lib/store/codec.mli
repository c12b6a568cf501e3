(** The versioned, self-checksummed on-disk record format ([satin-store/v1]).

    A record is a four-line text header followed by a binary payload:

    {v
    satin-store/v1\n
    <experiment id, escaped>\n
    <32-char hex MD5 of the experiment line, "\n" and the payload>\n
    <payload length, decimal>\n
    <payload: Marshal of the trial result>
    v}

    The checksum and length make every record independently verifiable:
    {!decode} refuses truncated, bit-flipped, or foreign-version bytes
    with a typed error, and the {!Store} quarantines such files instead of
    serving them. The experiment id is read back only by {!decode_raw},
    for capsules; a record keeps it so that its file names its experiment
    to a reader. The payload is [Marshal] output, which is only safe to
    read back in the binary that produced it — guaranteed upstream by the
    {!Fingerprint} component of every key, never by this module. *)

val magic : string
(** ["satin-store/v1"]. *)

type error =
  | Bad_magic  (** first line is not a satin-store header at all *)
  | Bad_version of string  (** a satin-store record of another version *)
  | Truncated  (** header incomplete, or payload shorter than declared *)
  | Bad_checksum  (** payload bytes do not match the recorded digest *)
  | Garbled  (** checksum passed but the payload failed to unmarshal *)

val error_to_string : error -> string

val encode : experiment:string -> 'a -> string
(** Serialize one trial result. The value must be pure data (no closures,
    no custom blocks that refuse marshalling). *)

val decode : string -> ('a, error) result
(** Verify and deserialize a record. Unsafe in exactly one way: the caller
    asserts the result type matches what {!encode} was given, which holds
    whenever the record was looked up by a {!Key} (same binary, same
    experiment, same config). *)

val encode_raw : experiment:string -> string -> string
(** Frame an arbitrary byte payload (no [Marshal]) in the same header +
    checksum envelope. This is the envelope for metric capsules, whose
    payloads are canonical JSON precisely so that — unlike {!encode}
    records — any build can read them back. *)

val decode_raw : string -> (string * string, error) result
(** Verify a record and return [(experiment, payload)] without
    interpreting the payload. Never returns {!Garbled} (payload semantics
    are the caller's). *)
