(** Integrity hash functions.

    The paper's prototype hashes kernel areas with djb2 (Bernstein); sdbm and
    FNV-1a are provided as drop-in alternatives for ablation. All three are
    64-bit, streaming, and non-cryptographic — adequate for detecting
    modifications by an attacker who cannot observe the stored reference
    values (they live in secure memory). *)

type algo = Djb2 | Sdbm | Fnv1a

val algo_to_string : algo -> string
val pp_algo : Format.formatter -> algo -> unit
val all_algos : algo list

val init : algo -> int64
val step : algo -> int64 -> int -> int64
(** [step algo h byte] absorbs one byte (0–255). *)

val absorb_int64 : algo -> int64 -> int64 -> int64
(** [absorb_int64 algo h v] absorbs [v]'s eight little-endian bytes into the
    running state [h] (used when chaining digests, e.g. the alarm log). *)

val hash_string : algo -> string -> int64
val hash_bytes : algo -> bytes -> int64

val hash_sub : algo -> Bytes.t -> off:int -> len:int -> int64
(** [hash_sub algo data ~off ~len] hashes [len] bytes of [data] starting at
    [off] with an algorithm-specialized unrolled loop — bit-identical to
    folding {!step} over the same bytes, several times faster. Raises
    [Invalid_argument] if the range exceeds [data]. *)

val hash_sub_seeded :
  algo -> seed:int64 -> Bytes.t -> off:int -> len:int -> int64
(** {!hash_sub} starting from an arbitrary state instead of {!init} — the
    primitive the block-combine machinery is built on. [hash_sub_seeded a
    ~seed:(init a)] is exactly [hash_sub a]. *)

(** {1 Block combine}

    Djb2 and Sdbm are affine byte recurrences [h' = h*m + c] (mod 2^64), so
    the hash of a concatenation factors:
    [H(s1 ++ s2) = H(s1) * m^|s2| + K(s2)] where [K] is the recurrence run
    from state [0] — a seed-independent per-block digest. The incremental
    checker caches [K] per page-aligned block and recombines in O(blocks)
    instead of O(bytes). FNV-1a xors before multiplying and does {e not}
    factor; {!combinable} is [false] for it and callers must re-hash in
    full when any block changed. *)

val combinable : algo -> bool

val block_pow : algo -> len:int -> int64
(** [m^len] (mod 2^64) for the algorithm's multiplier, by repeated squaring.
    Raises [Invalid_argument] for a non-combinable algorithm. *)

val block_digest : algo -> Bytes.t -> off:int -> len:int -> int64
(** Seed-independent digest [K] of a block: the recurrence run from [0]. *)

val block_digest_string : algo -> string -> off:int -> len:int -> int64

val combine_block : int64 -> pow:int64 -> digest:int64 -> int64
(** [combine_block h ~pow ~digest = h * pow + digest]: absorbs a whole block
    whose {!block_digest} is [digest] and whose {!block_pow} is [pow] into
    running state [h]. Bit-identical to feeding the block's bytes one at a
    time (combinable algorithms only). *)

val hash_region :
  algo ->
  Satin_hw.Memory.t ->
  world:Satin_hw.World.t ->
  addr:int ->
  len:int ->
  int64
(** Streaming hash straight out of physical memory (the "direct hash"
    introspection style — no snapshot buffer). *)
