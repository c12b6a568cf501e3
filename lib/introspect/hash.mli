(** The integrity hash: djb2 (Bernstein), the paper prototype's choice.

    64-bit, streaming and non-cryptographic — adequate for detecting
    modifications by an attacker who cannot observe the stored reference
    values (they live in secure memory). *)

val init : int64
(** The initial state, 5381. *)

val step : int64 -> int -> int64
(** [step h byte] absorbs one byte (0–255): [h * 33 + byte]. *)

val absorb_int64 : int64 -> int64 -> int64
(** [absorb_int64 h v] absorbs [v]'s eight little-endian bytes into the
    running state [h] (used when chaining digests, e.g. the alarm log). *)

val hash_string : string -> int64
val hash_bytes : bytes -> int64

val hash_sub : Bytes.t -> off:int -> len:int -> int64
(** [hash_sub data ~off ~len] hashes [len] bytes of [data] starting at
    [off] with an unrolled loop — bit-identical to folding {!step} over the
    same bytes, several times faster. Raises [Invalid_argument] if the
    range exceeds [data]. *)

(** {1 Block combine}

    djb2 is an affine byte recurrence [h' = h*33 + c] (mod 2^64), so the
    hash of a concatenation factors:
    [H(s1 ++ s2) = H(s1) * 33^|s2| + K(s2)] where [K] is the recurrence run
    from state [0] — a seed-independent per-block digest. The incremental
    checker caches [K] per page-aligned block and recombines in O(blocks)
    instead of O(bytes). *)

val block_pow : len:int -> int64
(** [33^len] (mod 2^64), by repeated squaring. *)

val block_digest : Bytes.t -> off:int -> len:int -> int64
(** Seed-independent digest [K] of a block: the recurrence run from [0]. *)

val block_digest_string : string -> off:int -> len:int -> int64

val combine_block : int64 -> pow:int64 -> digest:int64 -> int64
(** [combine_block h ~pow ~digest = h * pow + digest]: absorbs a whole block
    whose {!block_digest} is [digest] and whose {!block_pow} is [pow] into
    running state [h]. Bit-identical to feeding the block's bytes one at a
    time. *)

val hash_region :
  Satin_hw.Memory.t ->
  world:Satin_hw.World.t ->
  addr:int ->
  len:int ->
  int64
(** Streaming hash straight out of physical memory (the "direct hash"
    introspection style — no snapshot buffer), chained across the range's
    page pieces ({!Satin_hw.Memory.fold_pages}); equal to {!hash_sub} over
    the same bytes. *)
