(** Replacement policies: their names and per-set state layout.

    A policy owns a fixed number of state words per set (see {!state_words});
    the cache keeps them in one int array per level and implements each
    policy's touch and victim over them ([Cache], DESIGN §14), so a touch
    is one word write and neither allocates. Three policies, in decreasing
    fidelity cost:

    - {!Lru}: true least-recently-used, one monotone touch stamp per way.
      The reference the others are validated against.
    - {!Tree_plru}: the tree pseudo-LRU ARM's L1/L2 designs actually ship —
      [ways - 1] direction bits in a single word; a touch points every bit
      on the way's path away from it, a victim walk follows the bits.
      Requires a power-of-two associativity. Exactly LRU at 2 ways.
    - {!Rand}: not-most-recently-used random — Cortex-A53's documented
      "random" replacement still never victimizes the line it just filled,
      so the policy tracks the MRU way and draws uniformly among the rest.

    Every policy guarantees the just-touched way is not the next victim
    (when at least one other way is eligible) — the qcheck property in
    [test_cache.ml] pins this for all three. *)

type kind = Lru | Tree_plru | Rand

val all : kind list
val kind_to_string : kind -> string

val state_words : kind -> ways:int -> int
(** State words per set: [ways] for {!Lru}, 1 for the others. *)

val validate : kind -> ways:int -> unit
(** Raises [Invalid_argument] if the associativity is unsupported
    ({!Tree_plru} needs a power of two; all need [1 <= ways <= 62]). *)

val init : kind -> state:int array -> off:int -> ways:int -> unit
(** Reset one set's slice [state.(off .. off + state_words - 1)] to the
    cold state: every {!Lru} stamp 0, every {!Tree_plru} bit 0, no {!Rand}
    MRU way (-1). *)
