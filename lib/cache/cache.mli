(** Set-associative L1/L2 cache hierarchy (per-core L1, per-cluster L2).

    The hierarchy models line presence, not line contents: a touch walks
    L1 → L2 → memory, fills both levels on the way back, and reports which
    level served the access. Tags and replacement state live in unboxed int
    arrays — a lookup or fill allocates nothing, so scan-driven fills and
    per-dispatch task footprints stay off the GC hot path (DESIGN §14).

    The L2 is inclusive: every line an L1 holds is also in its cluster's
    L2, and evicting an L2 line back-invalidates the L1 copies (tracked by
    a per-line core bitmask). With {!config.autolock} on, the hierarchy
    reproduces the AutoLock behaviour of ARM inclusive L2s: a line whose
    inclusion mask names {e another} core cannot be chosen as that
    requester's L2 victim — cross-core eviction (the primitive Prime+Probe
    needs) silently fails. When every way of a set is pinned this way the
    fill skips L2 allocation entirely (counted in {!autolock_skips}; the
    line still fills the requester's L1, a documented non-inclusive
    fallback).

    Counters are plain ints, mirrored into [Obs] as [cache.*] series by
    {!publish} (called automatically by {!touch_range} and
    {!touch_footprint}). *)

type geometry = { sets : int; ways : int; line : int }
(** [sets] and [line] must be powers of two (a line's set is its low tag
    bits), [ways] at most 62, and both levels share one [line]. *)

type config = {
  l1 : geometry;  (** per-core level; default 32 sets x 16 ways x 64 B *)
  l2 : geometry;  (** per-cluster level; default 1024 sets x 16 ways x 64 B *)
  policy : Policy.kind;  (** replacement policy for both levels *)
  autolock : bool;  (** pin L1-resident lines against cross-core L2 eviction *)
}

val default_config : config
(** Juno-like geometry: 32 KiB 16-way L1 per core, 1 MiB 16-way shared L2
    per cluster, 64-byte lines, Tree-PLRU, AutoLock off. *)

val config_to_key : config -> (string * string) list
(** Stable [(name, value)] pairs for store keys / telemetry labels. *)

type stats = { hits : int; misses : int; evictions : int }

type t

val create :
  ?prng:Satin_engine.Prng.t -> clusters:int array array -> config -> t
(** [clusters] maps cluster index to member core ids (a partition of
    [0 .. ncores - 1]). [prng] feeds only the [Rand] policy; the default is
    a self-seeded stream so a cache never perturbs its platform's PRNG.
    Raises [Invalid_argument] on a geometry that breaks {!geometry}'s
    rules, e.g. [sets = 48]. *)

val config : t -> config
val ncores : t -> int
val cluster_of_core : t -> core:int -> int

val touch : t -> core:int -> addr:int -> int
(** Access one address from [core], filling on the way: returns the level
    that served it — [0] L1 hit, [1] L2 hit, [2] memory (miss in both).
    Raises [Invalid_argument] if [addr < 0], as do {!touch_range},
    {!peek} and {!footprint}. *)

val sweep : t -> core:int -> int array -> int array -> unit
(** [sweep t ~core addrs tally] touches every address of [addrs] from
    [core], in order, exactly as repeated {!touch} would, and adds one to
    [tally.(level)] for the level that served each. [tally] is the
    caller's, at least 3 slots (Invalid_argument otherwise); nothing is
    allocated and nothing is published. One call per eviction-set pass of
    a Prime+Probe or Evict+Reload prober. *)

val touch_range : t -> core:int -> addr:int -> len:int -> unit
(** Touch every line intersecting [\[addr, addr + len)], then {!publish}. *)

val peek : t -> core:int -> addr:int -> int
(** Like {!touch} but with no side effects at all: no fill, no replacement
    update, no counters. For tests and assertions. *)

type footprint
(** A fixed address window re-touched again and again — a task's working
    set, touched on every dispatch — with the replay summary of its last
    walk. *)

val footprint : addr:int -> len:int -> footprint
(** The window [\[addr, addr + len)]; nothing recorded yet. *)

val touch_footprint : t -> footprint -> core:int -> unit
(** Exactly {!touch_range} over the footprint's window — same fills,
    replacement state, [tick] and counters, then {!publish} — but cheap
    when nothing moved. After a walk that leaves every line in [core]'s
    L1, the handle records each line's way and a per-set summary of the
    replacement update a run of hits makes. Each L1 counts its tag writes
    (fills, and back-invalidations from any core's L2 fill); when the same
    core re-touches the footprint and its count has not moved, every line
    is provably an L1 hit at its recorded way, and the summary is applied
    in place of the per-line lookups and policy walks. Any other case
    walks the window again and re-records. *)

val footprint_replays : t -> int
(** {!touch_footprint} calls served by replay. A host-side diagnostic:
    not published to [Obs]. *)

val state_digest : t -> string
(** Hex digest of the whole modeled state: every level's tags,
    replacement-policy words and inclusion masks, and the touch clock.
    For differential tests. *)

val invariant_violations : t -> string list
(** Structural self-check of the structures the miss path derives from
    the tags, one message per violation (empty when healthy): each set's
    free word has bit [w] set iff way [w] holds no line; each L1 line's
    L2 pointer, when not -1, names a slot of its cluster's L2 that holds
    the same line with the core's inclusion bit set; and each inclusion
    bit is backed by such an L1 line. O(lines); for tests. *)

val line_size : t -> int
val l2_sets : t -> int
val l2_ways : t -> int

val l2_set_of_addr : t -> addr:int -> int

val eviction_set : t -> l2_set:int -> base:int -> int array
(** [l2_ways] addresses at or above [base], line-aligned, all mapping to
    [l2_set] — touching them all from one core evicts every unpinned line
    of that L2 set. Consecutive members are [l2_sets * line] bytes apart,
    so on the default geometry a whole eviction set also lands in a single
    L1 set (the alignment AutoLock exploits). *)

val l1_stats : t -> stats
val l2_stats : t -> stats
val autolock_skips : t -> int
val back_invalidations : t -> int

val publish : t -> unit
(** Emit counter deltas since the last publish as [cache.l1.hits],
    [cache.l1.misses], [cache.l2.hits], [cache.l2.misses],
    [cache.l2.evictions], [cache.autolock_skips] and
    [cache.back_invalidations]. No-op unless [Obs.active ()]. *)
