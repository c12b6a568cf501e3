(** Pending-event set for the discrete-event engine.

    A 4-ary min-heap over unboxed parallel arrays, ordered by (time,
    insertion sequence): events scheduled for the same instant fire in
    insertion order, so simulations stay deterministic. Push and pop sift
    a hole through O(log_4 n) levels; the simulator's pending sets are tens
    to hundreds of events deep (DESIGN §12).

    Payloads live in a recycled slot table, stored unwrapped; a {!handle}
    is an immediate int packing (slot, generation), so a push allocates
    nothing and the {!pop_into}/{!drain_batch} dispatch path allocates
    nothing either. Cancellation is O(1) (a tombstone flag that also frees
    the payload); tombstones are dropped lazily when they reach the top. *)

type 'a t

type handle
(** Identifies a scheduled event for cancellation. Immediate (unboxed);
    generation-guarded, so operations on a handle whose slot has been
    recycled are no-ops. *)

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Number of live (non-cancelled) events. *)

val push : 'a t -> time:Sim_time.t -> 'a -> handle
(** Schedule a payload at an absolute time. O(log n) sift-up; allocates
    nothing once the slot table has grown to the queue's depth. *)

val cancel : 'a t -> handle -> unit
(** Cancel a scheduled event. Cancelling an already-fired or already-
    cancelled event is a no-op. The payload is released immediately. *)

val is_live : 'a t -> handle -> bool
(** [is_live t h] is [true] until the event fires or is cancelled. *)

val pop : 'a t -> (Sim_time.t * 'a) option
(** Remove and return the earliest live event. Convenience wrapper over
    {!pop_into}; allocates the option and pair. *)

val pop_into : 'a t -> (Sim_time.t -> 'a -> unit) -> bool
(** [pop_into t f] removes the earliest live event and calls [f time
    payload]; returns [false] without calling [f] when no live event
    remains. The event is fully removed before [f] runs, so [f] may push
    or cancel freely ([f] must not pop — see {!drain_batch}).
    Allocation-free: the engine's drain loop passes one preallocated
    closure. *)

val drain_batch : 'a t -> max_events:int -> (Sim_time.t -> 'a -> unit) -> int
(** [drain_batch t ~max_events f] removes the live events sharing the
    earliest pending timestamp — at most [max_events] of them, lowest
    insertion sequence first — and calls [f time payload] for each; returns
    the number dispatched (0 when the queue is empty). [max_events] is a
    required label (pass [max_int] for "the whole batch"): an optional
    argument fed a computed bound would box a [Some] per call, defeating
    the allocation-free drain.

    The batch is the events already pending when the drain starts, so a
    callback pushing at the same instant starts a {e new} batch (global
    (time, seq) dispatch order is unchanged), while a callback cancelling
    a later event of the current batch still suppresses it, exactly as
    one-at-a-time popping would. One exception keeps batch boundaries
    where the engine's traced counts expect them: at an instant earlier
    than the latest one any {!peek_time}/{!peek_time_or} or drain has
    returned, a same-instant push joins the current batch.

    [f] may push and cancel, but must not re-enter [pop]/[pop_into]/
    [drain_batch] on the same queue (raises [Invalid_argument]). *)

val peek_time : 'a t -> Sim_time.t option
(** Time of the earliest live event without removing it. *)

val peek_time_or : 'a t -> default:Sim_time.t -> Sim_time.t
(** Allocation-free {!peek_time}: the earliest live event's time, or
    [default] when the queue is empty. *)

val invariant_violations : 'a t -> string list
(** Structural self-check, one message per violated invariant (empty when
    healthy): 4-ary heap order, live-count agreement with the pending
    slots the heap references, slot-table hygiene (each slot referenced at
    most once, pending slots hold payloads, cancelled and vacated slots do
    not) and free-list integrity (exactly the unreferenced slots, each
    clean). The simulation sanitizer samples this on a cadence, also from
    inside dispatch callbacks; it is O(capacity). *)

module Unsafe : sig
  val skew_live : 'a t -> int -> unit
  (** Corrupt the live-count by [delta] — a fault-injection hook for testing
      that the sanitizer catches accounting skew. Never call it elsewhere. *)
end
