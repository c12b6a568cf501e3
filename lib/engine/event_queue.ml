(* 4-ary min-heap over unboxed parallel arrays.

   The heap is three [int array]s walked in lockstep — [times], [seqs],
   [slots] — ordered by (time, seq), so a sift touches flat integer memory
   only, and the 4-ary fan-out halves the tree height of a binary heap.
   Sifts move a hole rather than swapping: each level costs one entry move
   and the sifted entry is written once, where it lands. The simulator's
   pending sets are tens to hundreds of events deep, so a push or a pop is
   a handful of levels (DESIGN §12).

   Payloads and lifecycle live in a slot table indexed by the [slots]
   entries. A handle is an immediate int packing (slot, generation);
   slots are recycled through a free-list threaded via [slot_next], and
   the generation guards stale handles: cancelling a handle whose slot has
   since been reused is a no-op, exactly like cancelling an already-fired
   event. Every slot is on the heap or on the free-list, so the heap and
   the slot table share one capacity.

   Packing (time, seq) into one int key was considered and rejected:
   native sim times use the full 63-bit range and a split key caps either
   the horizon or the event count with a silent-wraparound cliff. *)

let state_free = 0
let state_pending = 1
let state_cancelled = 2

(* handle = (slot lsl gen_bits) lor generation. Generations wrap at 2^31;
   a stale handle only misfires if its exact slot is reused exactly 2^31
   times while the handle is still held. *)
let gen_bits = 31
let gen_mask = (1 lsl gen_bits) - 1

(* Unique static block marking "this slot holds no payload"; compared with
   physical equality only, never dereferenced as a payload. *)
let no_payload : Obj.t = Obj.repr (ref "event-queue-no-payload")

type handle = int

type 'a t = {
  (* heap, min-ordered by (time, seq); entries from [size] on are dead *)
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable live : int;
  (* latest instant any peek or drain has returned (see [drain_batch]) *)
  mutable horizon : int;
  mutable draining : bool;
  (* Slot table. Payloads are stored unwrapped against [no_payload], so a
     push allocates nothing (an ['a option] cell cost 2 words per event
     and a dependent load per dispatch); the static element type [Obj.t]
     keeps the array a uniform pointer array even for float payloads. A
     payload is re-sentineled the moment its event fires or is cancelled,
     so the closure is collectible. [slot_gs] packs [(gen lsl 2) lor
     state]; [slot_next] threads the free-list, -1 terminating. *)
  mutable slot_payload : Obj.t array;
  mutable slot_gs : int array;
  mutable slot_next : int array;
  mutable free_head : int;
}

let create () =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    size = 0;
    next_seq = 0;
    live = 0;
    horizon = 0;
    draining = false;
    slot_payload = [||];
    slot_gs = [||];
    slot_next = [||];
    free_head = -1;
  }

let is_empty t = t.live = 0
let length t = t.live

let handle_slot h = h lsr gen_bits
let handle_gen h = h land gen_mask

let is_live t h =
  let s = handle_slot h in
  s < Array.length t.slot_gs
  && t.slot_gs.(s) = (handle_gen h lsl 2) lor state_pending

(* ---- sifts: indices are below [size] by construction, so these skip
   the bounds checks; [invariant_violations] checks explicitly ---- *)

let[@inline] before (times : int array) (seqs : int array) i j =
  let ti = Array.unsafe_get times i and tj = Array.unsafe_get times j in
  ti < tj || (ti = tj && Array.unsafe_get seqs i < Array.unsafe_get seqs j)

let[@inline] set_entry (times : int array) (seqs : int array)
    (slots : int array) i ~time ~seq ~slot =
  Array.unsafe_set times i time;
  Array.unsafe_set seqs i seq;
  Array.unsafe_set slots i slot

let[@inline] move times seqs slots ~src ~dst =
  set_entry times seqs slots dst ~time:(Array.unsafe_get times src)
    ~seq:(Array.unsafe_get seqs src) ~slot:(Array.unsafe_get slots src)

(* Move the hole at [i] up past every parent later than [time]; returns
   where it stops. Only [push] sifts up, and a pushed entry carries the
   largest seq yet, so it precedes a parent on time alone. *)
let rec hole_up times seqs slots i (time : int) =
  let parent = (i - 1) lsr 2 in
  if i > 0 && time < Array.unsafe_get times parent then begin
    move times seqs slots ~src:parent ~dst:i;
    hole_up times seqs slots parent time
  end
  else i

(* Move the hole at [i] down past every earliest child, among the first
   [n] entries, that precedes (time, seq); returns where it stops. *)
let rec hole_down times seqs slots n i (time : int) (seq : int) =
  let c = (i lsl 2) + 1 in
  if c >= n then i
  else
    let m = c in
    let m = if c + 1 < n && before times seqs (c + 1) m then c + 1 else m in
    let m = if c + 2 < n && before times seqs (c + 2) m then c + 2 else m in
    let m = if c + 3 < n && before times seqs (c + 3) m then c + 3 else m in
    let mt = Array.unsafe_get times m in
    if mt < time || (mt = time && Array.unsafe_get seqs m < seq) then begin
      move times seqs slots ~src:m ~dst:i;
      hole_down times seqs slots n m time seq
    end
    else i

(* ---- slot table ---- *)

let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let extend a fill =
    let n = Array.make ncap fill in
    Array.blit a 0 n 0 cap;
    n
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.slot_payload <- extend t.slot_payload no_payload;
  t.slot_gs <- extend t.slot_gs 0 (* state_free at generation 0 *);
  t.slot_next <- extend t.slot_next (-1);
  (* Lowest id on top, so fresh queues hand out slots 0, 1, 2, ... *)
  for s = ncap - 1 downto cap do
    t.slot_next.(s) <- t.free_head;
    t.free_head <- s
  done

let release_slot t s =
  t.slot_payload.(s) <- no_payload;
  t.slot_gs.(s) <- (((t.slot_gs.(s) lsr 2) + 1) land gen_mask) lsl 2;
  t.slot_next.(s) <- t.free_head;
  t.free_head <- s

let push t ~time payload =
  if t.free_head < 0 then grow t;
  let s = t.free_head in
  t.free_head <- t.slot_next.(s);
  t.slot_payload.(s) <- Obj.repr payload;
  let gs = t.slot_gs.(s) in
  t.slot_gs.(s) <- gs lor state_pending;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.live <- t.live + 1;
  let i = t.size in
  t.size <- i + 1;
  let i = hole_up t.times t.seqs t.slots i time in
  set_entry t.times t.seqs t.slots i ~time ~seq ~slot:s;
  (s lsl gen_bits) lor (gs lsr 2)

let cancel t h =
  if is_live t h then begin
    (* The tombstone stays on the heap until it reaches the top; the
       closure is collectible right away. *)
    let s = handle_slot h in
    t.slot_gs.(s) <- (handle_gen h lsl 2) lor state_cancelled;
    t.slot_payload.(s) <- no_payload;
    t.live <- t.live - 1
  end

(* Remove the top entry and free its slot. *)
let remove_top t =
  let s = t.slots.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let times = t.times and seqs = t.seqs and slots = t.slots in
    let time = times.(n) and seq = seqs.(n) and slot = slots.(n) in
    let i = hole_down times seqs slots n 0 time seq in
    set_entry times seqs slots i ~time ~seq ~slot
  end;
  release_slot t s

let[@inline] top_pending t = t.slot_gs.(t.slots.(0)) land 3 = state_pending

(* Time of the earliest live event, or [default], dropping cancelled
   tombstones that have reached the top; records the time as returned. *)
let rec expose_top t ~default =
  if t.size = 0 then default
  else if not (top_pending t) then begin
    remove_top t;
    expose_top t ~default
  end
  else begin
    let time = t.times.(0) in
    if time > t.horizon then t.horizon <- time;
    time
  end

(* Dispatch the pending entries at [time] with seq below [bound] off the
   top, dropping tombstones in passing, until [max_events] have fired. *)
let rec drain_top t ~time ~bound ~max_events f n =
  if n >= max_events || t.size = 0 then n
  else if not (top_pending t) then begin
    remove_top t;
    drain_top t ~time ~bound ~max_events f n
  end
  else if t.times.(0) <> time || t.seqs.(0) >= bound then n
  else begin
    let p = t.slot_payload.(t.slots.(0)) in
    assert (p != no_payload);
    (* Restructure before [f]: the callback is free to push. *)
    remove_top t;
    t.live <- t.live - 1;
    f time (Obj.obj p);
    drain_top t ~time ~bound ~max_events f (n + 1)
  end

(* [max_events] is a required label: an optional argument given a computed
   value boxes a [Some] per call, ~2 minor words per event on the engine
   drain.

   The batch is the live events at the top instant whose seq is below
   [next_seq] at drain start, so a same-instant push from a callback
   starts the next batch. The exception is an instant earlier than
   [horizon]: there such a push joins the current batch, as it did in the
   timing wheel this heap replaced. [Engine.run_until] peeks past its
   stop, so such instants occur, and the traced [engine.batches] counts in
   bench_e2e's baseline depend on the exception (DESIGN §12). *)
let drain_batch t ~max_events f =
  if max_events <= 0 then 0
  else if t.draining then
    invalid_arg "Event_queue.drain_batch: nested drain from a dispatch callback"
  else
    let time = expose_top t ~default:max_int in
    if t.size = 0 then 0
    else begin
      let bound = if time < t.horizon then max_int else t.next_seq in
      t.draining <- true;
      match drain_top t ~time ~bound ~max_events f 0 with
      | n ->
          t.draining <- false;
          n
      | exception exn ->
          t.draining <- false;
          raise exn
    end

let pop_into t f = drain_batch t ~max_events:1 f > 0

let pop t =
  let out = ref None in
  if pop_into t (fun time p -> out := Some (time, p)) then !out else None

let peek_time_or t ~default = expose_top t ~default

let peek_time t =
  let time = expose_top t ~default:0 in
  if t.size = 0 then None else Some time

(* ---- invariant checking (the simulation sanitizer's substrate view) ---- *)

let invariant_violations t =
  let bad = ref [] in
  let report fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  let cap = Array.length t.times in
  if
    List.exists
      (fun n -> n <> cap)
      [
        Array.length t.seqs;
        Array.length t.slots;
        Array.length t.slot_payload;
        Array.length t.slot_gs;
        Array.length t.slot_next;
      ]
  then report "parallel arrays disagree on capacity %d" cap;
  let size = max 0 (min t.size cap) in
  if t.size <> size then report "size %d outside [0, capacity %d]" t.size cap;
  if t.live < 0 || t.live > size then
    report "live count %d outside [0, size %d]" t.live size;
  for i = 1 to size - 1 do
    let parent = (i - 1) / 4 in
    if before t.times t.seqs i parent then
      report
        "heap order broken at entry %d (time %d seq %d before parent time %d \
         seq %d)"
        i t.times.(i) t.seqs.(i) t.times.(parent) t.seqs.(parent)
  done;
  let referenced = Array.make (max cap 1) false in
  let pending = ref 0 in
  for i = 0 to size - 1 do
    let s = t.slots.(i) in
    if s < 0 || s >= cap then report "heap entry %d references bad slot %d" i s
    else begin
      if referenced.(s) then
        report "slot %d referenced by more than one heap entry" s;
      referenced.(s) <- true;
      match t.slot_gs.(s) land 3 with
      | st when st = state_pending ->
          incr pending;
          if t.slot_payload.(s) == no_payload then
            report "pending slot %d lost its payload" s
      | st when st = state_cancelled ->
          if t.slot_payload.(s) != no_payload then
            report "cancelled slot %d retains its payload" s
      | _ -> report "heap entry %d references freed slot %d" i s
    end
  done;
  if !pending <> t.live then
    report "live count %d disagrees with %d pending entries" t.live !pending;
  (* Free-list: exactly the unreferenced slots, each clean. A cycle or a
     crosslink into the heap would loop, so walk at most [cap] links. *)
  let free = ref 0 in
  let s = ref t.free_head in
  while !s >= 0 && !free <= cap do
    if !s >= cap then report "free-list references bad slot %d" !s
    else begin
      if referenced.(!s) then
        report "slot %d is both on the heap and on the free-list" !s;
      if t.slot_gs.(!s) land 3 <> state_free then
        report "free-list slot %d is not marked free" !s;
      if t.slot_payload.(!s) != no_payload then
        report "vacated slot %d retains a stale payload" !s
    end;
    incr free;
    s := if !s < cap then t.slot_next.(!s) else -1
  done;
  if !free <> cap - size then
    report "free-list holds %d slots, expected %d" !free (cap - size);
  List.rev !bad

module Unsafe = struct
  let skew_live t delta = t.live <- t.live + delta
end
