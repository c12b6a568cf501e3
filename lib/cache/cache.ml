module Prng = Satin_engine.Prng
module Obs = Satin_obs.Obs

module Metric = struct
  let l1_hits = Obs.key "cache.l1.hits"
  let l1_misses = Obs.key "cache.l1.misses"
  let l2_hits = Obs.key "cache.l2.hits"
  let l2_misses = Obs.key "cache.l2.misses"
  let l2_evictions = Obs.key "cache.l2.evictions"
  let autolock_skips = Obs.key "cache.autolock_skips"
  let back_invalidations = Obs.key "cache.back_invalidations"
end

type geometry = { sets : int; ways : int; line : int }

type config = {
  l1 : geometry;
  l2 : geometry;
  policy : Policy.kind;
  autolock : bool;
}

let default_config =
  {
    l1 = { sets = 32; ways = 16; line = 64 };
    l2 = { sets = 1024; ways = 16; line = 64 };
    policy = Policy.Tree_plru;
    autolock = false;
  }

let config_to_key c =
  [
    ( "l1",
      Printf.sprintf "%dx%dx%d" c.l1.sets c.l1.ways c.l1.line );
    ( "l2",
      Printf.sprintf "%dx%dx%d" c.l2.sets c.l2.ways c.l2.line );
    ("policy", Policy.kind_to_string c.policy);
    ("autolock", if c.autolock then "on" else "off");
  ]

type stats = { hits : int; misses : int; evictions : int }

(* One physical level: tags.(set * ways + way) is the line address (-1 =
   invalid), pol is the policy's per-set state, incl (L2 only) the per-line
   bitmask of cores whose L1 holds the line. epoch (L1 only) counts tag
   writes: while it stands still, every line sits at the way it had.
   Two arrays are derived from the tags, so that a miss never scans a set
   for them: free holds one word per set, with bit w set iff way w is
   invalid, and l2_slot (L1 only) holds, per line, the L2 slot
   (set * ways + way) whose inclusion bit the line owns, or -1 for an
   invalid line or one filled under the AutoLock non-inclusive fallback.
   touch_tbl is the one-word policies' touch table (see [touch_table]). *)
type level = {
  geo : geometry;
  ways : int;
  mask : int; (* sets - 1: a tag's set is [tag land mask] *)
  tags : int array;
  free : int array;
  pol : int array;
  pol_words : int;
  touch_tbl : int array; (* length 0 under Lru *)
  incl : int array; (* length 0 for L1 *)
  l2_slot : int array; (* length 0 for L2 *)
  mutable epoch : int;
}

(* A recorded footprint: its [f_lines] lines all sat in [f_l1] when that
   L1's epoch was [f_epoch] ([f_ways] is scratch for the walk that
   records). Replaying them as hits applies
   [pol.(f_idx.(i)) <- (pol.(f_idx.(i)) land f_keep.(i) lor f_set.(i)) + base]
   for each of the [f_entries] summary words, [base] being the tick before
   the replay under Lru and 0 otherwise. *)
type footprint = {
  f_addr : int;
  f_len : int;
  mutable f_l1 : level option; (* None: nothing recorded *)
  mutable f_epoch : int;
  mutable f_lines : int;
  mutable f_ways : int array;
  mutable f_entries : int;
  mutable f_idx : int array;
  mutable f_keep : int array;
  mutable f_set : int array;
}

type t = {
  cfg : config;
  kind : Policy.kind; (* cfg.policy, read on every touch *)
  shift : int; (* log2 line: a line's tag is [addr lsr shift] *)
  clusters : int array array;
  cluster_of : int array;
  l1s : level array; (* per core *)
  l2s : level array; (* per cluster *)
  prng : Prng.t;
  mutable tick : int;
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable l1_evictions : int;
  mutable l2_hits : int;
  mutable l2_misses : int;
  mutable l2_evictions : int;
  mutable autolock_skips : int;
  mutable back_invals : int;
  mutable replays : int; (* footprint touches served by replay; not published *)
  (* publish watermarks *)
  mutable p_l1_hits : int;
  mutable p_l1_misses : int;
  mutable p_l2_hits : int;
  mutable p_l2_misses : int;
  mutable p_l2_evictions : int;
  mutable p_autolock_skips : int;
  mutable p_back_invals : int;
}

let check_geometry name g ~line =
  if g.sets <= 0 || g.line <= 0 then
    invalid_arg (Printf.sprintf "Cache.create: bad %s geometry" name);
  if g.line land (g.line - 1) <> 0 then
    invalid_arg (Printf.sprintf "Cache.create: %s line size not a power of two" name);
  if g.sets land (g.sets - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Cache.create: %s set count not a power of two" name);
  if g.line <> line then
    invalid_arg "Cache.create: L1 and L2 line sizes must match"

(* ---- replacement: each policy's touch and victim ---- *)

(* [way_of_bit.((1 lsl w) mod 67)] = w for every way w < 62: 2 is a
   primitive root modulo the prime 67, so those residues are distinct (and
   a constant modulus compiles to a multiply, not a division). *)
let way_of_bit =
  let tbl = Array.make 67 0 in
  for w = 0 to 61 do
    tbl.((1 lsl w) mod 67) <- w
  done;
  tbl

(* The lowest way whose bit is set in [bits <> 0]: the way a scan of the
   ways in order would reach first. *)
let lowest_way bits = Array.unsafe_get way_of_bit ((bits land -bits) mod 67)

(* Set bits of [x < 2^62]: per-pair, per-nibble, then per-byte sums, the
   byte sums added up in the top byte by one multiply. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x =
    (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333)
  in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* The one-word policies' touch as data: a touch of [way] maps the set's
   word [w] to [(w land tbl.(2 * way)) lor tbl.(2 * way + 1)] whatever [w]
   holds, so a run of touches to one set composes into one such pair
   (footprint replay records them). Rand overwrites the MRU way. Tree-PLRU
   keeps the [ways - 1] internal nodes of a perfect binary tree in heap
   order (root = node 1, bit [node - 1] of the word); bit 0 means "the
   colder half is the left one", and a touch points every bit on the
   way's root path at the other half. Lru (one stamp per way) has none. *)
let touch_table kind ~ways =
  match kind with
  | Policy.Lru -> [||]
  | Policy.Rand ->
      Array.init (2 * ways) (fun i -> if i land 1 = 0 then 0 else i lsr 1)
  | Policy.Tree_plru ->
      let tbl = Array.make (2 * ways) 0 in
      for way = 0 to ways - 1 do
        let keep = ref (-1) and set = ref 0 and node = ref 1 in
        let depth = ref ways in
        while !depth > 1 do
          depth := !depth / 2;
          let b = 1 lsl (!node - 1) in
          keep := !keep land lnot b;
          (* touched left: the colder half is the right one *)
          let right = way land !depth <> 0 in
          if not right then set := !set lor b;
          node := (2 * !node) lor Bool.to_int right
        done;
        tbl.(2 * way) <- !keep;
        tbl.((2 * way) + 1) <- !set
      done;
      tbl

(* LRU: the unlocked way with the oldest stamp, the lowest on a tie. *)
let lru_victim pol ~off ~ways ~locked =
  let best = ref (-1) and best_stamp = ref max_int in
  for w = 0 to ways - 1 do
    if locked land (1 lsl w) = 0 && pol.(off + w) < !best_stamp then begin
      best := w;
      best_stamp := pol.(off + w)
    end
  done;
  !best

(* Tree-PLRU: follow the bits down from the root in heap order; the leaf
   reached is node [ways + way]. A pinned leaf yields the next unlocked
   way in circular order — deterministic, and still off the MRU path
   when any colder way is free. *)
let plru_victim pol ~set ~ways ~locked =
  let bits = pol.(set) in
  let node = ref 1 in
  while !node < ways do
    node := (2 * !node) lor ((bits lsr (!node - 1)) land 1)
  done;
  let v = !node - ways in
  if locked land (1 lsl v) = 0 then v
  else begin
    let unlocked = lnot locked land ((1 lsl ways) - 1) in
    if unlocked = 0 then -1
    else
      let above = unlocked land (-1 lsl (v + 1)) in
      lowest_way (if above <> 0 then above else unlocked)
  end

(* Rand (NMRU): a uniform draw among the unlocked ways other than the MRU
   one — the [pick]-th such way, lowest first. With none eligible, the MRU
   way if it is unlocked. *)
let rand_victim prng pol ~set ~ways ~locked =
  let mru = pol.(set) in
  let unlocked = lnot locked land ((1 lsl ways) - 1) in
  let elig = if mru < 0 then unlocked else unlocked land lnot (1 lsl mru) in
  if elig = 0 then
    if mru >= 0 && unlocked land (1 lsl mru) <> 0 then mru else -1
  else begin
    let e = ref elig in
    for _ = 1 to Prng.int prng (popcount elig) do
      e := !e land (!e - 1)
    done;
    lowest_way !e
  end

let make_level policy (g : geometry) ~l2 =
  let pol_words = Policy.state_words policy ~ways:g.ways in
  let lines = g.sets * g.ways in
  let lvl =
    {
      geo = g;
      ways = g.ways;
      mask = g.sets - 1;
      tags = Array.make lines (-1);
      free = Array.make g.sets ((1 lsl g.ways) - 1);
      pol = Array.make (g.sets * pol_words) 0;
      pol_words;
      touch_tbl = touch_table policy ~ways:g.ways;
      incl = (if l2 then Array.make lines 0 else [||]);
      l2_slot = (if l2 then [||] else Array.make lines (-1));
      epoch = 0;
    }
  in
  for s = 0 to g.sets - 1 do
    Policy.init policy ~state:lvl.pol ~off:(s * pol_words) ~ways:g.ways
  done;
  lvl

let create ?prng ~clusters cfg =
  let ncores = Array.fold_left (fun a m -> a + Array.length m) 0 clusters in
  if ncores = 0 then invalid_arg "Cache.create: empty cluster map";
  if ncores > 62 then invalid_arg "Cache.create: at most 62 cores";
  Policy.validate cfg.policy ~ways:cfg.l1.ways;
  Policy.validate cfg.policy ~ways:cfg.l2.ways;
  check_geometry "l1" cfg.l1 ~line:cfg.l2.line;
  check_geometry "l2" cfg.l2 ~line:cfg.l2.line;
  let cluster_of = Array.make ncores (-1) in
  Array.iteri
    (fun cl members ->
      Array.iter
        (fun core ->
          if core < 0 || core >= ncores || cluster_of.(core) >= 0 then
            invalid_arg "Cache.create: clusters must partition the cores";
          cluster_of.(core) <- cl)
        members)
    clusters;
  if Array.exists (fun c -> c < 0) cluster_of then
    invalid_arg "Cache.create: clusters must partition the cores";
  let prng =
    match prng with Some p -> p | None -> Prng.create (Prng.derive 0x5a71 0)
  in
  let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1) in
  {
    cfg;
    kind = cfg.policy;
    shift = log2 cfg.l1.line;
    clusters;
    cluster_of;
    l1s = Array.init ncores (fun _ -> make_level cfg.policy cfg.l1 ~l2:false);
    l2s =
      Array.init (Array.length clusters) (fun _ ->
          make_level cfg.policy cfg.l2 ~l2:true);
    prng;
    tick = 0;
    l1_hits = 0;
    l1_misses = 0;
    l1_evictions = 0;
    l2_hits = 0;
    l2_misses = 0;
    l2_evictions = 0;
    autolock_skips = 0;
    back_invals = 0;
    replays = 0;
    p_l1_hits = 0;
    p_l1_misses = 0;
    p_l2_hits = 0;
    p_l2_misses = 0;
    p_l2_evictions = 0;
    p_autolock_skips = 0;
    p_back_invals = 0;
  }

let config t = t.cfg
let ncores t = Array.length t.l1s
let cluster_of_core t ~core = t.cluster_of.(core)
let line_size t = t.cfg.l1.line
let l2_sets t = t.cfg.l2.sets
let l2_ways t = t.cfg.l2.ways
let l2_set_of_addr t ~addr = (addr lsr t.shift) land (t.cfg.l2.sets - 1)

let eviction_set t ~l2_set ~base =
  let { sets; ways; line } = t.cfg.l2 in
  if l2_set < 0 || l2_set >= sets then invalid_arg "Cache.eviction_set: bad set";
  let first =
    let l0 = (base / (line * sets) * sets) + l2_set in
    if l0 * line >= base then l0 else l0 + sets
  in
  Array.init ways (fun k -> (first + (k * sets)) * line)

(* ---- per-level helpers ---- *)

(* The way of [set] holding [tag], or -1: one pass over the set's tag row
   that stops at the first match. *)
let[@inline] find lvl ~set tag =
  let tags = lvl.tags and base = set * lvl.ways in
  let stop = base + lvl.ways in
  let i = ref base in
  while !i < stop && Array.unsafe_get tags !i <> tag do
    incr i
  done;
  if !i < stop then !i - base else -1

(* A reference to [way] of [set]: the tick advances and the policy's word
   for the set takes the touch (one word write under every policy). *)
let[@inline] touch_way t lvl ~set ~way =
  let tick = t.tick + 1 in
  t.tick <- tick;
  let pol = lvl.pol in
  match t.kind with
  | Policy.Lru -> Array.unsafe_set pol ((set * lvl.ways) + way) tick
  | Policy.Tree_plru | Policy.Rand ->
      let p = lvl.touch_tbl in
      Array.unsafe_set pol set
        (Array.unsafe_get pol set
         land Array.unsafe_get p (2 * way)
         lor Array.unsafe_get p ((2 * way) + 1))

(* The way to evict from the full [set], skipping ways whose bit is set in
   [locked] (AutoLock pins); -1 when every way is locked. Only Rand draws
   from the cache's PRNG. *)
let victim t lvl ~set ~locked =
  let ways = lvl.ways in
  match t.kind with
  | Policy.Lru -> lru_victim lvl.pol ~off:(set * ways) ~ways ~locked
  | Policy.Tree_plru -> plru_victim lvl.pol ~set ~ways ~locked
  | Policy.Rand -> rand_victim t.prng lvl.pol ~set ~ways ~locked

(* Drop [tag] from [core]'s L1: an L2 back-invalidation, whose L2 line is
   about to be replaced (so the line's pointer dies with it). *)
let l1_invalidate t ~core tag =
  let l1 = t.l1s.(core) in
  let set = tag land l1.mask in
  let way = find l1 ~set tag in
  if way >= 0 then begin
    let i = (set * l1.ways) + way in
    l1.tags.(i) <- -1;
    l1.l2_slot.(i) <- -1;
    l1.free.(set) <- l1.free.(set) lor (1 lsl way);
    l1.epoch <- l1.epoch + 1;
    t.back_invals <- t.back_invals + 1
  end

(* Fill [tag] into [set] of [core]'s L1 [l1], evicting if the set is full,
   and return the way it took. [slot] is the slot of the cluster L2 whose
   inclusion masks are [incl] holding [tag] — the line sets its inclusion
   bit there — or -1 after an AutoLock skip. An evicted line clears its
   own bit through its [l2_slot] (it has none if it was installed under
   the AutoLock non-inclusive fallback). *)
let l1_fill t l1 incl ~core ~set tag ~slot =
  let base = set * l1.ways and free = l1.free.(set) in
  let way =
    if free <> 0 then lowest_way free
    else begin
      let v = victim t l1 ~set ~locked:0 in
      t.l1_evictions <- t.l1_evictions + 1;
      let p = l1.l2_slot.(base + v) in
      if p >= 0 then incl.(p) <- incl.(p) land lnot (1 lsl core);
      v
    end
  in
  l1.tags.(base + way) <- tag;
  l1.l2_slot.(base + way) <- slot;
  l1.free.(set) <- free land lnot (1 lsl way);
  l1.epoch <- l1.epoch + 1;
  touch_way t l1 ~set ~way;
  if slot >= 0 then incl.(slot) <- incl.(slot) lor (1 lsl core);
  way

(* Fill [tag] into [set] of the cluster L2 [l2] on behalf of [core] and
   return the slot it took. Under AutoLock a way is pinned iff its
   inclusion mask names any core other than the requester — a core may
   always re-evict its own lines. Returns -1 when every way is pinned (no
   allocation happened). *)
let l2_fill t l2 ~core ~set tag =
  let ways = l2.ways in
  let base = set * ways and free = l2.free.(set) in
  let way =
    if free <> 0 then lowest_way free
    else begin
      let locked =
        if not t.cfg.autolock then 0
        else begin
          let m = ref 0 and others = lnot (1 lsl core) in
          for w = 0 to ways - 1 do
            if l2.incl.(base + w) land others <> 0 then m := !m lor (1 lsl w)
          done;
          !m
        end
      in
      let v = victim t l2 ~set ~locked in
      if v >= 0 then begin
        let old = l2.tags.(base + v) in
        t.l2_evictions <- t.l2_evictions + 1;
        (* Inclusive back-invalidation: every L1 holding the victim
           drops it. *)
        let mask = ref l2.incl.(base + v) in
        let c = ref 0 in
        while !mask <> 0 do
          if !mask land 1 <> 0 then l1_invalidate t ~core:!c old;
          mask := !mask lsr 1;
          incr c
        done
      end;
      v
    end
  in
  if way < 0 then begin
    t.autolock_skips <- t.autolock_skips + 1;
    -1
  end
  else begin
    l2.tags.(base + way) <- tag;
    l2.incl.(base + way) <- 0;
    l2.free.(set) <- free land lnot (1 lsl way);
    touch_way t l2 ~set ~way;
    base + way
  end

(* A negative address would index the tag arrays at a negative set. *)
let check_addr fn addr =
  if addr < 0 then
    invalid_arg (Printf.sprintf "Cache.%s: negative address %d" fn addr)

(* Access line [tag] from [core], filling on the way. Returns
   [(way lsl 2) lor level]: the serving level (0 L1, 1 L2, 2 memory) and
   the L1 way that holds the line afterwards. Each level's set is scanned
   once; the L2 slot found or filled goes straight to [l1_fill]. *)
let access t ~core tag =
  let l1 = t.l1s.(core) in
  let set = tag land l1.mask in
  let way = find l1 ~set tag in
  if way >= 0 then begin
    t.l1_hits <- t.l1_hits + 1;
    touch_way t l1 ~set ~way;
    way lsl 2
  end
  else begin
    t.l1_misses <- t.l1_misses + 1;
    let l2 = t.l2s.(t.cluster_of.(core)) in
    let set2 = tag land l2.mask in
    let way2 = find l2 ~set:set2 tag in
    if way2 >= 0 then begin
      t.l2_hits <- t.l2_hits + 1;
      touch_way t l2 ~set:set2 ~way:way2;
      let slot = (set2 * l2.ways) + way2 in
      (l1_fill t l1 l2.incl ~core ~set tag ~slot lsl 2) lor 1
    end
    else begin
      t.l2_misses <- t.l2_misses + 1;
      let slot = l2_fill t l2 ~core ~set:set2 tag in
      (l1_fill t l1 l2.incl ~core ~set tag ~slot lsl 2) lor 2
    end
  end

let touch t ~core ~addr =
  check_addr "touch" addr;
  access t ~core (addr lsr t.shift) land 3

let sweep t ~core addrs tally =
  if Array.length tally < 3 then invalid_arg "Cache.sweep: tally needs 3 slots";
  for i = 0 to Array.length addrs - 1 do
    let addr = addrs.(i) in
    check_addr "sweep" addr;
    let level = access t ~core (addr lsr t.shift) land 3 in
    Array.unsafe_set tally level (Array.unsafe_get tally level + 1)
  done

let peek t ~core ~addr =
  check_addr "peek" addr;
  let tag = addr lsr t.shift in
  let l1 = t.l1s.(core) and l2 = t.l2s.(t.cluster_of.(core)) in
  if find l1 ~set:(tag land l1.mask) tag >= 0 then 0
  else if find l2 ~set:(tag land l2.mask) tag >= 0 then 1
  else 2

let publish t =
  if Obs.active () then begin
    let flush key cur prev =
      let d = cur - prev in
      if d > 0 then Obs.incr ~by:d key;
      cur
    in
    t.p_l1_hits <- flush Metric.l1_hits t.l1_hits t.p_l1_hits;
    t.p_l1_misses <- flush Metric.l1_misses t.l1_misses t.p_l1_misses;
    t.p_l2_hits <- flush Metric.l2_hits t.l2_hits t.p_l2_hits;
    t.p_l2_misses <- flush Metric.l2_misses t.l2_misses t.p_l2_misses;
    t.p_l2_evictions <- flush Metric.l2_evictions t.l2_evictions t.p_l2_evictions;
    t.p_autolock_skips <-
      flush Metric.autolock_skips t.autolock_skips t.p_autolock_skips;
    t.p_back_invals <-
      flush Metric.back_invalidations t.back_invals t.p_back_invals
  end

let touch_range t ~core ~addr ~len =
  check_addr "touch_range" addr;
  if len > 0 then begin
    for tag = addr lsr t.shift to (addr + len - 1) lsr t.shift do
      ignore (access t ~core tag)
    done;
    publish t
  end

(* ---- footprints ---- *)

let footprint ~addr ~len =
  check_addr "footprint" addr;
  {
    f_addr = addr;
    f_len = len;
    f_l1 = None;
    f_epoch = 0;
    f_lines = 0;
    f_ways = [||];
    f_entries = 0;
    f_idx = [||];
    f_keep = [||];
    f_set = [||];
  }

(* After a walk that left line [first + k] at L1 way [fp.f_ways.(k)],
   record [fp]'s replay summary against [core]'s L1 — provided every line
   is still at that way (a later line of the walk may have evicted an
   earlier one, directly or through an L2 back-invalidation). The summary
   is what [fp.f_lines] consecutive hits at those ways do to the policy
   state, whatever it holds: Lru stamps line k with the replay's starting
   tick + k + 1; the one-word policies compose every touch to an L1 set
   into one keep/set pair (line k lands on entry k mod [sets]). *)
let record t fp ~core ~first =
  let l1 = t.l1s.(core) in
  let { sets; ways; _ } = l1.geo and mask = l1.mask and tbl = l1.touch_tbl in
  let n = fp.f_lines in
  let resident = ref true in
  for k = 0 to n - 1 do
    let tag = first + k in
    if l1.tags.((tag land mask * ways) + fp.f_ways.(k)) <> tag then
      resident := false
  done;
  if not !resident then fp.f_l1 <- None
  else begin
    (match t.kind with
    | Policy.Lru ->
        fp.f_entries <- n;
        for k = 0 to n - 1 do
          fp.f_idx.(k) <- ((first + k) land mask * l1.pol_words) + fp.f_ways.(k);
          fp.f_keep.(k) <- 0;
          fp.f_set.(k) <- k + 1
        done
    | Policy.Tree_plru | Policy.Rand ->
        let m = min n sets in
        fp.f_entries <- m;
        for j = 0 to m - 1 do
          fp.f_idx.(j) <- (first + j) land mask * l1.pol_words;
          fp.f_keep.(j) <- -1;
          fp.f_set.(j) <- 0
        done;
        for k = 0 to n - 1 do
          let j = k mod m and way = fp.f_ways.(k) in
          let keep = tbl.(2 * way) in
          fp.f_keep.(j) <- fp.f_keep.(j) land keep;
          fp.f_set.(j) <- fp.f_set.(j) land keep lor tbl.((2 * way) + 1)
        done);
    fp.f_l1 <- Some l1;
    fp.f_epoch <- l1.epoch
  end

let touch_footprint t fp ~core =
  let l1 = t.l1s.(core) in
  match fp.f_l1 with
  | Some rec_l1 when rec_l1 == l1 && fp.f_epoch = l1.epoch ->
      (* No tag of this L1 changed since the record: every line is a hit
         at its recorded way, so only the policy words, [tick] and the hit
         count move — exactly as [touch_range] would move them. *)
      let pol = l1.pol in
      let base = match t.kind with Policy.Lru -> t.tick | _ -> 0 in
      for i = 0 to fp.f_entries - 1 do
        let w = fp.f_idx.(i) in
        pol.(w) <- (pol.(w) land fp.f_keep.(i) lor fp.f_set.(i)) + base
      done;
      t.tick <- t.tick + fp.f_lines;
      t.l1_hits <- t.l1_hits + fp.f_lines;
      t.replays <- t.replays + 1;
      publish t
  | Some _ | None ->
      if fp.f_len > 0 then begin
        let first = fp.f_addr lsr t.shift in
        let n = ((fp.f_addr + fp.f_len - 1) lsr t.shift) - first + 1 in
        if Array.length fp.f_ways <> n then begin
          fp.f_ways <- Array.make n 0;
          fp.f_idx <- Array.make n 0;
          fp.f_keep <- Array.make n 0;
          fp.f_set <- Array.make n 0
        end;
        fp.f_lines <- n;
        for k = 0 to n - 1 do
          fp.f_ways.(k) <- access t ~core (first + k) lsr 2
        done;
        publish t;
        record t fp ~core ~first
      end

let footprint_replays t = t.replays

let state_digest t =
  let b = Buffer.create 65536 in
  let add = Array.iter (fun x -> Buffer.add_int64_le b (Int64.of_int x)) in
  let level lvl =
    add lvl.tags;
    add lvl.pol;
    add lvl.incl
  in
  Array.iter level t.l1s;
  Array.iter level t.l2s;
  Buffer.add_int64_le b (Int64.of_int t.tick);
  Digest.to_hex (Digest.string (Buffer.contents b))

let invariant_violations t =
  let out = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let check_free name lvl =
    let { sets; ways; _ } = lvl.geo in
    for set = 0 to sets - 1 do
      let invalid = ref 0 in
      for w = 0 to ways - 1 do
        if lvl.tags.((set * ways) + w) < 0 then
          invalid := !invalid lor (1 lsl w)
      done;
      if lvl.free.(set) <> !invalid then
        fail "%s set %d: free word %#x, invalid ways %#x" name set
          lvl.free.(set) !invalid
    done
  in
  Array.iteri (fun c -> check_free (Printf.sprintf "core %d L1" c)) t.l1s;
  Array.iteri (fun c -> check_free (Printf.sprintf "cluster %d L2" c)) t.l2s;
  (* Each L1 pointer names an L2 slot holding the line with the core's bit. *)
  Array.iteri
    (fun core l1 ->
      let l2 = t.l2s.(t.cluster_of.(core)) in
      Array.iteri
        (fun i slot ->
          let tag = l1.tags.(i) in
          if slot >= 0 then begin
            if
              tag < 0
              || slot >= Array.length l2.tags
              || l2.tags.(slot) <> tag
              || l2.incl.(slot) land (1 lsl core) = 0
            then
              fail "core %d L1 line %d (tag %d): L2 slot %d lacks it or its bit"
                core i tag slot
          end
          else if slot <> -1 then
            fail "core %d L1 line %d: bad L2 slot %d" core i slot)
        l1.l2_slot)
    t.l1s;
  (* Each inclusion bit is backed by an L1 line of that core pointing back. *)
  let ncores = Array.length t.l1s in
  Array.iteri
    (fun cl l2 ->
      Array.iteri
        (fun slot bits ->
          let tag = l2.tags.(slot) in
          if bits lsr ncores <> 0 then
            fail "cluster %d L2 slot %d: bits %#x name no core" cl slot bits;
          for core = 0 to ncores - 1 do
            if bits land (1 lsl core) <> 0 then begin
              let l1 = t.l1s.(core) in
              let set = tag land l1.mask in
              let way = if tag < 0 then -1 else find l1 ~set tag in
              if
                t.cluster_of.(core) <> cl
                || way < 0
                || l1.l2_slot.((set * l1.ways) + way) <> slot
              then
                fail "cluster %d L2 slot %d (tag %d): core %d bit unbacked" cl
                  slot tag core
            end
          done)
        l2.incl)
    t.l2s;
  List.rev !out

let l1_stats t =
  { hits = t.l1_hits; misses = t.l1_misses; evictions = t.l1_evictions }

let l2_stats t =
  { hits = t.l2_hits; misses = t.l2_misses; evictions = t.l2_evictions }

let autolock_skips t = t.autolock_skips
let back_invalidations t = t.back_invals
