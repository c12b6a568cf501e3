(* Scan-based reference model of [Satin_cache.Cache]: the same hierarchy
   with no structure derived from the tags. Sets are found with [mod],
   every lookup scans the set's tags, a fill scans for an invalid way, the
   new line's inclusion bit is set by searching the L2, and an evicted L1
   line's bit is found by searching the L2 too. The differential property
   in test_cache.ml drives it and [Cache] with the same streams and
   compares levels, counters and state digests. A footprint touch here is
   the plain [touch_range] walk, and an eviction-set sweep is one [touch]
   per member. Each replacement policy's touch and victim are its own
   frozen scan-based copies (LRU's stamp scan, Tree-PLRU's midpoint walk,
   Rand's count-draw-scan), not [Cache]'s.

   It also counts the miss paths a stream reached ([coverage]), so a test
   can show the streams exercise every one of them. *)

module Prng = Satin_engine.Prng
module Policy = Satin_cache.Policy
module Cache = Satin_cache.Cache

type level = {
  geo : Cache.geometry;
  tags : int array;
  pol : int array;
  pol_words : int;
  incl : int array; (* length 0 for L1 *)
}

type coverage = {
  mutable cold_fills : int; (* a fill took an invalid way *)
  mutable victims_inclusive : int; (* L1 victim with an inclusion bit *)
  mutable victims_non_inclusive : int; (* L1 victim without one *)
  mutable own_set_back_invals : int;
      (* an L2 fill back-invalidated a line in the requester's own L1 set *)
  mutable peer_refills : int;
      (* a line skipped by one core's fill was filled into the L2 by another *)
}

type t = {
  cfg : Cache.config;
  cluster_of : int array;
  l1s : level array;
  l2s : level array;
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
  skipped : (int, int) Hashtbl.t; (* tag -> core whose fill skipped the L2 *)
  cov : coverage;
}

let make_level policy (g : Cache.geometry) ~l2 =
  let pol_words = Policy.state_words policy ~ways:g.ways in
  let pol = Array.make (g.sets * pol_words) 0 in
  for s = 0 to g.sets - 1 do
    Policy.init policy ~state:pol ~off:(s * pol_words) ~ways:g.ways
  done;
  {
    geo = g;
    tags = Array.make (g.sets * g.ways) (-1);
    pol;
    pol_words;
    incl = (if l2 then Array.make (g.sets * g.ways) 0 else [||]);
  }

let create ~prng ~clusters (cfg : Cache.config) =
  let ncores = Array.fold_left (fun a m -> a + Array.length m) 0 clusters in
  let cluster_of = Array.make ncores 0 in
  Array.iteri
    (fun cl -> Array.iter (fun core -> cluster_of.(core) <- cl))
    clusters;
  {
    cfg;
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
    skipped = Hashtbl.create 16;
    cov =
      {
        cold_fills = 0;
        victims_inclusive = 0;
        victims_non_inclusive = 0;
        own_set_back_invals = 0;
        peer_refills = 0;
      };
  }

let set_of lvl tag = tag mod lvl.geo.sets

let find lvl tag =
  let base = set_of lvl tag * lvl.geo.ways in
  let found = ref (-1) and w = ref 0 in
  while !found < 0 && !w < lvl.geo.ways do
    if lvl.tags.(base + !w) = tag then found := !w;
    incr w
  done;
  !found

let invalid_way lvl ~set =
  let base = set * lvl.geo.ways in
  let found = ref (-1) and w = ref 0 in
  while !found < 0 && !w < lvl.geo.ways do
    if lvl.tags.(base + !w) < 0 then found := !w;
    incr w
  done;
  !found

(* ---- replacement, frozen: the scan-based touch and victim of each
   policy, independent of [Cache]'s, so the differential property sees any
   change to the cache's victim selection ---- *)

(* Tree-PLRU's per-way root paths, by [lo]/[hi] midpoints: [keep] clears
   the path's bits, [set] points each one away from the way. *)
let plru_path ~ways ~way =
  let keep = ref (-1) and set = ref 0 in
  let node = ref 1 and lo = ref 0 and hi = ref ways in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    let b = 1 lsl (!node - 1) in
    keep := !keep land lnot b;
    if way < mid then begin
      set := !set lor b;
      hi := mid;
      node := 2 * !node
    end
    else begin
      lo := mid;
      node := (2 * !node) + 1
    end
  done;
  (!keep, !set)

let policy_touch kind ~state ~off ~ways ~way ~tick =
  match kind with
  | Policy.Lru -> state.(off + way) <- tick
  | Policy.Tree_plru ->
      let keep, set = plru_path ~ways ~way in
      state.(off) <- state.(off) land keep lor set
  | Policy.Rand -> state.(off) <- way

let plru_walk state off ways =
  let bits = state.(off) in
  let node = ref 1 and lo = ref 0 and hi = ref ways in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if bits land (1 lsl (!node - 1)) = 0 then begin
      hi := mid;
      node := 2 * !node
    end
    else begin
      lo := mid;
      node := (2 * !node) + 1
    end
  done;
  !lo

let policy_victim kind ~state ~off ~ways ~locked ~prng =
  match kind with
  | Policy.Lru ->
      let best = ref (-1) and best_stamp = ref max_int in
      for w = 0 to ways - 1 do
        if locked land (1 lsl w) = 0 && state.(off + w) < !best_stamp then begin
          best := w;
          best_stamp := state.(off + w)
        end
      done;
      !best
  | Policy.Tree_plru ->
      let v = plru_walk state off ways in
      if locked land (1 lsl v) = 0 then v
      else begin
        let found = ref (-1) and w = ref 1 in
        while !found < 0 && !w < ways do
          let c = (v + !w) mod ways in
          if locked land (1 lsl c) = 0 then found := c;
          incr w
        done;
        !found
      end
  | Policy.Rand ->
      let mru = state.(off) in
      let eligible w = locked land (1 lsl w) = 0 && w <> mru in
      let n = ref 0 in
      for w = 0 to ways - 1 do
        if eligible w then incr n
      done;
      if !n = 0 then
        if mru >= 0 && locked land (1 lsl mru) = 0 then mru else -1
      else begin
        let pick = Prng.int prng !n in
        let seen = ref 0 and chosen = ref (-1) in
        for w = 0 to ways - 1 do
          if eligible w then begin
            if !seen = pick then chosen := w;
            incr seen
          end
        done;
        !chosen
      end

let touch_way t lvl ~set ~way =
  t.tick <- t.tick + 1;
  policy_touch t.cfg.policy ~state:lvl.pol ~off:(set * lvl.pol_words)
    ~ways:lvl.geo.ways ~way ~tick:t.tick

let l1_invalidate t ~core tag =
  let l1 = t.l1s.(core) in
  let way = find l1 tag in
  if way >= 0 then begin
    l1.tags.((set_of l1 tag * l1.geo.ways) + way) <- -1;
    t.back_invals <- t.back_invals + 1
  end

let incl_clear t l2 ~core tag =
  let way = find l2 tag in
  let i = (set_of l2 tag * l2.geo.ways) + way in
  if way >= 0 && l2.incl.(i) land (1 lsl core) <> 0 then
    t.cov.victims_inclusive <- t.cov.victims_inclusive + 1
  else t.cov.victims_non_inclusive <- t.cov.victims_non_inclusive + 1;
  if way >= 0 then l2.incl.(i) <- l2.incl.(i) land lnot (1 lsl core)

let l1_fill t ~core tag =
  let l1 = t.l1s.(core) and l2 = t.l2s.(t.cluster_of.(core)) in
  let set = set_of l1 tag in
  let base = set * l1.geo.ways in
  let way =
    match invalid_way l1 ~set with
    | -1 ->
        let v =
          policy_victim t.cfg.policy ~state:l1.pol ~off:(set * l1.pol_words)
            ~ways:l1.geo.ways ~locked:0 ~prng:t.prng
        in
        let old = l1.tags.(base + v) in
        if old >= 0 then begin
          t.l1_evictions <- t.l1_evictions + 1;
          incl_clear t l2 ~core old
        end;
        v
    | w ->
        t.cov.cold_fills <- t.cov.cold_fills + 1;
        w
  in
  l1.tags.(base + way) <- tag;
  touch_way t l1 ~set ~way;
  let l2way = find l2 tag in
  if l2way >= 0 then begin
    let i = (set_of l2 tag * l2.geo.ways) + l2way in
    l2.incl.(i) <- l2.incl.(i) lor (1 lsl core)
  end

let l2_fill t ~core tag =
  let l2 = t.l2s.(t.cluster_of.(core)) in
  let set = set_of l2 tag in
  let base = set * l2.geo.ways in
  let way =
    match invalid_way l2 ~set with
    | -1 ->
        let locked = ref 0 in
        if t.cfg.autolock then
          for w = 0 to l2.geo.ways - 1 do
            if l2.incl.(base + w) land lnot (1 lsl core) <> 0 then
              locked := !locked lor (1 lsl w)
          done;
        let v =
          policy_victim t.cfg.policy ~state:l2.pol ~off:(set * l2.pol_words)
            ~ways:l2.geo.ways ~locked:!locked ~prng:t.prng
        in
        if v >= 0 then begin
          let old = l2.tags.(base + v) in
          t.l2_evictions <- t.l2_evictions + 1;
          let mask = ref l2.incl.(base + v) in
          let c = ref 0 in
          while !mask <> 0 do
            if !mask land 1 <> 0 then begin
              if !c = core && set_of t.l1s.(core) old = set_of t.l1s.(core) tag
              then t.cov.own_set_back_invals <- t.cov.own_set_back_invals + 1;
              l1_invalidate t ~core:!c old
            end;
            mask := !mask lsr 1;
            incr c
          done
        end;
        v
    | w ->
        t.cov.cold_fills <- t.cov.cold_fills + 1;
        w
  in
  if way < 0 then begin
    t.autolock_skips <- t.autolock_skips + 1;
    Hashtbl.replace t.skipped tag core
  end
  else begin
    (match Hashtbl.find_opt t.skipped tag with
    | Some c when c <> core && t.cluster_of.(c) = t.cluster_of.(core) ->
        t.cov.peer_refills <- t.cov.peer_refills + 1
    | Some _ | None -> ());
    Hashtbl.remove t.skipped tag;
    l2.tags.(base + way) <- tag;
    l2.incl.(base + way) <- 0;
    touch_way t l2 ~set ~way
  end

let access t ~core tag =
  let l1 = t.l1s.(core) in
  let way = find l1 tag in
  if way >= 0 then begin
    t.l1_hits <- t.l1_hits + 1;
    touch_way t l1 ~set:(set_of l1 tag) ~way;
    0
  end
  else begin
    t.l1_misses <- t.l1_misses + 1;
    let l2 = t.l2s.(t.cluster_of.(core)) in
    let l2way = find l2 tag in
    let level =
      if l2way >= 0 then begin
        t.l2_hits <- t.l2_hits + 1;
        touch_way t l2 ~set:(set_of l2 tag) ~way:l2way;
        1
      end
      else begin
        t.l2_misses <- t.l2_misses + 1;
        l2_fill t ~core tag;
        2
      end
    in
    l1_fill t ~core tag;
    level
  end

let touch t ~core ~addr = access t ~core (addr / t.cfg.l1.line)

let touch_range t ~core ~addr ~len =
  let line = t.cfg.l1.line in
  if len > 0 then
    for tag = addr / line to (addr + len - 1) / line do
      ignore (access t ~core tag)
    done

let l1_stats t =
  { Cache.hits = t.l1_hits; misses = t.l1_misses; evictions = t.l1_evictions }

let l2_stats t =
  { Cache.hits = t.l2_hits; misses = t.l2_misses; evictions = t.l2_evictions }

let autolock_skips t = t.autolock_skips
let back_invalidations t = t.back_invals
let coverage t = t.cov

(* The same bytes, in the same order, as [Cache.state_digest]. *)
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
