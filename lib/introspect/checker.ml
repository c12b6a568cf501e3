module Engine = Satin_engine.Engine
module Sim_time = Satin_engine.Sim_time
module Prng = Satin_engine.Prng
module Memory = Satin_hw.Memory
module World = Satin_hw.World
module Cpu = Satin_hw.Cpu
module Cycle_model = Satin_hw.Cycle_model
module Cache = Satin_cache.Cache
module Obs = Satin_obs.Obs

module Metric = struct
  let blocks_cached = Obs.key "scan.blocks_cached"
  let blocks_rehashed = Obs.key "scan.blocks_rehashed"
  let rehash_fraction = Obs.key "scan.rehash_fraction"
  let scan_bytes = Obs.key "checker.scan_bytes"
  let scans = Obs.key "checker.scans"
  let tampered_verdicts = Obs.key "checker.tampered_verdicts"
end

(* The golden state of an enrolled range that is a pure function of
   (base, bytes), fixed at enroll and never mutated, so checkers
   enrolling the same image bytes share one (DESIGN §16). Blocks are
   page-aligned (absolute 4 KiB pages, so a block maps to exactly one
   [Memory.generation] stamp; first/last blocks may be partial).
   [g_digest]/[g_pow] hold each block's seed-independent golden digest and
   multiplier power. *)
type gold = {
  g_content : string; (* the range is [g_off, g_off + g_len) of it *)
  g_off : int;
  g_len : int;
  g_hash : int64;
  g_bounds : int array; (* nblocks+1 block-start offsets; last entry = len *)
  g_digest : int64 array;
  g_pow : int64 array;
}

(* A checker's incremental state over a [gold], one slot per block.
   [c_clean_gen.(b)] is the page stamp at the moment block [b] was last
   proven byte-equal to golden; the block is still equal iff the page stamp
   has not advanced past it (the simulator is single-threaded, so the
   stamp-read/compare pair inside one event callback cannot be interleaved
   by a write). [c_live_digest]/[c_digest_gen] cache the seed-independent
   digest of a {e tampered} block's live content, valid while the stamp is
   unchanged. *)
type golden = {
  gold : gold;
  c_clean_gen : int array;
  c_live_digest : int64 array;
  c_digest_gen : int array;
}

let block_bounds ~base ~len =
  let ps = Memory.gen_page_size in
  let p0 = base / ps and plast = (base + len - 1) / ps in
  let n = plast - p0 + 1 in
  let bounds = Array.make (n + 1) len in
  bounds.(0) <- 0;
  for i = 1 to n - 1 do
    bounds.(i) <- (((p0 + i) * ps) - base)
  done;
  bounds

type t = {
  memory : Memory.t;
  cycle : Cycle_model.t;
  prng : Prng.t;
  cache : Cache.t option;
      (* when present, a scan's streaming reads fill the modeled cache
         hierarchy as the front advances — the eviction signal the
         modeled cache probers time (DESIGN §14) *)
  golden : (int * int, golden) Hashtbl.t; (* keyed by (base, len) *)
  mutable scans : int;
  mutable tampered : int;
  mutable blocks_rehashed : int;
  mutable blocks_cached : int;
}

(* Per-scan block accounting, allocated once per [start_scan] so the Obs
   emission at the verdict attributes exactly this scan's work even when
   rounds over different areas overlap in simulated time. *)
type scan_counts = { mutable sc_rehashed : int; mutable sc_cached : int }

let count_rehashed t sc n =
  t.blocks_rehashed <- t.blocks_rehashed + n;
  sc.sc_rehashed <- sc.sc_rehashed + n

let count_cached t sc n =
  t.blocks_cached <- t.blocks_cached + n;
  sc.sc_cached <- sc.sc_cached + n

let create ?cache ~memory ~cycle ~prng () =
  {
    memory;
    cycle;
    prng;
    cache;
    golden = Hashtbl.create 32;
    scans = 0;
    tampered = 0;
    blocks_rehashed = 0;
    blocks_cached = 0;
  }

let make_gold ~base ~content ~off ~len =
  let bounds = block_bounds ~base ~len in
  let n = Array.length bounds - 1 in
  let digest = Array.make n 0L and pow = Array.make n 1L in
  for b = 0 to n - 1 do
    let lo = bounds.(b) and hi = bounds.(b + 1) in
    digest.(b) <- Hash.block_digest_string content ~off:(off + lo) ~len:(hi - lo);
    pow.(b) <- Hash.block_pow ~len:(hi - lo)
  done;
  {
    g_content = content;
    g_off = off;
    g_len = len;
    g_hash = Hash.hash_sub (Bytes.unsafe_of_string content) ~off ~len;
    g_bounds = bounds;
    g_digest = digest;
    g_pow = pow;
  }

(* Golds of image slices, shared by every checker in the process and keyed
   by (base, len). An entry is reused only for the very same source
   string at the same offset, which [Memory.image_slice] guarantees equals
   the live bytes; a different image at the same key replaces it. Copied
   golds never enter, so a range tampered before enroll cannot leak into a
   later checker. Runner domains enroll concurrently, hence the lock. *)
let shared_golds : (int * int, gold) Hashtbl.t = Hashtbl.create 64
let shared_golds_lock = Mutex.create ()

let shared_gold ~base ~src ~off ~len =
  Mutex.protect shared_golds_lock (fun () ->
      match Hashtbl.find_opt shared_golds (base, len) with
      | Some g when g.g_content == src && g.g_off = off -> g
      | _ ->
          let g = make_gold ~base ~content:src ~off ~len in
          Hashtbl.replace shared_golds (base, len) g;
          g)

let enroll t ~base ~len =
  let gold =
    match Memory.image_slice t.memory ~addr:base ~len with
    | Some (src, off) -> shared_gold ~base ~src ~off ~len
    | None ->
        let content =
          Bytes.unsafe_to_string
            (Memory.read_bytes t.memory ~world:World.Secure ~addr:base ~len)
        in
        make_gold ~base ~content ~off:0 ~len
  in
  let n = Array.length gold.g_bounds - 1 in
  Hashtbl.replace t.golden (base, len)
    {
      gold;
      c_clean_gen = Array.make n (-1);
      c_live_digest = Array.make n 0L;
      c_digest_gen = Array.make n (-1);
    };
  gold.g_hash

let enrolled_hash t ~base ~len =
  Option.map (fun g -> g.gold.g_hash) (Hashtbl.find_opt t.golden (base, len))

type verdict = {
  v_base : int;
  v_len : int;
  v_tampered : bool;
  v_offsets : int list;
  v_hash_expected : int64;
  v_hash_observed : int64;
}

(* Fold [f] over the live range's page pieces: the memory's own pages and
   the image bytes its unwritten pages alias, analyzed in place without a
   per-round allocation (the paper's direct-hash style). The pieces split
   at absolute page boundaries, as a gold's blocks do, so piece [b] of an
   enrolled range is its block [b]. *)
let fold_live t ~base ~len ~init ~f =
  Memory.fold_pages t.memory ~world:World.Secure ~addr:base ~len ~init ~f

(* Word-level equality of [data[doff..)] against golden content: eight
   bytes per comparison over the aligned middle, byte tail after. One
   explicit bounds check up front licenses the unchecked word loads in the
   loop ([fold_live] hands us a validated piece, but the offsets are
   computed here, so the hoisted check keeps the unsafe loads honest while
   still paying it once per block instead of twice per word). It always
   compares bytes, also where [data] is the golden string itself. *)
let range_equal data doff golden goff blen =
  if
    blen < 0 || doff < 0 || goff < 0
    || doff + blen > Bytes.length data
    || goff + blen > String.length golden
  then invalid_arg "Checker.range_equal: range outside buffers";
  let i = ref 0 and equal = ref true in
  let stop8 = blen - 7 in
  while !equal && !i < stop8 do
    if
      Int64.equal
        (Memory.unsafe_get_int64_ne data (doff + !i))
        (Memory.unsafe_string_get_int64_ne golden (goff + !i))
    then i := !i + 8
    else equal := false
  done;
  while !equal && !i < blen do
    if Bytes.unsafe_get data (doff + !i) = String.unsafe_get golden (goff + !i)
    then incr i
    else equal := false
  done;
  !equal

(* The maximal dirty ranges (offset, len) of the current content relative
   to golden, built piece by piece: [flush_at r lo] ends any open run at
   range offset [lo], and [diff_bytes] walks a piece that differs byte by
   byte. A run still spans pieces, so the result is a pure function of the
   live content. *)
type runs = { mutable ranges : (int * int) list; mutable run_start : int }

let flush_at r i =
  if r.run_start >= 0 then begin
    r.ranges <- (r.run_start, i - r.run_start) :: r.ranges;
    r.run_start <- -1
  end

let diff_bytes r g ~lo data off n =
  for i = 0 to n - 1 do
    if
      Bytes.unsafe_get data (off + i)
      <> String.unsafe_get g.g_content (g.g_off + lo + i)
    then begin
      if r.run_start < 0 then r.run_start <- lo + i
    end
    else flush_at r (lo + i)
  done

let finish_runs r len =
  flush_at r len;
  List.rev r.ranges

(* Block-compare first so the clean common case costs one word-level sweep
   per 4 KiB instead of a byte loop over megabytes. *)
let dirty_ranges_full t sc golden ~base =
  let g = golden.gold in
  count_rehashed t sc (Array.length g.g_bounds - 1);
  let r = { ranges = []; run_start = -1 } in
  let len =
    fold_live t ~base ~len:g.g_len ~init:0 ~f:(fun lo data off n ->
        if range_equal data off g.g_content (g.g_off + lo) n then flush_at r lo
        else diff_bytes r g ~lo data off n;
        lo + n)
  in
  finish_runs r len

(* Incremental variant: a block whose page stamp has not advanced past its
   [c_clean_gen] is known byte-equal to golden (nothing wrote it since it
   was last proven equal), so it contributes no dirty run and costs one int
   compare instead of a word-level sweep. Stale blocks are compared as
   before, and a compare that proves equality re-stamps the block. The
   maximal dirty ranges produced are a pure function of the live content,
   so the result is identical to [dirty_ranges_full] (runs still span
   block boundaries; flushes happen exactly at clean bytes / clean
   blocks). *)
let dirty_ranges_incr t sc golden ~base =
  let g = golden.gold in
  let r = { ranges = []; run_start = -1 } in
  ignore
    (fold_live t ~base ~len:g.g_len ~init:0 ~f:(fun b data off blen ->
         let lo = g.g_bounds.(b) in
         let stamp = Memory.generation t.memory ~addr:(base + lo) ~len:blen in
         if golden.c_clean_gen.(b) >= stamp then begin
           count_cached t sc 1;
           flush_at r lo
         end
         else begin
           count_rehashed t sc 1;
           if range_equal data off g.g_content (g.g_off + lo) blen then begin
             golden.c_clean_gen.(b) <- stamp;
             flush_at r lo
           end
           else diff_bytes r g ~lo data off blen
         end;
         b + 1));
  finish_runs r g.g_len

let dirty_ranges t sc golden ~base =
  if Incremental.enabled () then dirty_ranges_incr t sc golden ~base
  else dirty_ranges_full t sc golden ~base

(* Observed hash at the verdict instant. Full path: one whole-range compare
   (equal → the enrolled hash, spared the streaming pass) or a full
   [Hash.hash_region]. Incremental path: walk blocks; stamp-clean ones
   contribute their cached golden digest, stale ones are compared
   (re-stamping on equality) and, when tampered, their live digest is
   (re)computed only if the stamp moved since it was last cached. The
   per-block digests recombine to the exact [hash_sub] value (affine
   factorization, see {!Hash.combine_block}). *)
let observed_hash_full t golden ~base =
  let g = golden.gold in
  let equal = ref true in
  ignore
    (fold_live t ~base ~len:g.g_len ~init:0 ~f:(fun lo data off n ->
         if !equal then
           equal := range_equal data off g.g_content (g.g_off + lo) n;
         lo + n));
  if !equal then g.g_hash
  else Hash.hash_region t.memory ~world:World.Secure ~addr:base ~len:g.g_len

let observed_hash_incr t sc golden ~base =
  let g = golden.gold in
  let h = ref Hash.init in
  let any_dirty = ref false in
  ignore
    (fold_live t ~base ~len:g.g_len ~init:0 ~f:(fun b data off blen ->
         let lo = g.g_bounds.(b) in
         let stamp = Memory.generation t.memory ~addr:(base + lo) ~len:blen in
         let clean =
           if golden.c_clean_gen.(b) >= stamp then begin
             count_cached t sc 1;
             true
           end
           else begin
             count_rehashed t sc 1;
             if range_equal data off g.g_content (g.g_off + lo) blen then begin
               golden.c_clean_gen.(b) <- stamp;
               true
             end
             else false
           end
         in
         let digest =
           if clean then g.g_digest.(b)
           else begin
             any_dirty := true;
             if golden.c_digest_gen.(b) <> stamp then begin
               golden.c_live_digest.(b) <-
                 Hash.block_digest data ~off ~len:blen;
               golden.c_digest_gen.(b) <- stamp
             end;
             golden.c_live_digest.(b)
           end
         in
         h := Hash.combine_block !h ~pow:g.g_pow.(b) ~digest;
         b + 1));
  if !any_dirty then !h else g.g_hash

let observed_hash t sc golden ~base =
  if Incremental.enabled () then observed_hash_incr t sc golden ~base
  else begin
    count_rehashed t sc (Array.length golden.gold.g_bounds - 1);
    observed_hash_full t golden ~base
  end

let start_scan t ~engine ~core ~base ~len ~on_verdict =
  let golden =
    match Hashtbl.find_opt t.golden (base, len) with
    | Some g -> g
    | None ->
        invalid_arg
          (Printf.sprintf "Checker.start_scan: range (%#x,%d) not enrolled" base len)
  in
  t.scans <- t.scans + 1;
  if Obs.active () then begin
    Obs.incr Metric.scans;
    Obs.observe Metric.scan_bytes (float_of_int len)
  end;
  let sc = { sc_rehashed = 0; sc_cached = 0 } in
  let rate_s =
    Cycle_model.sample t.prng (t.cycle.Cycle_model.hash_1byte (Cpu.core_type core))
  in
  let duration = Sim_time.of_sec_f (rate_s *. float_of_int len) in
  let t0 = Engine.now engine in
  let pass_time offset =
    Sim_time.add t0 (Sim_time.of_sec_f (rate_s *. float_of_int offset))
  in
  let front_offset () =
    int_of_float (Sim_time.to_sec_f (Sim_time.diff (Engine.now engine) t0) /. rate_s)
  in
  (* The scan's streaming reads, replayed into the modeled cache at the
     pace of the front: one bulk fill per ~16 KiB of progress (256 lines,
     ~160 us of A53 hashing — finer than the probers' 200 us rounds, so a
     mid-scan probe sees the eviction set partially evicted, not an
     instantaneous sweep). Pure cache-state mutation: no PRNG draw, no
     memory access, so pre-cache experiment outputs are untouched. *)
  (match t.cache with
  | Some cache ->
      let core_id = Cpu.id core in
      let chunk = 256 * Cache.line_size cache in
      let rec fill off =
        if off < len then begin
          let n = min chunk (len - off) in
          ignore
            (Engine.at engine ~time:(pass_time off) (fun () ->
                 Cache.touch_range cache ~core:core_id ~addr:(base + off) ~len:n));
          fill (off + chunk)
        end
      in
      fill 0
  | None -> ());
  let caught : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  (* Check a suspicious range when the scan front passes it: whatever still
     differs from golden there is detected. Long ranges are chunked so the
     detection instant tracks the front at 256-byte granularity (the paper's
     8-byte traces are a single chunk); a pass time already behind "now"
     (the front is mid-byte) is clamped — the front is there right now. *)
  (* Dirty-aware chunk check: if every block covering the chunk is
     stamp-clean at fire time, its bytes are known equal to golden and the
     compare loop would record nothing — skip it. (A chunk is <= 256 bytes,
     so this tests at most two stamps.) *)
  let g = golden.gold in
  let chunk_clean offset rlen =
    let ps = Memory.gen_page_size in
    let p0 = base / ps in
    let first = ((base + offset) / ps) - p0 in
    let last = ((base + offset + rlen - 1) / ps) - p0 in
    let clean = ref true in
    for b = first to last do
      let lo = g.g_bounds.(b) and hi = g.g_bounds.(b + 1) in
      let stamp = Memory.generation t.memory ~addr:(base + lo) ~len:(hi - lo) in
      if golden.c_clean_gen.(b) < stamp then clean := false
    done;
    !clean
  in
  let check_chunk (offset, rlen) =
    let time = Sim_time.max (pass_time offset) (Engine.now engine) in
    ignore
      (Engine.at engine ~time (fun () ->
           if not (Incremental.enabled () && chunk_clean offset rlen) then
             (* One range check for the whole chunk instead of a per-byte
                [read_byte] (whose access check walks the region list). *)
             ignore
               (fold_live t ~base:(base + offset) ~len:rlen ~init:offset
                  ~f:(fun o data off n ->
                    for i = 0 to n - 1 do
                      if
                        Bytes.unsafe_get data (off + i)
                        <> String.unsafe_get g.g_content (g.g_off + o + i)
                      then Hashtbl.replace caught (o + i) ()
                    done;
                    o + n))))
  in
  let check_at_pass (offset, rlen) =
    let chunk = 256 in
    let rec go off remaining =
      if remaining > 0 then begin
        let n = min chunk remaining in
        check_chunk (off, n);
        go (off + n) (remaining - n)
      end
    in
    go offset rlen
  in
  List.iter check_at_pass (dirty_ranges t sc golden ~base);
  (* Writes racing the scan: anything landing ahead of the front gets a
     pass-time check; writes behind the front are already missed. *)
  let watcher =
    Memory.add_write_watcher t.memory (fun ~addr ~len:wlen ->
        let lo = max addr base and hi = min (addr + wlen) (base + len) in
        if lo < hi then begin
          let front = front_offset () in
          let lo_off = max (lo - base) front in
          let hi_off = hi - base in
          if lo_off < hi_off then check_at_pass (lo_off, hi_off - lo_off)
        end)
  in
  ignore
    (Engine.schedule engine ~after:duration (fun () ->
         Memory.remove_write_watcher t.memory watcher;
         let offsets = Hashtbl.fold (fun k () acc -> k :: acc) caught [] in
         let offsets = List.sort compare offsets in
         let tampered = offsets <> [] in
         if tampered then begin
           t.tampered <- t.tampered + 1;
           Obs.incr Metric.tampered_verdicts
         end;
         let observed = observed_hash t sc golden ~base in
         if Obs.active () then begin
           Obs.incr Metric.blocks_rehashed ~by:sc.sc_rehashed;
           Obs.incr Metric.blocks_cached ~by:sc.sc_cached;
           let total = sc.sc_rehashed + sc.sc_cached in
           if total > 0 then
             Obs.observe Metric.rehash_fraction
               (float_of_int sc.sc_rehashed /. float_of_int total)
         end;
         on_verdict
           {
             v_base = base;
             v_len = len;
             v_tampered = tampered;
             v_offsets = offsets;
             v_hash_expected = g.g_hash;
             v_hash_observed = observed;
           }));
  duration

let scans_started t = t.scans
let tampered_verdicts t = t.tampered
let blocks_rehashed t = t.blocks_rehashed
let blocks_cached t = t.blocks_cached
