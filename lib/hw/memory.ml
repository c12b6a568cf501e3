type security = Secure_region | Non_secure_region

type region = {
  name : string;
  base : int;
  size : int;
  security : security;
}

type watcher = { mutable active : bool; notify : addr:int -> len:int -> unit }

type guard = {
  guard_name : string;
  g_base : int;
  g_len : int;
  decide : addr:int -> len:int -> [ `Allow | `Deny ];
  mutable g_active : bool;
}

exception Write_trapped of { addr : int; guard_name : string }

(* A loaded image: [src] was copied to [img_addr] by the write stamped
   [img_gen]. *)
type image = { img_addr : int; img_src : string; img_gen : int }

type t = {
  mutable data : Bytes.t; (* empty once released *)
  mutable gens : int array; (* per-page stamp: write_gen of the last write touching it *)
  mutable write_gen : int;
  mutable region_list : region list; (* sorted by base *)
  mutable watchers : watcher list;
  mutable guards : guard list;
  mutable images : image list;
}

exception Access_violation of { world : World.t; addr : int; region : string }

exception Bad_address of int

exception Released

(* Generation granularity. 4 KiB matches the architectural page size the
   paper's areas are laid out on, and is the block size the incremental
   checker caches digests at — one int stamp per page keeps the metadata at
   0.02% of memory while a single-byte write still invalidates exactly one
   cached block. *)
let gen_page_bits = 12
let gen_page_size = 1 lsl gen_page_bits

(* A live memory always has bytes ([create] rejects size 0), so an empty
   backing store marks a released one. *)
let check_live t = if Bytes.length t.data = 0 then raise Released

(* Idle backing stores, newest first, shared by every domain: a runner
   spawns fresh worker domains for each batch, so a store one batch's
   worker released is taken by the next batch's. Each is all zero bytes
   and zero stamps: exactly what a fresh [create] of its size would
   allocate. Taking one instead skips the page faults of mapping 32 MiB
   anew. At most one store per domain the host runs at once stays idle;
   the oldest beyond that is dropped. *)
let pool_cap = Domain.recommended_domain_count ()
let pool : (Bytes.t * int array) list ref = ref []
let pool_mutex = Mutex.create ()

let take_idle size =
  Mutex.protect pool_mutex (fun () ->
      let rec take older = function
        | [] -> None
        | ((data, _) as store) :: rest when Bytes.length data = size ->
            pool := List.rev_append older rest;
            Some store
        | store :: rest -> take (store :: older) rest
      in
      take [] !pool)

let put_idle store =
  Mutex.protect pool_mutex (fun () ->
      pool := List.filteri (fun i _ -> i < pool_cap) (store :: !pool))

let create ~size =
  if size <= 0 then invalid_arg "Memory.create: size must be positive";
  let data, gens =
    match take_idle size with
    | Some store -> store
    | None ->
        ( Bytes.make size '\000',
          Array.make (((size - 1) lsr gen_page_bits) + 1) 0 )
  in
  {
    data;
    gens;
    write_gen = 0;
    region_list = [];
    watchers = [];
    guards = [];
    images = [];
  }

(* Every byte that differs from zero was written by an entry point that
   stamped its page, so zeroing the stamped pages restores a fresh store.
   One fill per maximal run of stamped pages: per page, the fills of a
   released scenario took twice as long. The store then becomes the
   newest idle one, and [t] keeps an empty store, on which every entry
   point raises. *)
let release t =
  check_live t;
  let data = t.data and gens = t.gens in
  let pages = Array.length gens in
  let p = ref 0 in
  while !p < pages do
    if gens.(!p) = 0 then incr p
    else begin
      let first = !p in
      while !p < pages && gens.(!p) <> 0 do
        gens.(!p) <- 0;
        incr p
      done;
      let lo = first lsl gen_page_bits in
      let hi = min (!p lsl gen_page_bits) (Bytes.length data) in
      Bytes.fill data lo (hi - lo) '\000'
    end
  done;
  put_idle (data, gens);
  t.data <- Bytes.empty;
  t.gens <- [||]

let size t =
  check_live t;
  Bytes.length t.data

let overlaps a b =
  a.base < b.base + b.size && b.base < a.base + a.size

let add_region t ~name ~base ~size ~security =
  check_live t;
  if base < 0 || size <= 0 || base + size > Bytes.length t.data then
    invalid_arg (Printf.sprintf "Memory.add_region %s: out of address space" name);
  let r = { name; base; size; security } in
  List.iter
    (fun existing ->
      if overlaps existing r then
        invalid_arg
          (Printf.sprintf "Memory.add_region %s: overlaps region %s" name
             existing.name))
    t.region_list;
  t.region_list <-
    List.sort (fun a b -> compare a.base b.base) (r :: t.region_list);
  r

let region_of_addr t addr =
  check_live t;
  List.find_opt (fun r -> addr >= r.base && addr < r.base + r.size) t.region_list

let regions t =
  check_live t;
  t.region_list

(* Closure-free region walk: [write_byte] sits on workload inner loops and
   must not allocate, so no [find_opt]/[Some] on the hit path. Regions never
   overlap, so the first containing region decides. *)
let rec check_normal_access rs ~world ~addr =
  match rs with
  | [] -> ()
  | r :: rest ->
      if addr >= r.base && addr < r.base + r.size then begin
        if r.security = Secure_region then
          raise (Access_violation { world; addr; region = r.name })
      end
      else check_normal_access rest ~world ~addr

let check_access t ~world ~addr =
  check_live t;
  if addr < 0 || addr >= Bytes.length t.data then raise (Bad_address addr);
  match world with
  | World.Secure -> ()
  | World.Normal -> check_normal_access t.region_list ~world ~addr

(* Range checks validate only the end regions plus any secure region inside;
   for the access patterns here (ranges either fully secure or fully
   non-secure) checking every byte's region would be wasted work, but a range
   straddling into a secure region must still trap, so we scan region
   boundaries, not bytes. *)
let rec check_normal_range rs ~world ~addr ~len =
  match rs with
  | [] -> ()
  | r :: rest ->
      if r.security = Secure_region && r.base < addr + len
         && addr < r.base + r.size
      then raise (Access_violation { world; addr; region = r.name })
      else check_normal_range rest ~world ~addr ~len

let check_range t ~world ~addr ~len =
  check_live t;
  if len < 0 then invalid_arg "Memory: negative length";
  if addr < 0 || addr + len > Bytes.length t.data then raise (Bad_address addr);
  match world with
  | World.Secure -> ()
  | World.Normal -> check_normal_range t.region_list ~world ~addr ~len

let read_byte t ~world ~addr =
  check_access t ~world ~addr;
  Char.code (Bytes.get t.data addr)

let rec notify_watchers ws ~addr ~len =
  match ws with
  | [] -> ()
  | w :: rest ->
      if w.active then w.notify ~addr ~len;
      notify_watchers rest ~addr ~len

(* Every successful write lands here: bump the global write counter, stamp
   the covered pages (one array store for the single-page common case), then
   fan out to watchers. Stamping precedes notification so a watcher that
   reads generations sees the write it is being told about. *)
let notify_write t ~addr ~len =
  if len > 0 then begin
    let g = t.write_gen + 1 in
    t.write_gen <- g;
    let p0 = addr lsr gen_page_bits
    and p1 = (addr + len - 1) lsr gen_page_bits in
    for p = p0 to p1 do
      Array.unsafe_set t.gens p g
    done
  end;
  notify_watchers t.watchers ~addr ~len

let rec check_guard_list gs ~addr ~len =
  match gs with
  | [] -> ()
  | g :: rest ->
      (if g.g_active && g.g_base < addr + len && addr < g.g_base + g.g_len then
         match g.decide ~addr ~len with
         | `Allow -> ()
         | `Deny -> raise (Write_trapped { addr; guard_name = g.guard_name }));
      check_guard_list rest ~addr ~len

(* Normal-world writes are screened by active guards before landing; the
   secure world owns the page tables and is never trapped. *)
let check_guards t ~world ~addr ~len =
  match world with
  | World.Secure -> ()
  | World.Normal -> check_guard_list t.guards ~addr ~len

let write_byte t ~world ~addr v =
  check_access t ~world ~addr;
  check_guards t ~world ~addr ~len:1;
  Bytes.set t.data addr (Char.chr (v land 0xff));
  notify_write t ~addr ~len:1

let read_bytes t ~world ~addr ~len =
  check_range t ~world ~addr ~len;
  Bytes.sub t.data addr len

let write_string t ~world ~addr s =
  check_range t ~world ~addr ~len:(String.length s);
  check_guards t ~world ~addr ~len:(String.length s);
  Bytes.blit_string s 0 t.data addr (String.length s);
  notify_write t ~addr ~len:(String.length s)

let read_int64_le t ~world ~addr =
  check_range t ~world ~addr ~len:8;
  Bytes.get_int64_le t.data addr

let write_int64_le t ~world ~addr v =
  check_range t ~world ~addr ~len:8;
  check_guards t ~world ~addr ~len:8;
  Bytes.set_int64_le t.data addr v;
  notify_write t ~addr ~len:8

let with_range_ro t ~world ~addr ~len ~f =
  check_range t ~world ~addr ~len;
  f t.data addr

(* Unvalidated word loads for loops inside a [with_range_ro] window: the
   range check already ran once for the whole window, so per-load bounds
   checks in a block-compare sweep are pure overhead. *)
external unsafe_get_int64_ne : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external unsafe_string_get_int64_ne : string -> int -> int64
  = "%caml_string_get64u"

let fold_range t ~world ~addr ~len ~init ~f =
  check_range t ~world ~addr ~len;
  let acc = ref init in
  for i = addr to addr + len - 1 do
    acc := f !acc (Char.code (Bytes.unsafe_get t.data i))
  done;
  !acc

let blit_within t ~world ~src ~dst ~len =
  check_range t ~world ~addr:src ~len;
  check_range t ~world ~addr:dst ~len;
  check_guards t ~world ~addr:dst ~len;
  Bytes.blit t.data src t.data dst len;
  notify_write t ~addr:dst ~len

let add_write_guard t ~name ~base ~len ~decide =
  check_live t;
  if len <= 0 then invalid_arg "Memory.add_write_guard: empty range";
  let g =
    { guard_name = name; g_base = base; g_len = len; decide; g_active = true }
  in
  t.guards <- g :: t.guards;
  g

let remove_write_guard t g =
  check_live t;
  t.guards <- List.filter (fun x -> x != g) t.guards
let disable_write_guard g = g.g_active <- false
let guard_active g = g.g_active

let write_generation t =
  check_live t;
  t.write_gen

let generation t ~addr ~len =
  check_live t;
  if len <= 0 then invalid_arg "Memory.generation: empty range";
  if addr < 0 || addr + len > Bytes.length t.data then raise (Bad_address addr);
  let p0 = addr lsr gen_page_bits
  and p1 = (addr + len - 1) lsr gen_page_bits in
  let g = ref (Array.unsafe_get t.gens p0) in
  for p = p0 + 1 to p1 do
    let gp = Array.unsafe_get t.gens p in
    if gp > !g then g := gp
  done;
  !g

let bump_generation t ~addr ~len =
  check_live t;
  if len <= 0 then invalid_arg "Memory.bump_generation: empty range";
  if addr < 0 || addr + len > Bytes.length t.data then raise (Bad_address addr);
  let g = t.write_gen + 1 in
  t.write_gen <- g;
  let p0 = addr lsr gen_page_bits
  and p1 = (addr + len - 1) lsr gen_page_bits in
  for p = p0 to p1 do
    Array.unsafe_set t.gens p g
  done

let load_image t ~addr src =
  write_string t ~world:World.Secure ~addr src;
  t.images <-
    { img_addr = addr; img_src = src; img_gen = t.write_gen } :: t.images

(* Stamps only grow, and the load stamped every page it covers with
   [img_gen]: a range whose pages still carry no later stamp has not been
   written since, so its bytes are the image's. *)
let image_slice t ~addr ~len =
  check_live t;
  if len <= 0 || addr < 0 || addr + len > Bytes.length t.data then None
  else
    List.find_map
      (fun img ->
        if
          addr >= img.img_addr
          && addr + len <= img.img_addr + String.length img.img_src
          && generation t ~addr ~len <= img.img_gen
        then Some (img.img_src, addr - img.img_addr)
        else None)
      t.images

let add_write_watcher t notify =
  check_live t;
  let w = { active = true; notify } in
  t.watchers <- w :: t.watchers;
  w

let remove_write_watcher t w =
  check_live t;
  w.active <- false;
  t.watchers <- List.filter (fun x -> x != w) t.watchers
