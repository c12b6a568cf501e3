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

(* A loaded image: [src] was loaded at [img_addr] by the write stamped
   [img_gen]. *)
type image = { img_addr : int; img_src : string; img_gen : int }

(* The page table. Page [p] holds the bytes
   [pages.(p)[offs.(p), offs.(p) + page_size)]. A page this memory owns
   ([owned.[p] <> '\000']) is a private [page_size]-byte buffer at offset
   0; any other page aliases bytes nobody writes: the process-wide zero
   page, or a loaded image string. Every array is empty once released. *)
type t = {
  size : int;
  mutable pages : Bytes.t array;
  mutable offs : int array;
  mutable owned : Bytes.t;
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

(* Page granularity. 4 KiB matches the architectural page size the
   paper's areas are laid out on, and is the block size the incremental
   checker caches digests at — one int stamp per page keeps the metadata at
   0.02% of memory while a single-byte write still invalidates exactly one
   cached block. It is also the unit of copy-on-write and of the pieces
   [fold_pages] hands out. *)
let gen_page_bits = 12
let gen_page_size = 1 lsl gen_page_bits
let page_mask = gen_page_size - 1

(* The bytes of every page no write has reached. Shared by every memory
   on every domain, so nothing may ever write it. *)
let zero_page = Bytes.make gen_page_size '\000'

(* A live memory always has pages ([create] rejects size 0), so an empty
   page table marks a released one. *)
let check_live t = if Array.length t.pages = 0 then raise Released

let create ~size =
  if size <= 0 then invalid_arg "Memory.create: size must be positive";
  let npages = ((size - 1) lsr gen_page_bits) + 1 in
  {
    size;
    pages = Array.make npages zero_page;
    offs = Array.make npages 0;
    owned = Bytes.make npages '\000';
    gens = Array.make npages 0;
    write_gen = 0;
    region_list = [];
    watchers = [];
    guards = [];
    images = [];
  }

(* Only the page table goes: private pages become garbage, and every
   entry point raises from now on. *)
let release t =
  check_live t;
  t.pages <- [||];
  t.offs <- [||];
  t.owned <- Bytes.empty;
  t.gens <- [||]

let size t =
  check_live t;
  t.size

let overlaps a b =
  a.base < b.base + b.size && b.base < a.base + a.size

let add_region t ~name ~base ~size ~security =
  check_live t;
  if base < 0 || size <= 0 || base + size > t.size then
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
  if addr < 0 || addr >= t.size then raise (Bad_address addr);
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
  if addr < 0 || addr + len > t.size then raise (Bad_address addr);
  match world with
  | World.Secure -> ()
  | World.Normal -> check_normal_range t.region_list ~world ~addr ~len

(* The one byte at a validated address, wherever its page points. *)
let byte_at t addr =
  let p = addr lsr gen_page_bits in
  Bytes.get t.pages.(p) (t.offs.(p) + (addr land page_mask))

(* Copy-on-write: the first write to a page copies the bytes it aliases
   into a private page; later writes find that page. *)
let copy_page t p =
  let page = Bytes.create gen_page_size in
  Bytes.blit t.pages.(p) t.offs.(p) page 0 gen_page_size;
  t.pages.(p) <- page;
  t.offs.(p) <- 0;
  Bytes.set t.owned p '\001';
  page

let[@inline] own_page t p =
  if Bytes.get t.owned p <> '\000' then t.pages.(p) else copy_page t p

let read_byte t ~world ~addr =
  check_access t ~world ~addr;
  Char.code (byte_at t addr)

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
  Bytes.set
    (own_page t (addr lsr gen_page_bits))
    (addr land page_mask)
    (Char.chr (v land 0xff));
  notify_write t ~addr ~len:1

(* The one page walk: [f acc p o n] over [\[addr, addr + len)] split at
   page boundaries, in address order, where each piece is the [n] bytes
   of page [p] from offset [o] in it. *)
let fold_pieces ~addr ~len ~init ~f =
  let stop = addr + len in
  let rec go acc a =
    if a >= stop then acc
    else
      let o = a land page_mask in
      let n = min (gen_page_size - o) (stop - a) in
      go (f acc (a lsr gen_page_bits) o n) (a + n)
  in
  go init addr

let fold_pages t ~world ~addr ~len ~init ~f =
  check_range t ~world ~addr ~len;
  fold_pieces ~addr ~len ~init ~f:(fun acc p o n ->
      f acc t.pages.(p) (t.offs.(p) + o) n)

let read_bytes t ~world ~addr ~len =
  check_range t ~world ~addr ~len;
  let b = Bytes.create len in
  ignore
    (fold_pieces ~addr ~len ~init:0 ~f:(fun pos p o n ->
         Bytes.blit t.pages.(p) (t.offs.(p) + o) b pos n;
         pos + n));
  b

let write_string t ~world ~addr s =
  let len = String.length s in
  check_range t ~world ~addr ~len;
  check_guards t ~world ~addr ~len;
  ignore
    (fold_pieces ~addr ~len ~init:0 ~f:(fun pos p o n ->
         Bytes.blit_string s pos (own_page t p) o n;
         pos + n));
  notify_write t ~addr ~len

let read_int64_le t ~world ~addr =
  check_range t ~world ~addr ~len:8;
  let p = addr lsr gen_page_bits and o = addr land page_mask in
  if o <= gen_page_size - 8 then Bytes.get_int64_le t.pages.(p) (t.offs.(p) + o)
  else begin
    (* Across two pages: assemble from the high byte down. *)
    let v = ref 0L in
    for i = 7 downto 0 do
      v :=
        Int64.logor (Int64.shift_left !v 8)
          (Int64.of_int (Char.code (byte_at t (addr + i))))
    done;
    !v
  end

let write_int64_le t ~world ~addr v =
  check_range t ~world ~addr ~len:8;
  check_guards t ~world ~addr ~len:8;
  let o = addr land page_mask in
  if o <= gen_page_size - 8 then
    Bytes.set_int64_le (own_page t (addr lsr gen_page_bits)) o v
  else
    (* Across two pages: one byte at a time, low byte first. *)
    for i = 0 to 7 do
      let a = addr + i in
      Bytes.set
        (own_page t (a lsr gen_page_bits))
        (a land page_mask)
        (Char.unsafe_chr
           (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
    done;
  notify_write t ~addr ~len:8

(* Unvalidated word loads for loops inside a [fold_pages] piece: the
   range check already ran once for the whole range, so per-load bounds
   checks in a block-compare sweep are pure overhead. *)
external unsafe_get_int64_ne : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external unsafe_string_get_int64_ne : string -> int -> int64
  = "%caml_string_get64u"

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
  if addr < 0 || addr + len > t.size then raise (Bad_address addr);
  let p0 = addr lsr gen_page_bits
  and p1 = (addr + len - 1) lsr gen_page_bits in
  let g = ref (Array.unsafe_get t.gens p0) in
  for p = p0 + 1 to p1 do
    let gp = Array.unsafe_get t.gens p in
    if gp > !g then g := gp
  done;
  !g

(* A secure-world write of [src] that copies only the edge pages the image
   covers in part: every page it covers whole aliases [src] itself. This
   is the one place a string becomes page bytes; no write ever reaches
   them, because a page's first write copies it ([own_page]). *)
let load_image t ~addr src =
  let len = String.length src in
  check_range t ~world:World.Secure ~addr ~len;
  let shared = Bytes.unsafe_of_string src in
  ignore
    (fold_pieces ~addr ~len ~init:0 ~f:(fun pos p o n ->
         if n = gen_page_size then begin
           t.pages.(p) <- shared;
           t.offs.(p) <- pos;
           Bytes.set t.owned p '\000'
         end
         else Bytes.blit_string src pos (own_page t p) o n;
         pos + n));
  notify_write t ~addr ~len;
  t.images <-
    { img_addr = addr; img_src = src; img_gen = t.write_gen } :: t.images

(* Stamps only grow, and the load stamped every page it covers with
   [img_gen]: a range whose pages still carry no later stamp has not been
   written since, so its bytes are the image's. *)
let image_slice t ~addr ~len =
  check_live t;
  if len <= 0 || addr < 0 || addr + len > t.size then None
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
