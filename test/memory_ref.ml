(* Flat reference model of [Satin_hw.Memory]: one [Bytes.t] for the whole
   address space, written in place, with no page table, no aliasing and no
   copy-on-write. Access checks, guards, watchers, generation stamps and
   loaded images follow the same contracts as [Memory], so the
   differential property in test_memory.ml can drive both with the same
   operations and require the same contents, stamps, image slices, step
   outcomes and watcher logs. A loaded image is kept as a private copy of
   its source, so an [image_slice] of a source [Memory] wrote into differs
   from the model's. *)

module Memory = Satin_hw.Memory
module World = Satin_hw.World

type watcher = { mutable active : bool; notify : addr:int -> len:int -> unit }

type guard = {
  guard_name : string;
  g_base : int;
  g_len : int;
  decide : addr:int -> len:int -> [ `Allow | `Deny ];
  mutable g_active : bool;
}

type image = { img_addr : int; img_copy : string; img_gen : int }

type t = {
  data : Bytes.t;
  gens : int array;
  mutable write_gen : int;
  mutable region_list : Memory.region list;
  mutable watchers : watcher list;
  mutable guards : guard list;
  mutable images : image list;
}

let page_size = Memory.gen_page_size

let create ~size =
  {
    data = Bytes.make size '\000';
    gens = Array.make (((size - 1) / page_size) + 1) 0;
    write_gen = 0;
    region_list = [];
    watchers = [];
    guards = [];
    images = [];
  }

let size t = Bytes.length t.data

let add_region t ~name ~base ~size:n ~security =
  if base < 0 || n <= 0 || base + n > size t then
    invalid_arg (Printf.sprintf "Memory.add_region %s: out of address space" name);
  let r = { Memory.name; base; size = n; security } in
  List.iter
    (fun (e : Memory.region) ->
      if e.base < base + n && base < e.base + e.size then
        invalid_arg
          (Printf.sprintf "Memory.add_region %s: overlaps region %s" name e.name))
    t.region_list;
  t.region_list <-
    List.sort
      (fun (a : Memory.region) (b : Memory.region) -> compare a.base b.base)
      (r :: t.region_list);
  r

let regions t = t.region_list

(* The first secure region touching [addr, addr + len) traps a
   normal-world access, as [Memory] checks region boundaries, not bytes. *)
let check_range t ~world ~addr ~len =
  if len < 0 then invalid_arg "Memory: negative length";
  if addr < 0 || addr + len > size t then raise (Memory.Bad_address addr);
  if world = World.Normal then
    List.iter
      (fun (r : Memory.region) ->
        if r.security = Memory.Secure_region && r.base < addr + len
           && addr < r.base + r.size
        then raise (Memory.Access_violation { world; addr; region = r.name }))
      t.region_list

let check_access t ~world ~addr =
  if addr < 0 || addr >= size t then raise (Memory.Bad_address addr);
  check_range t ~world ~addr ~len:1

let check_guards t ~world ~addr ~len =
  if world = World.Normal then
    List.iter
      (fun g ->
        if g.g_active && g.g_base < addr + len && addr < g.g_base + g.g_len then
          match g.decide ~addr ~len with
          | `Allow -> ()
          | `Deny ->
              raise (Memory.Write_trapped { addr; guard_name = g.guard_name }))
      t.guards

let notify_write t ~addr ~len =
  if len > 0 then begin
    t.write_gen <- t.write_gen + 1;
    for p = addr / page_size to (addr + len - 1) / page_size do
      t.gens.(p) <- t.write_gen
    done
  end;
  List.iter (fun w -> if w.active then w.notify ~addr ~len) t.watchers

let read_byte t ~world ~addr =
  check_access t ~world ~addr;
  Char.code (Bytes.get t.data addr)

let write_byte t ~world ~addr v =
  check_access t ~world ~addr;
  check_guards t ~world ~addr ~len:1;
  Bytes.set t.data addr (Char.chr (v land 0xff));
  notify_write t ~addr ~len:1

let read_bytes t ~world ~addr ~len =
  check_range t ~world ~addr ~len;
  Bytes.sub t.data addr len

let write_string t ~world ~addr s =
  let len = String.length s in
  check_range t ~world ~addr ~len;
  check_guards t ~world ~addr ~len;
  Bytes.blit_string s 0 t.data addr len;
  notify_write t ~addr ~len

let read_int64_le t ~world ~addr =
  check_range t ~world ~addr ~len:8;
  Bytes.get_int64_le t.data addr

let write_int64_le t ~world ~addr v =
  check_range t ~world ~addr ~len:8;
  check_guards t ~world ~addr ~len:8;
  Bytes.set_int64_le t.data addr v;
  notify_write t ~addr ~len:8

(* The flat store, cut at every page boundary. *)
let fold_pages t ~world ~addr ~len ~init ~f =
  check_range t ~world ~addr ~len;
  let acc = ref init and a = ref addr in
  while !a < addr + len do
    let n = min (page_size - (!a mod page_size)) (addr + len - !a) in
    acc := f !acc t.data !a n;
    a := !a + n
  done;
  !acc

let add_write_guard t ~name ~base ~len ~decide =
  if len <= 0 then invalid_arg "Memory.add_write_guard: empty range";
  let g =
    { guard_name = name; g_base = base; g_len = len; decide; g_active = true }
  in
  t.guards <- g :: t.guards;
  g

let remove_write_guard t g = t.guards <- List.filter (fun x -> x != g) t.guards
let disable_write_guard g = g.g_active <- false

let add_write_watcher t notify =
  let w = { active = true; notify } in
  t.watchers <- w :: t.watchers;
  w

let remove_write_watcher t w =
  w.active <- false;
  t.watchers <- List.filter (fun x -> x != w) t.watchers

let write_generation t = t.write_gen

let generation t ~addr ~len =
  if len <= 0 then invalid_arg "Memory.generation: empty range";
  if addr < 0 || addr + len > size t then raise (Memory.Bad_address addr);
  let g = ref 0 in
  for p = addr / page_size to (addr + len - 1) / page_size do
    g := max !g t.gens.(p)
  done;
  !g

let load_image t ~addr src =
  write_string t ~world:World.Secure ~addr src;
  let img_copy = Bytes.to_string (Bytes.of_string src) in
  t.images <- { img_addr = addr; img_copy; img_gen = t.write_gen } :: t.images

let image_slice t ~addr ~len =
  if len <= 0 || addr < 0 || addr + len > size t then None
  else
    List.find_map
      (fun img ->
        if
          addr >= img.img_addr
          && addr + len <= img.img_addr + String.length img.img_copy
          && generation t ~addr ~len <= img.img_gen
        then Some (img.img_copy, addr - img.img_addr)
        else None)
      t.images
