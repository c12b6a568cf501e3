module Prng = Satin_engine.Prng
module Memory = Satin_hw.Memory

type symbol = { sym_name : string; sym_addr : int; sym_size : int }

type t = {
  base : int;
  total_size : int;
  symbols : symbol list;
  area_sizes : int list;
  syscall_table : symbol;
  vector_table : symbol;
}

let paper_total_size = 11_916_240
let gettid_nr = 178
let syscall_table_entries = 400
let syscall_table_size = syscall_table_entries * 8
let vector_table_size = 2048

(* The paper's 19 canonical areas: sum 11,916,240, max 876,616 (area 0),
   min 431,360 (area 18); §VI-A2. The interior sizes are synthetic but match
   the reported envelope. *)
let paper_area_sizes =
  [ 876_616; 560_264 ]
  @ List.init 16 (fun i -> 568_000 + (8_000 * i))
  @ [ 431_360 ]

(* A pool of plausible lsk-4.4 arm64 symbol names; combined with a counter
   suffix to stay unique. *)
let name_pool =
  [|
    "el1_irq"; "el0_svc"; "vectors_end"; "kmalloc"; "kfree"; "do_fork";
    "schedule"; "pick_next_task_fair"; "enqueue_task_rt"; "hrtimer_interrupt";
    "tick_sched_timer"; "handle_IPI"; "gic_handle_irq"; "do_el0_svc";
    "sys_read"; "sys_write"; "sys_openat"; "vfs_read"; "ext4_readpage";
    "tcp_sendmsg"; "ip_rcv"; "dev_queue_xmit"; "__memcpy"; "__memset";
    "strncpy_from_user"; "copy_page"; "flush_tlb_mm"; "set_pte_at";
    "handle_mm_fault"; "do_page_fault"; "wake_up_process"; "mutex_lock";
    "spin_lock_irqsave"; "rcu_read_lock"; "ktime_get"; "getnstimeofday64";
    "proc_create"; "register_filesystem"; "kobject_add"; "sysfs_create_file";
  |]

let chunk_symbols prng ~prefix ~addr ~size ~start_idx =
  (* Tile [size] bytes starting at [addr] with symbols of 16–96 KiB. *)
  let rec go acc addr remaining idx =
    if remaining = 0 then List.rev acc, idx
    else
      let chunk =
        if remaining <= 24_576 then remaining
        else min remaining (16_384 + Prng.int prng 81_920)
      in
      (* Avoid a tiny tail symbol. *)
      let chunk =
        if remaining - chunk > 0 && remaining - chunk < 4_096 then remaining
        else chunk
      in
      let name = Printf.sprintf "%s_%s" name_pool.(idx mod Array.length name_pool)
          (string_of_int idx)
      in
      ignore prefix;
      let sym = { sym_name = name; sym_addr = addr; sym_size = chunk } in
      go (sym :: acc) (addr + chunk) (remaining - chunk) (idx + 1)
  in
  go [] addr size start_idx

let build ~base ~area_sizes ~seed ~special =
  (* [special] maps an area index to a list of (name, size, offset_fraction)
     symbols carved at roughly that fraction of the area. *)
  let prng = Prng.create seed in
  let syms = ref [] in
  let idx = ref 0 in
  let addr = ref base in
  List.iteri
    (fun area_i size ->
      let specials = special area_i in
      let cursor = ref !addr in
      let remaining_start = !addr in
      List.iter
        (fun (name, ssize, frac) ->
          let target =
            remaining_start + int_of_float (frac *. float_of_int size)
          in
          let gap = max 0 (min (target - !cursor)
                             (remaining_start + size - ssize - !cursor)) in
          if gap > 0 then begin
            let chunks, nidx =
              chunk_symbols prng ~prefix:name ~addr:!cursor ~size:gap
                ~start_idx:!idx
            in
            idx := nidx;
            syms := List.rev_append chunks !syms;
            cursor := !cursor + gap
          end;
          syms := { sym_name = name; sym_addr = !cursor; sym_size = ssize } :: !syms;
          cursor := !cursor + ssize)
        specials;
      let tail = remaining_start + size - !cursor in
      if tail > 0 then begin
        let chunks, nidx =
          chunk_symbols prng ~prefix:"tail" ~addr:!cursor ~size:tail
            ~start_idx:!idx
        in
        idx := nidx;
        syms := List.rev_append chunks !syms
      end;
      addr := remaining_start + size)
    area_sizes;
  List.rev !syms

let find_in syms name = List.find (fun s -> s.sym_name = name) syms

let paper_layout ?(base = 2 * 1024 * 1024) () =
  let special = function
    | 0 -> [ ("vectors", vector_table_size, 0.0) ]
    | 14 -> [ ("sys_call_table", syscall_table_size, 0.45) ]
    | _ -> []
  in
  let symbols = build ~base ~area_sizes:paper_area_sizes ~seed:0xA5A5 ~special in
  {
    base;
    total_size = paper_total_size;
    symbols;
    area_sizes = paper_area_sizes;
    syscall_table = find_in symbols "sys_call_table";
    vector_table = find_in symbols "vectors";
  }

let synthetic ~base ~total_size ~areas ~seed =
  if areas <= 0 || total_size < areas * 4096 then
    invalid_arg "Layout.synthetic: bad dimensions";
  let prng = Prng.create seed in
  let avg = total_size / areas in
  let sizes = Array.make areas 0 in
  let assigned = ref 0 in
  for i = 0 to areas - 2 do
    let lo = max 4096 (avg * 7 / 10) and hi = avg * 13 / 10 in
    let s = lo + Prng.int prng (max 1 (hi - lo)) in
    let s = min s (total_size - !assigned - ((areas - 1 - i) * 4096)) in
    sizes.(i) <- s;
    assigned := !assigned + s
  done;
  sizes.(areas - 1) <- total_size - !assigned;
  let area_sizes = Array.to_list sizes in
  let special = function
    | 0 -> [ ("vectors", vector_table_size, 0.0) ]
    | i when i = areas / 2 -> [ ("sys_call_table", syscall_table_size, 0.5) ]
    | _ -> []
  in
  let symbols = build ~base ~area_sizes ~seed ~special in
  {
    base;
    total_size;
    symbols;
    area_sizes;
    syscall_table = find_in symbols "sys_call_table";
    vector_table = find_in symbols "vectors";
  }

let base t = t.base
let total_size t = t.total_size
let symbols t = t.symbols
let canonical_area_sizes t = t.area_sizes
let find_symbol t name = find_in t.symbols name
let syscall_table t = t.syscall_table
let vector_table t = t.vector_table

let area_index_of_addr t addr =
  if addr < t.base || addr >= t.base + t.total_size then
    invalid_arg "Layout.area_index_of_addr: outside kernel image";
  let rec go i start = function
    | [] -> invalid_arg "Layout.area_index_of_addr: unreachable"
    | size :: rest ->
        if addr < start + size then i else go (i + 1) (start + size) rest
  in
  go 0 t.base t.area_sizes

(* Installed content of every image built in this process, keyed by
   (content seed, size, syscall-table offset): the pseudo-random fill with
   the syscall table laid in. Scenarios share each string read-only (the
   checker aliases it as golden content), so an image is generated once per
   process rather than once per trial. Runner domains boot concurrently,
   hence the lock; a miss generates under it, so concurrent boots of one
   image wait for a single build. *)
let images : (int * int * int, string) Hashtbl.t = Hashtbl.create 4
let images_lock = Mutex.create ()

let generate ~seed ~size ~table_off =
  let b = Bytes.create size in
  let prng = Prng.create seed in
  (* Little-endian 64-bit draws so that integrity hashes are non-trivial;
     a partial last word keeps its low bytes. *)
  let words = size / 8 in
  for w = 0 to words - 1 do
    Bytes.set_int64_le b (8 * w) (Prng.next_int64 prng)
  done;
  if size > 8 * words then begin
    let last = Bytes.create 8 in
    Bytes.set_int64_le last 0 (Prng.next_int64 prng);
    Bytes.blit last 0 b (8 * words) (size - (8 * words))
  end;
  (* Syscall table entries look like kernel text pointers. *)
  for n = 0 to syscall_table_entries - 1 do
    Bytes.set_int64_le b
      (table_off + (n * 8))
      (Int64.add 0xffff000008080000L (Int64.of_int (n * 0x400)))
  done;
  Bytes.unsafe_to_string b

let image_content ~seed ~size ~table_off =
  Mutex.protect images_lock (fun () ->
      let key = (seed, size, table_off) in
      match Hashtbl.find_opt images key with
      | Some s -> s
      | None ->
          let s = generate ~seed ~size ~table_off in
          Hashtbl.add images key s;
          s)

let install t memory ~seed =
  let region =
    Memory.add_region memory ~name:"kernel_image" ~base:t.base ~size:t.total_size
      ~security:Memory.Non_secure_region
  in
  Memory.load_image memory ~addr:t.base
    (image_content ~seed ~size:t.total_size
       ~table_off:(t.syscall_table.sym_addr - t.base));
  region
