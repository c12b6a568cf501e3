module Engine = Satin_engine.Engine
module Sim_time = Satin_engine.Sim_time
module Prng = Satin_engine.Prng
module Platform = Satin_hw.Platform
module Cpu = Satin_hw.Cpu
module Memory = Satin_hw.Memory
module World = Satin_hw.World
module Cycle_model = Satin_hw.Cycle_model
module Kernel = Satin_kernel.Kernel
module Syscall_table = Satin_kernel.Syscall_table

type state = Dormant | Armed | Hiding | Hidden | Rearming

let evil_pointer = 0xdeadbeef41414141L

type t = {
  platform : Platform.t;
  syscalls : Syscall_table.t;
  prng : Prng.t;
  cleanup_core : Cpu.t;
  addr : int;
  mutable original : string;
  mutable evil : string;
  mutable state : state;
  mutable armed_since : Sim_time.t option;
  mutable uptime : Sim_time.t;
  mutable hides : int;
  mutable rearms : int;
  mutable last_hide : Sim_time.t option;
  mutable op_epoch : int; (* cancels in-flight progressive writes *)
}

let bytes_of_int64 v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Bytes.to_string b

let create kernel ?target_addr ~cleanup_core () =
  let platform = kernel.Kernel.platform in
  if cleanup_core < 0 || cleanup_core >= Platform.ncores platform then
    invalid_arg "Rootkit.create: unknown cleanup core";
  let addr =
    match target_addr with
    | Some a -> a
    | None -> Syscall_table.gettid_addr kernel.Kernel.syscalls
  in
  {
    platform;
    syscalls = kernel.Kernel.syscalls;
    prng = Platform.split_prng platform;
    cleanup_core = Platform.core platform cleanup_core;
    addr;
    original = "";
    evil = bytes_of_int64 evil_pointer;
    state = Dormant;
    armed_since = None;
    uptime = Sim_time.zero;
    hides = 0;
    rearms = 0;
    last_hide = None;
    op_epoch = 0;
  }

let state t = t.state
let is_armed t = t.state = Armed
let target_addr t = t.addr
let hides t = t.hides
let rearms t = t.rearms
let last_hide_duration t = t.last_hide

let now t = Engine.now t.platform.Platform.engine

let memory t = t.platform.Platform.memory

let note_armed t = t.armed_since <- Some (now t)

let note_clean t =
  match t.armed_since with
  | Some since ->
      t.uptime <- Sim_time.add t.uptime (Sim_time.diff (now t) since);
      t.armed_since <- None
  | None -> ()

let attack_uptime t =
  match t.armed_since with
  | Some since -> Sim_time.add t.uptime (Sim_time.diff (now t) since)
  | None -> t.uptime

let arm t =
  if t.state <> Dormant then invalid_arg "Rootkit.arm: not dormant";
  t.original <-
    Bytes.to_string
      (Memory.read_bytes (memory t) ~world:World.Normal ~addr:t.addr ~len:8);
  Memory.write_string (memory t) ~world:World.Normal ~addr:t.addr t.evil;
  t.state <- Armed;
  note_armed t

let hijacked_now t =
  t.original <> ""
  && Bytes.to_string
       (Memory.read_bytes (memory t) ~world:World.Secure ~addr:t.addr ~len:8)
     <> t.original

let recover_duration t =
  Cycle_model.sample_time t.prng
    (t.platform.Platform.cycle.Cycle_model.recover_8bytes
       (Cpu.core_type t.cleanup_core))

(* Write [content] progressively, one byte every total/8, as a sequential
   chain of kernel work. The cleanup thread prefers [cleanup_core] (whose
   type sets its speed) but, like any normal-world thread, migrates when
   that core is stolen — so a byte only stalls while EVERY core is in the
   secure world. A bumped [op_epoch] abandons the chain (a hide overriding
   an in-flight re-arm). *)
let progressive_write t content ~on_done =
  t.op_epoch <- t.op_epoch + 1;
  let epoch = t.op_epoch in
  let engine = t.platform.Platform.engine in
  let total = recover_duration t in
  let per_byte = Sim_time.ns (total / 8) in
  let stall_poll = Sim_time.us 100 in
  let rec write_byte i =
    if t.op_epoch = epoch then begin
      if Array.for_all Cpu.in_secure t.platform.Platform.cores then
        ignore (Engine.schedule engine ~after:stall_poll (fun () -> write_byte i))
      else begin
        Memory.write_byte (memory t) ~world:World.Normal ~addr:(t.addr + i)
          (Char.code content.[i]);
        if i < 7 then
          ignore (Engine.schedule engine ~after:per_byte (fun () -> write_byte (i + 1)))
        else on_done ()
      end
    end
  in
  ignore (Engine.schedule engine ~after:per_byte (fun () -> write_byte 0))

let start_hide t ?(on_hidden = fun () -> ()) () =
  (* Legal from Armed, and from Rearming: a probe signal mid-re-arm aborts
     the re-arm and reverses it. *)
  if t.state = Armed || t.state = Rearming then begin
    t.state <- Hiding;
    let started = now t in
    progressive_write t t.original ~on_done:(fun () ->
        t.state <- Hidden;
        t.hides <- t.hides + 1;
        t.last_hide <- Some (Sim_time.diff (now t) started);
        note_clean t;
        on_hidden ())
  end

let start_rearm t ?(on_armed = fun () -> ()) () =
  if t.state = Hidden then begin
    t.state <- Rearming;
    (* "At least one malicious byte in place" starts at the first
       progressive write, not at completion (hijacked_now drives it). *)
    let poll = Sim_time.us 500 in
    let rec watch_first_byte () =
      if t.state = Rearming then begin
        if hijacked_now t then note_armed t
        else
          ignore
            (Engine.schedule t.platform.Platform.engine ~after:poll
               watch_first_byte)
      end
    in
    watch_first_byte ();
    progressive_write t t.evil ~on_done:(fun () ->
        t.state <- Armed;
        t.rearms <- t.rearms + 1;
        if t.armed_since = None then note_armed t;
        on_armed ())
  end


