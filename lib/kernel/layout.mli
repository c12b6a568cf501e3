(** Rich OS kernel image layout (System.map model).

    The paper's normal world runs an OpenEmbedded Linux (lsk-4.4-armlt) whose
    static kernel spans 11,916,240 bytes, which SATIN divides into 19
    introspection areas aligned to System.map entries, the largest area being
    876,616 bytes and the smallest 431,360 bytes (§IV-C, §VI-A2).

    This module rebuilds that image synthetically: a symbol table whose
    consecutive symbols tile the same 11,916,240 bytes, grouped so a
    partition along symbol boundaries can reproduce the paper's 19 canonical
    areas exactly. Two symbols are load-bearing for the experiments:

    - ["vectors"] — the AArch64 exception vector table (2 KiB), in area 0;
      KProber-I's IRQ-vector hijack dirties it.
    - ["sys_call_table"] — 400 8-byte entries, placed inside area 14; the
      sample rootkit hijacks entry 178 (GETTID on arm64). *)

type symbol = {
  sym_name : string;
  sym_addr : int; (** absolute physical address *)
  sym_size : int;
}

type t

val paper_layout : ?base:int -> unit -> t
(** The lsk-4.4-style image described above. [base] defaults to 2 MiB. *)

val synthetic : base:int -> total_size:int -> areas:int -> seed:int -> t
(** A generated layout for property tests and the area-tuning example:
    [areas] canonical areas of pseudo-random sizes tiling [total_size]. *)

val base : t -> int
val total_size : t -> int
val symbols : t -> symbol list
(** Ascending by address; consecutive, gap-free, tiling the image. *)

val canonical_area_sizes : t -> int list
(** Sizes of the canonical areas, in address order. For {!paper_layout}:
    19 sizes summing to 11,916,240, max 876,616, min 431,360. *)

val find_symbol : t -> string -> symbol
(** Raises [Not_found]. *)

val syscall_table : t -> symbol
val vector_table : t -> symbol

val area_index_of_addr : t -> int -> int
(** Canonical area index containing an absolute address. Raises
    [Invalid_argument] if outside the image. *)

val install : t -> Satin_hw.Memory.t -> seed:int -> Satin_hw.Memory.region
(** Declares the kernel image as a non-secure region and fills it with
    deterministic content (so hashes are meaningful), including a distinct
    recognizable pattern for the syscall table entries. The content is a
    function of [seed], the image size and the table's offset; it is built
    once per process, kept for the process lifetime, and loaded with
    {!Satin_hw.Memory.load_image}, so every memory booted with the same
    image shares one read-only source string. Safe to call from several
    domains at once. *)

val paper_total_size : int
(** 11,916,240. *)

val gettid_nr : int
(** 178, the arm64 [__NR_gettid]. *)
