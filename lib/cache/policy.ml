module Prng = Satin_engine.Prng

type kind = Lru | Tree_plru | Rand

let all = [ Lru; Tree_plru; Rand ]

let kind_to_string = function
  | Lru -> "lru"
  | Tree_plru -> "tree-plru"
  | Rand -> "random"

let kind_of_string = function
  | "lru" -> Some Lru
  | "tree-plru" | "plru" -> Some Tree_plru
  | "random" | "rand" -> Some Rand
  | _ -> None

let pp_kind fmt k = Format.pp_print_string fmt (kind_to_string k)

let state_words kind ~ways =
  match kind with Lru -> ways | Tree_plru -> 1 | Rand -> 1

let is_pow2 n = n > 0 && n land (n - 1) = 0

let validate kind ~ways =
  if ways < 1 || ways > 62 then
    invalid_arg "Policy.validate: need 1 <= ways <= 62";
  match kind with
  | Tree_plru when not (is_pow2 ways) ->
      invalid_arg "Policy.validate: Tree_plru needs a power-of-two ways"
  | Lru | Tree_plru | Rand -> ()

let init kind ~state ~off ~ways =
  match kind with
  | Lru -> Array.fill state off ways 0
  | Tree_plru -> state.(off) <- 0
  | Rand -> state.(off) <- -1 (* no MRU yet *)

(* Tree-PLRU over one word: the [ways - 1] internal nodes of a perfect
   binary tree in heap order (root = node 1, bit [node - 1] of the word).
   Bit 0 means "the colder half is the left one". A touch points every bit
   on the touched way's root path at the other half; the victim walk just
   follows the bits down to a leaf.

   A touch therefore forces a fixed set of bits whatever the word held:
   [plru_paths.(ways)] holds, for each way, the [keep] mask (every bit off
   the root path, at index [2 * way]) and the path bits it sets (at
   [2 * way + 1]), for every power-of-two associativity [validate]
   accepts. *)
let plru_paths =
  Array.init 63 (fun ways ->
      if not (is_pow2 ways) then [||]
      else begin
        let tbl = Array.make (2 * ways) 0 in
        for way = 0 to ways - 1 do
          let keep = ref (-1) and set = ref 0 in
          let node = ref 1 and lo = ref 0 and hi = ref ways in
          while !hi - !lo > 1 do
            let mid = (!lo + !hi) / 2 in
            let b = 1 lsl (!node - 1) in
            keep := !keep land lnot b;
            if way < mid then begin
              (* touched left: colder half is the right one *)
              set := !set lor b;
              hi := mid;
              node := 2 * !node
            end
            else begin
              lo := mid;
              node := (2 * !node) + 1
            end
          done;
          tbl.(2 * way) <- !keep;
          tbl.((2 * way) + 1) <- !set
        done;
        tbl
      end)

let plru_touch state off ways way =
  let p = plru_paths.(ways) in
  state.(off) <- state.(off) land p.(2 * way) lor p.((2 * way) + 1)

let plru_victim state off ways =
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

let touch kind ~state ~off ~ways ~way ~tick =
  match kind with
  | Lru -> state.(off + way) <- tick
  | Tree_plru -> plru_touch state off ways way
  | Rand -> state.(off) <- way

let touch_keep kind ~ways ~way =
  match kind with
  | Tree_plru -> plru_paths.(ways).(2 * way)
  | Rand -> 0
  | Lru -> invalid_arg "Policy.touch_keep: Lru state is not one word"

let touch_set kind ~ways ~way =
  match kind with
  | Tree_plru -> plru_paths.(ways).((2 * way) + 1)
  | Rand -> way
  | Lru -> invalid_arg "Policy.touch_set: Lru state is not one word"

let victim kind ~state ~off ~ways ~locked ~prng =
  match kind with
  | Lru ->
      let best = ref (-1) and best_stamp = ref max_int in
      for w = 0 to ways - 1 do
        if locked land (1 lsl w) = 0 && state.(off + w) < !best_stamp then begin
          best := w;
          best_stamp := state.(off + w)
        end
      done;
      !best
  | Tree_plru ->
      let v = plru_victim state off ways in
      if locked land (1 lsl v) = 0 then v
      else begin
        (* Pinned: take the next unlocked way in circular order — the walk
           stays deterministic and still avoids the MRU path when any
           colder way is free. *)
        let found = ref (-1) and w = ref 1 in
        while !found < 0 && !w < ways do
          let c = (v + !w) mod ways in
          if locked land (1 lsl c) = 0 then found := c;
          incr w
        done;
        !found
      end
  | Rand ->
      let mru = state.(off) in
      let eligible w = locked land (1 lsl w) = 0 && w <> mru in
      let n = ref 0 in
      for w = 0 to ways - 1 do
        if eligible w then incr n
      done;
      if !n = 0 then
        (* Only the MRU way (if anything) is unlocked. *)
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
