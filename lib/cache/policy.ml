type kind = Lru | Tree_plru | Rand

let all = [ Lru; Tree_plru; Rand ]

let kind_to_string = function
  | Lru -> "lru"
  | Tree_plru -> "tree-plru"
  | Rand -> "random"

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
