let magic = "satin-store/v1"

type error =
  | Bad_magic
  | Bad_version of string
  | Truncated
  | Bad_checksum
  | Garbled

let error_to_string = function
  | Bad_magic -> "not a satin-store record"
  | Bad_version v -> Printf.sprintf "unsupported record version %S" v
  | Truncated -> "truncated record"
  | Bad_checksum -> "payload checksum mismatch"
  | Garbled -> "checksum passed but payload failed to deserialize"

let escape_line s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The checksum covers the (escaped) experiment line as well as the
   payload: a corrupted experiment name must read as a damaged record, not
   as a clean record filed under a different experiment. *)
let checksum ~experiment_line payload =
  Digest.to_hex (Digest.string (experiment_line ^ "\n" ^ payload))

let encode_raw ~experiment payload =
  let experiment_line = escape_line experiment in
  String.concat ""
    [
      magic; "\n";
      experiment_line; "\n";
      checksum ~experiment_line payload; "\n";
      string_of_int (String.length payload); "\n";
      payload;
    ]

let encode ~experiment v = encode_raw ~experiment (Marshal.to_string v [])

(* [line s pos] is the substring up to the next '\n' and the position just
   past it, or None when no newline remains. *)
let line s pos =
  match String.index_from_opt s pos '\n' with
  | None -> None
  | Some nl -> Some (String.sub s pos (nl - pos), nl + 1)

let header s =
  match line s 0 with
  | None -> Error Bad_magic
  | Some (l0, p1) ->
      if not (String.equal l0 magic) then
        if String.length l0 >= 12 && String.equal (String.sub l0 0 12) "satin-store/"
        then Error (Bad_version l0)
        else Error Bad_magic
      else begin
        match line s p1 with
        | None -> Error Truncated
        | Some (exp, p2) -> (
            match line s p2 with
            | None -> Error Truncated
            | Some (sum, p3) -> (
                match line s p3 with
                | None -> Error Truncated
                | Some (len_s, p4) -> (
                    match int_of_string_opt len_s with
                    | None -> Error Truncated
                    | Some len -> Ok (exp, sum, len, p4))))
      end

let decode_raw s =
  match header s with
  | Error e -> Error e
  | Ok (exp, sum, len, pos) ->
      if len < 0 || String.length s - pos <> len then Error Truncated
      else
        let payload = String.sub s pos len in
        if not (String.equal (checksum ~experiment_line:exp payload) sum) then
          Error Bad_checksum
        else Ok (exp, payload)

let decode s =
  match decode_raw s with
  | Error e -> Error e
  | Ok (_, payload) -> (
      try Ok (Marshal.from_string payload 0) with _ -> Error Garbled)
