type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    (* shortest representation that still round-trips *)
    let s = Printf.sprintf "%.17g" f in
    let shorter = Printf.sprintf "%.12g" f in
    if float_of_string shorter = f then shorter else s

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        vs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let rec pp ppf = function
  | (Null | Bool _ | Int _ | Float _ | String _) as v ->
      Format.pp_print_string ppf (to_string v)
  | List [] -> Format.pp_print_string ppf "[]"
  | List vs ->
      Format.fprintf ppf "@[<v 2>[";
      List.iteri
        (fun i v ->
          if i > 0 then Format.fprintf ppf ",";
          Format.fprintf ppf "@,%a" pp v)
        vs;
      Format.fprintf ppf "@]@,]"
  | Obj [] -> Format.pp_print_string ppf "{}"
  | Obj kvs ->
      Format.fprintf ppf "@[<v 2>{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Format.fprintf ppf ",";
          Format.fprintf ppf "@,\"%s\": %a" (escape k) pp v)
        kvs;
      Format.fprintf ppf "@]@,}"

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Parse_fail of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'u' ->
                  if !pos + 4 > n then fail "truncated \\u escape";
                  let hex = String.sub s !pos 4 in
                  pos := !pos + 4;
                  let code =
                    try int_of_string ("0x" ^ hex)
                    with _ -> fail "bad \\u escape"
                  in
                  (* ASCII only is enough for our own encoder output;
                     other code points are replaced *)
                  if code < 0x80 then Buffer.add_char buf (Char.chr code)
                  else Buffer.add_char buf '?'
              | _ -> fail "unknown escape");
              go ())
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while match peek () with Some c when is_num_char c -> true | _ -> false do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    if lit = "" then fail "expected a number";
    let has_frac =
      String.exists (function '.' | 'e' | 'E' -> true | _ -> false) lit
    in
    if has_frac then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt lit with
          | Some f -> Float f
          | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elems () =
            items := parse_value () :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elems ();
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let items = ref [] in
          let rec membs () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            items := (k, v) :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                membs ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          membs ();
          Obj (List.rev !items)
        end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_fail (at, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_int_opt = function
  | Int n -> Some n
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_list_opt = function List vs -> Some vs | _ -> None

let field kind conv ?(prefix = "") name j =
  match Option.bind (member name j) conv with
  | Some v -> Ok v
  | None ->
      Error (Printf.sprintf "%smissing or non-%s field %S" prefix kind name)

let int_field ?prefix name j = field "int" to_int_opt ?prefix name j
let string_field ?prefix name j = field "string" to_string_opt ?prefix name j

let bool_field ?prefix name j =
  field "bool" (function Bool b -> Some b | _ -> None) ?prefix name j
