exception Parse_error of string

type token =
  | IDENT of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | LESS
  | EQ
  | NOT
  | AND
  | OR
  | IMPLIES
  | IFF
  | TRUE
  | FALSE
  | EXISTS
  | FORALL
  | EXISTSSET
  | FORALLSET
  | SUCC
  | CHILD1
  | CHILD2
  | IN
  | EOF

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | COMMA -> "','"
  | DOT -> "'.'"
  | LESS -> "'<'"
  | EQ -> "'='"
  | NOT -> "'~'"
  | AND -> "'/\\'"
  | OR -> "'\\/'"
  | IMPLIES -> "'->'"
  | IFF -> "'<->'"
  | TRUE -> "'true'"
  | FALSE -> "'false'"
  | EXISTS -> "'exists'"
  | FORALL -> "'forall'"
  | EXISTSSET -> "'existsset'"
  | FORALLSET -> "'forallset'"
  | SUCC -> "'succ'"
  | CHILD1 -> "'child1'"
  | CHILD2 -> "'child2'"
  | IN -> "'in'"
  | EOF -> "end of input"

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* the atom keywords each structure reserves; the rest are shared *)
let atom_keywords = function
  | `Words -> [ ("succ", SUCC) ]
  | `Trees -> [ ("child1", CHILD1); ("child2", CHILD2) ]

let keywords structure =
  [
    ("true", TRUE); ("false", FALSE); ("not", NOT); ("and", AND); ("or", OR);
    ("exists", EXISTS); ("forall", FORALL); ("existsset", EXISTSSET);
    ("forallset", FORALLSET); ("in", IN);
  ]
  @ atom_keywords structure

let lex structure input =
  let keywords = keywords structure in
  let n = String.length input in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '(' then (emit LPAREN; incr i)
    else if c = ')' then (emit RPAREN; incr i)
    else if c = ',' then (emit COMMA; incr i)
    else if c = '.' then (emit DOT; incr i)
    else if c = '~' then (emit NOT; incr i)
    else if c = '&' then (emit AND; incr i)
    else if c = '|' then (emit OR; incr i)
    else if c = '=' then (emit EQ; incr i)
    else if c = '/' && !i + 1 < n && input.[!i + 1] = '\\' then (emit AND; i := !i + 2)
    else if c = '\\' && !i + 1 < n && input.[!i + 1] = '/' then (emit OR; i := !i + 2)
    else if c = '-' && !i + 1 < n && input.[!i + 1] = '>' then (emit IMPLIES; i := !i + 2)
    else if c = '<' && !i + 2 < n && input.[!i + 1] = '-' && input.[!i + 2] = '>'
    then (emit IFF; i := !i + 3)
    else if c = '<' && structure = `Words then (emit LESS; incr i)
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char input.[!i] do incr i done;
      let w = String.sub input start (!i - start) in
      emit (Option.value (List.assoc_opt w keywords) ~default:(IDENT w))
    end
    else
      raise (Parse_error (Printf.sprintf "unexpected character %C at offset %d" c !i))
  done;
  emit EOF;
  List.rev !tokens

(* [noun]: what the structure calls a letter, for error messages *)
type state = { mutable toks : token list; letters : string list; noun : string }

let peek st = match st.toks with [] -> EOF | t :: _ -> t
let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect st t =
  let got = peek st in
  if got = t then advance st
  else
    raise
      (Parse_error
         (Printf.sprintf "expected %s but found %s" (token_to_string t)
            (token_to_string got)))

let expect_ident st =
  match peek st with
  | IDENT x ->
      advance st;
      x
  | got ->
      raise
        (Parse_error
           (Printf.sprintf "expected an identifier but found %s"
              (token_to_string got)))

let letter_index st name =
  let rec find i = function
    | [] -> None
    | l :: rest -> if l = name then Some i else find (i + 1) rest
  in
  find 0 st.letters

let rec parse_formula st = parse_iff st

and parse_iff st =
  let lhs = parse_impl st in
  match peek st with
  | IFF ->
      advance st;
      let rhs = parse_impl st in
      (* a <-> b  =  (a /\ b) \/ (~a /\ ~b) *)
      Formula.Or
        [ Formula.And [ lhs; rhs ]; Formula.And [ Formula.Not lhs; Formula.Not rhs ] ]
  | _ -> lhs

and parse_impl st =
  let lhs = parse_or st in
  match peek st with
  | IMPLIES ->
      advance st;
      let rhs = parse_impl st in
      Formula.Or [ Formula.Not lhs; rhs ]
  | _ -> lhs

and parse_or st =
  let first = parse_and st in
  let rec loop acc =
    match peek st with
    | OR ->
        advance st;
        loop (parse_and st :: acc)
    | _ -> List.rev acc
  in
  match loop [ first ] with [ f ] -> f | fs -> Formula.Or fs

and parse_and st =
  let first = parse_unary st in
  let rec loop acc =
    match peek st with
    | AND ->
        advance st;
        loop (parse_unary st :: acc)
    | _ -> List.rev acc
  in
  match loop [ first ] with [ f ] -> f | fs -> Formula.And fs

and parse_unary st =
  match peek st with
  | NOT ->
      advance st;
      Formula.Not (parse_unary st)
  | (EXISTS | FORALL | EXISTSSET | FORALLSET) as quant ->
      advance st;
      let rec idents acc =
        match peek st with
        | IDENT x ->
            advance st;
            idents (x :: acc)
        | _ -> List.rev acc
      in
      let xs = idents [] in
      if xs = [] then
        raise (Parse_error "quantifier must bind at least one variable");
      expect st DOT;
      let body = parse_formula st in
      let wrap x acc =
        match quant with
        | EXISTS -> Formula.ExistsPos (x, acc)
        | FORALL -> Formula.ForallPos (x, acc)
        | EXISTSSET -> Formula.ExistsSet (x, acc)
        | _ -> Formula.ForallSet (x, acc)
      in
      List.fold_right wrap xs body
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | TRUE ->
      advance st;
      Formula.MTrue
  | FALSE ->
      advance st;
      Formula.MFalse
  | LPAREN ->
      advance st;
      let f = parse_formula st in
      expect st RPAREN;
      f
  | (SUCC | CHILD1 | CHILD2) as rel ->
      advance st;
      expect st LPAREN;
      let x = expect_ident st in
      expect st COMMA;
      let y = expect_ident st in
      expect st RPAREN;
      (match rel with
      | SUCC -> Formula.Succ (x, y)
      | CHILD1 -> Formula.Child1 (x, y)
      | _ -> Formula.Child2 (x, y))
  | IDENT name -> (
      advance st;
      match peek st with
      | LESS ->
          advance st;
          Formula.Less (name, expect_ident st)
      | EQ ->
          advance st;
          Formula.EqPos (name, expect_ident st)
      | IN ->
          advance st;
          Formula.Mem (name, expect_ident st)
      | LPAREN -> (
          advance st;
          let x = expect_ident st in
          expect st RPAREN;
          match letter_index st name with
          | Some a -> Formula.Letter (a, x)
          | None ->
              raise
                (Parse_error
                   (Printf.sprintf "%S is not a %s of the alphabet" name st.noun)))
      | got ->
          raise
            (Parse_error
               (Printf.sprintf "identifier %S must begin an atom; found %s"
                  name (token_to_string got))))
  | got ->
      raise
        (Parse_error
           (Printf.sprintf "expected a formula but found %s"
              (token_to_string got)))

let parse ?(structure = `Words) ~letters input =
  let noun = match structure with `Words -> "letter" | `Trees -> "label" in
  List.iter
    (fun l ->
      if List.mem_assoc l (keywords structure) then
        raise
          (Parse_error
             (Printf.sprintf "%s name %S collides with a keyword" noun l)))
    letters;
  let st = { toks = lex structure input; letters; noun } in
  let f = parse_formula st in
  expect st EOF;
  f

let parse_opt ?structure ~letters input =
  try Some (parse ?structure ~letters input) with Parse_error _ -> None
