type var = string

type atom =
  | Eq of var * var
  | Edge of var * var
  | Color of string * var

type t =
  | True
  | False
  | Atom of atom
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | Exists of var * t
  | Forall of var * t
  | CountGe of int * var * t

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

let tru = True
let fls = False
let eq x y = Atom (Eq (x, y))
let edge x y = Atom (Edge (x, y))
let color c x = Atom (Color (c, x))

let not_ = function
  | True -> False
  | False -> True
  | Not f -> f
  | f -> Not f

let and_ fs =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | True :: rest -> flatten acc rest
    | False :: _ -> None
    | And gs :: rest -> flatten acc (gs @ rest)
    | f :: rest -> flatten (f :: acc) rest
  in
  match flatten [] fs with
  | None -> False
  | Some [] -> True
  | Some [ f ] -> f
  | Some fs -> And fs

let or_ fs =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | False :: rest -> flatten acc rest
    | True :: _ -> None
    | Or gs :: rest -> flatten acc (gs @ rest)
    | f :: rest -> flatten (f :: acc) rest
  in
  match flatten [] fs with
  | None -> True
  | Some [] -> False
  | Some [ f ] -> f
  | Some fs -> Or fs

let implies a b =
  match (a, b) with
  | False, _ -> True
  | True, b -> b
  | _, True -> True
  | a, False -> not_ a
  | a, b -> Implies (a, b)

let iff a b =
  match (a, b) with
  | True, b -> b
  | a, True -> a
  | False, b -> not_ b
  | a, False -> not_ a
  | a, b -> Iff (a, b)

let exists x f = match f with False -> False | f -> Exists (x, f)
let forall x f = match f with True -> True | f -> Forall (x, f)

let count_ge t x f =
  if t < 0 then invalid_arg "Formula.count_ge: negative threshold";
  if t = 0 then True
  else match f with False -> False | f -> CountGe (t, x, f)
let exists_many xs f = List.fold_right exists xs f
let forall_many xs f = List.fold_right forall xs f

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let rec quantifier_rank = function
  | True | False | Atom _ -> 0
  | Not f -> quantifier_rank f
  | And fs | Or fs ->
      List.fold_left (fun acc f -> max acc (quantifier_rank f)) 0 fs
  | Implies (a, b) | Iff (a, b) ->
      max (quantifier_rank a) (quantifier_rank b)
  | Exists (_, f) | Forall (_, f) | CountGe (_, _, f) -> 1 + quantifier_rank f

module VSet = Set.Make (String)

let atom_vars = function
  | Eq (x, y) | Edge (x, y) -> VSet.of_list [ x; y ]
  | Color (_, x) -> VSet.singleton x

let rec free_set = function
  | True | False -> VSet.empty
  | Atom a -> atom_vars a
  | Not f -> free_set f
  | And fs | Or fs ->
      List.fold_left (fun acc f -> VSet.union acc (free_set f)) VSet.empty fs
  | Implies (a, b) | Iff (a, b) -> VSet.union (free_set a) (free_set b)
  | Exists (x, f) | Forall (x, f) | CountGe (_, x, f) -> VSet.remove x (free_set f)

let free_vars f = VSet.elements (free_set f)

let rec all_set = function
  | True | False -> VSet.empty
  | Atom a -> atom_vars a
  | Not f -> all_set f
  | And fs | Or fs ->
      List.fold_left (fun acc f -> VSet.union acc (all_set f)) VSet.empty fs
  | Implies (a, b) | Iff (a, b) -> VSet.union (all_set a) (all_set b)
  | Exists (x, f) | Forall (x, f) | CountGe (_, x, f) -> VSet.add x (all_set f)

let all_vars f = VSet.elements (all_set f)

module SSet = Set.Make (String)

let colors_used f =
  let rec go acc = function
    | True | False -> acc
    | Atom (Color (c, _)) -> SSet.add c acc
    | Atom _ -> acc
    | Not f -> go acc f
    | And fs | Or fs -> List.fold_left go acc fs
    | Implies (a, b) | Iff (a, b) -> go (go acc a) b
    | Exists (_, f) | Forall (_, f) | CountGe (_, _, f) -> go acc f
  in
  SSet.elements (go SSet.empty f)

let rec size = function
  | True | False | Atom _ -> 1
  | Not f -> 1 + size f
  | And fs | Or fs -> List.fold_left (fun acc f -> acc + size f) 1 fs
  | Implies (a, b) | Iff (a, b) -> 1 + size a + size b
  | Exists (_, f) | Forall (_, f) | CountGe (_, _, f) -> 1 + size f

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let hash (f : t) = Hashtbl.hash f

(* ------------------------------------------------------------------ *)
(* Renaming and substitution                                           *)
(* ------------------------------------------------------------------ *)

let fresh_var ~avoid base =
  if not (List.mem base avoid) then base
  else begin
    let rec go i =
      let cand = Printf.sprintf "%s%d" base i in
      if List.mem cand avoid then go (i + 1) else cand
    in
    go 0
  end

let rename sigma f =
  (* capture-avoiding: when entering a binder whose variable collides with
     the image of a free variable, refresh the bound variable first.

     Linear in the size of [f] (up to set operations on its variables):
     - [go] also returns the free variables of the formula it renamed,
       built from its children's, so each node's free set is computed
       once.  A binder renames its body as if nothing were captured, and
       only when the body's free set shows a capture renames it again
       under a fresh variable;
     - the renaming in force is [sigma] with the variables of the
       binders entered since fixed: [shadowed] holds them, rather than
       one closure per binder for a lookup to walk. *)
  let ren sigma shadowed y = if VSet.mem y shadowed then y else sigma y in
  let rec go sigma shadowed f =
    let ren = ren sigma shadowed in
    match f with
    | True | False -> (f, VSet.empty)
    | Atom (Eq (x, y)) -> (Atom (Eq (ren x, ren y)), VSet.add x (VSet.singleton y))
    | Atom (Edge (x, y)) ->
        (Atom (Edge (ren x, ren y)), VSet.add x (VSet.singleton y))
    | Atom (Color (c, x)) -> (Atom (Color (c, ren x)), VSet.singleton x)
    | Not f ->
        let f', fv = go sigma shadowed f in
        (Not f', fv)
    | And fs ->
        let fs', fv = go_list sigma shadowed fs in
        (And fs', fv)
    | Or fs ->
        let fs', fv = go_list sigma shadowed fs in
        (Or fs', fv)
    | Implies (a, b) ->
        let a', fa = go sigma shadowed a in
        let b', fb = go sigma shadowed b in
        (Implies (a', b'), VSet.union fa fb)
    | Iff (a, b) ->
        let a', fa = go sigma shadowed a in
        let b', fb = go sigma shadowed b in
        (Iff (a', b'), VSet.union fa fb)
    | Exists (x, body) ->
        let x', body', fv = bind sigma shadowed x body in
        (Exists (x', body'), fv)
    | Forall (x, body) ->
        let x', body', fv = bind sigma shadowed x body in
        (Forall (x', body'), fv)
    | CountGe (t, x, body) ->
        let x', body', fv = bind sigma shadowed x body in
        (CountGe (t, x', body'), fv)
  and go_list sigma shadowed fs =
    let fs' = List.map (go sigma shadowed) fs in
    ( List.map fst fs',
      List.fold_left (fun acc (_, fv) -> VSet.union acc fv) VSet.empty fs' )
  and bind sigma shadowed x body =
    let body', fv_body = go sigma (VSet.add x shadowed) body in
    let fv = VSet.remove x fv_body in
    let images = VSet.elements fv |> List.map (ren sigma shadowed) in
    if List.mem x images then begin
      let avoid = images @ VSet.elements (all_set body) in
      let x' = fresh_var ~avoid x in
      let refreshed, _ =
        go (fun y -> if y = x then x' else y) VSet.empty body
      in
      (x', fst (go sigma (VSet.add x' shadowed) refreshed), fv)
    end
    else (x, body', fv)
  in
  fst (go sigma VSet.empty f)

let substitute assoc f =
  rename (fun x -> match List.assoc_opt x assoc with Some y -> y | None -> x) f

let rec map_atoms h = function
  | True -> True
  | False -> False
  | Atom a -> h a
  | Not f -> not_ (map_atoms h f)
  | And fs -> and_ (List.map (map_atoms h) fs)
  | Or fs -> or_ (List.map (map_atoms h) fs)
  | Implies (a, b) -> implies (map_atoms h a) (map_atoms h b)
  | Iff (a, b) -> iff (map_atoms h a) (map_atoms h b)
  | Exists (x, f) -> exists x (map_atoms h f)
  | Forall (x, f) -> forall x (map_atoms h f)
  | CountGe (t, x, f) -> count_ge t x (map_atoms h f)

(* ------------------------------------------------------------------ *)
(* Normal forms                                                        *)
(* ------------------------------------------------------------------ *)

let rec nnf f =
  match f with
  | True | False | Atom _ -> f
  | Implies (a, b) -> nnf (Or [ Not a; b ])
  | Iff (a, b) -> nnf (Or [ And [ a; b ]; And [ Not a; Not b ] ])
  | And fs -> and_ (List.map nnf fs)
  | Or fs -> or_ (List.map nnf fs)
  | Exists (x, f) -> exists x (nnf f)
  | Forall (x, f) -> forall x (nnf f)
  | CountGe (t, x, f) -> count_ge t x (nnf f)
  | Not g -> (
      match g with
      | True -> False
      | False -> True
      | Atom _ -> Not g
      | Not h -> nnf h
      | And fs -> or_ (List.map (fun f -> nnf (Not f)) fs)
      | Or fs -> and_ (List.map (fun f -> nnf (Not f)) fs)
      | Implies (a, b) -> nnf (And [ a; Not b ])
      | Iff (a, b) -> nnf (Or [ And [ a; Not b ]; And [ Not a; b ] ])
      | Exists (x, f) -> forall x (nnf (Not f))
      | Forall (x, f) -> exists x (nnf (Not f))
      | CountGe (t, x, f) ->
          (* "< t" has no positive form in our syntax; keep the guarded
             negation, whose operand is in NNF *)
          not_ (count_ge t x (nnf f)))

let rec simplify f =
  match f with
  | True | False -> f
  | Atom (Eq (x, y)) when x = y -> True
  | Atom _ -> f
  | Not f -> not_ (simplify f)
  | And fs -> and_ (List.sort_uniq Stdlib.compare (List.map simplify fs))
  | Or fs -> or_ (List.sort_uniq Stdlib.compare (List.map simplify fs))
  | Implies (a, b) -> implies (simplify a) (simplify b)
  | Iff (a, b) -> iff (simplify a) (simplify b)
  | Exists (x, f) ->
      let f = simplify f in
      if not (VSet.mem x (free_set f)) then f else exists x f
  | Forall (x, f) ->
      let f = simplify f in
      if not (VSet.mem x (free_set f)) then f else forall x f
  | CountGe (t, x, f) -> count_ge t x (simplify f)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* precedence levels: 0 = iff, 1 = implies, 2 = or, 3 = and, 4 = unary.

   Format lays a line out only at breaks and box boundaries, so text
   that no break or box separates can go out as one token without
   moving a line break.  [pre] and [post] are such text: whatever must
   print right before and right after [f] (a [~], a parenthesis, the
   [" /\\"] of the enclosing conjunction), glued to [f]'s first and last
   token where no box boundary intervenes.  An atom with its [~] and
   the connective after it is then one [pp_print_string], and so is a
   quantifier head such as ["(exists x3."]. *)
let rec pp_prec lvl ~pre ~post ppf f =
  let glue parts = Format.pp_print_string ppf (String.concat "" parts) in
  let paren needed = if needed then (pre ^ "(", ")" ^ post) else (pre, post) in
  let quantifier head x f =
    let pre, post = paren (lvl > 0) in
    glue [ pre; head; x; "." ];
    Format.pp_print_break ppf 1 0;
    pp_prec 0 ~pre:"" ~post ppf f
  in
  match f with
  | True -> glue [ pre; "true"; post ]
  | False -> glue [ pre; "false"; post ]
  | Atom (Eq (x, y)) -> glue [ pre; x; " = "; y; post ]
  | Atom (Edge (x, y)) -> glue [ pre; "E("; x; ", "; y; ")"; post ]
  | Atom (Color (c, x)) -> glue [ pre; c; "("; x; ")"; post ]
  | Not f -> pp_prec 4 ~pre:(pre ^ "~") ~post ppf f
  | And fs ->
      let pre, post = paren (lvl > 3) in
      pp_junction " /\\" 4 ~pre ~post ppf fs
  | Or fs ->
      let pre, post = paren (lvl > 2) in
      pp_junction " \\/" 3 ~pre ~post ppf fs
  | Implies (a, b) ->
      let pre, post = paren (lvl > 1) in
      pp_prec 2 ~pre ~post:" -> " ppf a;
      pp_prec 1 ~pre:"" ~post ppf b
  | Iff (a, b) ->
      let pre, post = paren (lvl > 0) in
      pp_prec 1 ~pre ~post:" <-> " ppf a;
      pp_prec 1 ~pre:"" ~post ppf b
  | Exists (x, f) -> quantifier "exists " x f
  | Forall (x, f) -> quantifier "forall " x f
  | CountGe (t, x, f) -> quantifier ("atleast " ^ string_of_int t ^ " ") x f

(* [fs] in an hv box, [sep] and a break between them; the box keeps
   [pre] and [post] outside *)
and pp_junction sep lvl ~pre ~post ppf fs =
  let text s = if s <> "" then Format.pp_print_string ppf s in
  let rec items = function
    | [] -> ()
    | [ f ] -> pp_prec lvl ~pre:"" ~post:"" ppf f
    | f :: rest ->
        pp_prec lvl ~pre:"" ~post:sep ppf f;
        Format.pp_print_break ppf 1 0;
        items rest
  in
  text pre;
  Format.pp_open_hvbox ppf 0;
  items fs;
  Format.pp_close_box ppf ();
  text post

let pp ppf f =
  Format.pp_open_hvbox ppf 0;
  pp_prec 0 ~pre:"" ~post:"" ppf f;
  Format.pp_close_box ppf ()

let to_string f = Format.asprintf "%a" pp f

(* [output] writes the layout Format gives [pp]'s token stream, without
   the queue.  For hv boxes at offset 0 and [break 1 0], Format's rules
   come down to these:
   - A box is flat iff it fits the space left where it opens.  Format
     forces a box broken once the text queued since the box began
     reaches the space left (it checks as each text token is queued);
     a box that closes first is flat iff its size, breaks counted as
     one column, is at most the space left.  So a box exactly as wide
     as the space left breaks.
   - A box that would open past the max indent first breaks the line of
     the enclosing box, if that box is broken and the column is past
     the one where it opened.  Format judges the force above at the
     column before that break: a box with text that would open past
     the margin breaks even when the new line has room for it.
   - A break of a broken box starts a line at the column where the box
     opened, clamped at the max indent.
   A fit decision measures the box flat and stops at the space left, so
   it costs at most the margin; a flat box is then written in a second
   flat pass.

   Outside a measurement, what an [And]/[Or] node writes depends only
   on the node, its precedence level, the column where it opens and the
   box around it; margin and max indent are fixed for the call.  A Hintikka formula is a DAG whose nodes recur
   at the same column many times over, so [output] memoises a node's
   layout under exactly these four.  The first sight of a key is only
   recorded.  The second captures the layout as a rope: the text
   fragments written between shared nodes, interned, and the memo
   entries of the shared nodes inside it.  Later sights replay the rope
   through the same chunks. *)

exception Overflow

(* the box a break belongs to *)
type box = Flat | Broken of { opened : int; indent : int }

(* a captured layout: text and the layouts of the repeated nodes in it *)
type piece = Text of string | Node of piece array

type key = { node : t; lvl : int; at : int; box : box }

module Memo = Hashtbl.Make (struct
  type nonrec t = key

  let equal a b = a.node == b.node && a.lvl = b.lvl && a.at = b.at && a.box = b.box

  (* bounded: equal-looking nodes only share a chain *)
  let hash k = Hashtbl.hash (Hashtbl.hash k.node, k.lvl, k.at, k.box)
end)

type sight = Seen | Laid of { node : piece; stop : int (* column after it *) }

type layout = {
  out : string -> int -> int -> unit;
  chunk : Bytes.t;
  mutable len : int;  (* bytes of [chunk] not yet handed to [out] *)
  margin : int;
  max_indent : int;
  mutable col : int;
  mutable measuring : bool;  (* counting [width] instead of writing *)
  mutable limit : int;  (* text reaching it forces the box broken *)
  mutable room : int;  (* the space left the box's size must fit *)
  mutable width : int;
  memo : sight Memo.t;
  fragments : (string, piece) Hashtbl.t;  (* interned [Text] pieces *)
  mutable depth : int;  (* nodes being captured *)
  mutable parts : piece list;  (* the innermost one's pieces, reversed *)
  pending : Buffer.t;  (* its text since its last piece *)
}

(* at most 1 KiB per [out] call: the copies stay in the minor heap and
   the answer is never held whole *)
let chunk_size = 1024

let flush_chunk l =
  if l.len > 0 then begin
    l.out (Bytes.sub_string l.chunk 0 l.len) 0 l.len;
    l.len <- 0
  end

let rec emit l s pos n =
  let room = chunk_size - l.len in
  if n <= room then begin
    Bytes.blit_string s pos l.chunk l.len n;
    l.len <- l.len + n
  end
  else begin
    Bytes.blit_string s pos l.chunk l.len room;
    l.len <- chunk_size;
    flush_chunk l;
    emit l s (pos + room) (n - room)
  end

let write l s pos n =
  emit l s pos n;
  if l.depth > 0 then Buffer.add_substring l.pending s pos n

let push l p = if l.depth > 0 then l.parts <- p :: l.parts

(* end the pending text of the node being captured *)
let cut l =
  if Buffer.length l.pending > 0 then begin
    let s = Buffer.contents l.pending in
    Buffer.clear l.pending;
    push l
      (match Hashtbl.find_opt l.fragments s with
      | Some p -> p
      | None ->
          let p = Text s in
          Hashtbl.add l.fragments s p;
          p)
  end

let rec replay l = function
  | Text s -> emit l s 0 (String.length s)
  | Node pieces ->
      for i = 0 to Array.length pieces - 1 do
        replay l pieces.(i)
      done

(* [lay_node ()] writes [f] at [lvl] in [box]; the memo stands in for it *)
let memoised l box lvl f lay_node =
  if l.measuring then lay_node ()
  else
    let key = { node = f; lvl; at = l.col; box } in
    match Memo.find_opt l.memo key with
    | None ->
        Memo.add l.memo key Seen;
        lay_node ()
    | Some Seen ->
        cut l;
        let outer = l.parts in
        l.parts <- [];
        l.depth <- l.depth + 1;
        lay_node ();
        cut l;
        let node = Node (Array.of_list (List.rev l.parts)) in
        l.depth <- l.depth - 1;
        l.parts <- outer;
        Memo.replace l.memo key (Laid { node; stop = l.col });
        push l node
    | Some (Laid { node; stop }) ->
        cut l;
        push l node;
        replay l node;
        l.col <- stop

let text l s =
  let n = String.length s in
  if l.measuring then begin
    l.width <- l.width + n;
    if l.width >= l.limit then raise_notrace Overflow
  end
  else begin
    write l s 0 n;
    l.col <- l.col + n
  end

let paren l needed s = if needed then text l s

let blanks = String.make 80 ' '

let newline l indent =
  write l "\n" 0 1;
  let rec pad n =
    if n > 0 then begin
      let k = Int.min n (String.length blanks) in
      write l blanks 0 k;
      pad (n - k)
    end
  in
  pad indent;
  l.col <- indent

let break l = function
  | Broken { indent; _ } -> newline l indent
  | Flat when l.measuring ->
      l.width <- l.width + 1;
      if l.width > l.room then raise_notrace Overflow
  | Flat ->
      write l " " 0 1;
      l.col <- l.col + 1

(* [content box] lays out a box's content with [box] for its breaks *)
let open_box l enclosing content =
  match enclosing with
  | Flat -> content Flat
  | Broken { opened; indent } ->
      l.limit <- l.margin - l.col;
      if l.col > l.max_indent && l.col > opened then newline l indent;
      l.room <- l.margin - l.col;
      l.measuring <- true;
      l.width <- 0;
      let fits =
        match content Flat with
        | () -> l.width <= l.room
        | exception Overflow -> false
      in
      l.measuring <- false;
      if fits then content Flat
      else
        content (Broken { opened = l.col; indent = Int.min l.max_indent l.col })

(* [pp_prec] with [pre] and [post] written in place *)
let rec lay l box lvl f =
  let quantifier head x f =
    paren l (lvl > 0) "(";
    text l head;
    text l x;
    text l ".";
    break l box;
    lay l box 0 f;
    paren l (lvl > 0) ")"
  in
  match f with
  | True -> text l "true"
  | False -> text l "false"
  | Atom (Eq (x, y)) ->
      text l x;
      text l " = ";
      text l y
  | Atom (Edge (x, y)) ->
      text l "E(";
      text l x;
      text l ", ";
      text l y;
      text l ")"
  | Atom (Color (c, x)) ->
      text l c;
      text l "(";
      text l x;
      text l ")"
  | Not f ->
      text l "~";
      lay l box 4 f
  | And fs ->
      memoised l box lvl f (fun () ->
          paren l (lvl > 3) "(";
          lay_junction l box " /\\" 4 fs;
          paren l (lvl > 3) ")")
  | Or fs ->
      memoised l box lvl f (fun () ->
          paren l (lvl > 2) "(";
          lay_junction l box " \\/" 3 fs;
          paren l (lvl > 2) ")")
  | Implies (a, b) ->
      paren l (lvl > 1) "(";
      lay l box 2 a;
      text l " -> ";
      lay l box 1 b;
      paren l (lvl > 1) ")"
  | Iff (a, b) ->
      paren l (lvl > 0) "(";
      lay l box 1 a;
      text l " <-> ";
      lay l box 1 b;
      paren l (lvl > 0) ")"
  | Exists (x, f) -> quantifier "exists " x f
  | Forall (x, f) -> quantifier "forall " x f
  | CountGe (t, x, f) ->
      quantifier ("atleast " ^ string_of_int t ^ " ") x f

and lay_junction l box sep lvl fs =
  open_box l box (fun inner ->
      let rec items = function
        | [] -> ()
        | [ f ] -> lay l inner lvl f
        | f :: rest ->
            lay l inner lvl f;
            text l sep;
            break l inner;
            items rest
      in
      items fs)

let output ~col ppf f =
  Format.pp_print_flush ppf ();
  let l =
    {
      out = (Format.pp_get_formatter_out_functions ppf ()).out_string;
      chunk = Bytes.create chunk_size;
      len = 0;
      margin = Format.pp_get_margin ppf ();
      max_indent = Format.pp_get_max_indent ppf ();
      col;
      measuring = false;
      limit = 0;
      room = 0;
      width = 0;
      memo = Memo.create 256;
      fragments = Hashtbl.create 256;
      depth = 0;
      parts = [];
      pending = Buffer.create 256;
    }
  in
  (* [pp]'s own box, opened where its enclosing box opened: no max
     indent break before it *)
  open_box l (Broken { opened = col; indent = col }) (fun box -> lay l box 0 f);
  flush_chunk l
