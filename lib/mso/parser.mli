(** Concrete syntax for MSO formulas over words and over trees.

    Grammar (precedences as in {!Fo.Parser}):
    {v
      formula := iff | impl | or | and | unary ...
      iff     := impl '<->' impl          (sugar, on both structures)
      unary   := ('~'|'not') unary | quantified | primary
      quantified := ('exists' | 'forall') ident+ '.' formula        (positions)
                  | ('existsset' | 'forallset') ident+ '.' formula  (sets)
      atom    := ident '=' ident           (position equality)
               | ident 'in' ident          (set membership)
               | letter '(' ident ')'      (letter atom, letter from the alphabet)
               | word-atom | tree-atom
      word-atom := ident '<' ident         (position order)
                 | 'succ' '(' ident ',' ident ')'
      tree-atom := 'child1' '(' ident ',' ident ')'   (first child)
                 | 'child2' '(' ident ',' ident ')'   (second child)
      'true' / 'false' and parentheses as usual.
    v}

    [structure] (default [`Words]) decides which atoms parse: word atoms
    on [`Words], tree atoms on [`Trees].  Only that structure's atom
    keywords are reserved, so [child1] may name a letter of a word and
    [succ] a label of a tree.

    Letters are resolved against the [letters] argument (e.g.
    [~letters:["a"; "b"]] makes [a(x)] mean "position [x] carries letter
    0").  Keywords ([exists], [in], ...) cannot be letter names. *)

exception Parse_error of string

val parse :
  ?structure:[ `Words | `Trees ] -> letters:string list -> string -> Formula.t
(** @raise Parse_error on malformed input. *)

val parse_opt :
  ?structure:[ `Words | `Trees ] -> letters:string list -> string ->
  Formula.t option
