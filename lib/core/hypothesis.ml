open Cgraph
module Types = Modelcheck.Types

type t = {
  graph : Graph.t;
  k : int;
  ell : int;
  qrank : int;
  params : Graph.Tuple.t;
  predictor : Graph.Tuple.t -> bool;
  formula : Fo.Formula.t Lazy.t;
  signature : string Lazy.t;
}

let xvars k = List.init k (fun i -> Printf.sprintf "x%d" (i + 1))
let yvars l = List.init l (fun i -> Printf.sprintf "y%d" (i + 1))

(* The (x̄; ȳ) split of the paper: Hintikka formulas of (k+l)-tuples are
   built over these names directly. *)
let xyvars ~k ~ell = xvars k @ yvars ell

(* Rename the Hintikka variables x_{k+1}..x_{k+l} to y_1..y_l, for the
   local types, whose relativisation is written over x1..x{k+l}. *)
let to_xy ~k ~ell f =
  let assoc =
    List.init ell (fun i ->
        (Printf.sprintf "x%d" (k + i + 1), Printf.sprintf "y%d" (i + 1)))
  in
  Fo.Formula.substitute assoc f

let check_tuple g v =
  Array.iter
    (fun x -> if x < 0 || x >= Graph.order g then raise (Graph.Invalid_vertex x))
    v

let of_formula g ~k ~formula ~params =
  check_tuple g params;
  let ell = Array.length params in
  Analysis.Precondition.require ~what:"Hypothesis.of_formula"
    (Analysis.Precondition.budgets ~ell ~k ()
    @ Analysis.Precondition.hypothesis_formula ~k ~ell formula);
  let vars = xyvars ~k ~ell in
  (* stage once: every sample tuple then runs the compiled closure tree
     instead of re-walking the AST *)
  let compiled = Modelcheck.Compile.compile g ~vars formula in
  {
    graph = g;
    k;
    ell;
    qrank = Fo.Formula.quantifier_rank formula;
    params;
    predictor =
      (fun v ->
        Modelcheck.Compile.holds_tuple compiled (Graph.Tuple.append v params));
    formula = lazy formula;
    signature =
      lazy
        (Printf.sprintf "F|%s|%s" (Fo.Formula.to_string formula)
           (String.concat "," (Array.to_list (Array.map string_of_int params))));
  }

module TySet = Set.Make (Int)

(* "the type [typ w̄] gives v̄ (the type of v̄·w̄) is one of [types]":
   [tag] names the kind of type in the signature, and
   [formula ~ell types] is the witness *)
let of_type_set g ~k ~q ~qrank ~tag ~typ ~formula ~types ~params =
  check_tuple g params;
  let ell = Array.length params in
  let members = TySet.of_list (List.map Types.hash types) in
  let typ = typ params in
  (* the ids identify the set; the formula orders it structurally *)
  let by_id a b = Int.compare (Types.hash a) (Types.hash b) in
  let types = List.sort_uniq by_id types in
  {
    graph = g;
    k;
    ell;
    qrank;
    params;
    predictor = (fun v -> TySet.mem (Types.hash (typ v)) members);
    formula = lazy (formula ~ell types);
    signature =
      lazy
        (Printf.sprintf "%s|q=%d|t=%s|w=%s" tag q
           (String.concat ","
              (List.map (fun t -> string_of_int (Types.hash t)) types))
           (String.concat ","
              (Array.to_list (Array.map string_of_int params))));
  }

(* A cap-1 hypothesis is the plain one, so it carries the plain tag;
   above cap 1 the tag names the cap *)
let of_types ?(cap = 1) g ~k ~q ~types ~params =
  let ctx = Types.make_ctx ~cap g in
  of_type_set g ~k ~q ~qrank:q
    ~tag:(if cap = 1 then "T" else Printf.sprintf "C%d" cap)
    ~typ:(fun w v -> Types.tp ctx ~q (Graph.Tuple.append v w))
    ~formula:(fun ~ell types ->
      Modelcheck.Hintikka.of_types ~vars:(xyvars ~k ~ell)
        ~colors:(Graph.color_names g) types)
    ~types ~params

let of_local_types ?(cap = 1) g ~k ~q ~r ~types ~params =
  let ctx = Types.make_ctx ~cap g in
  of_type_set g ~k ~q
    ~qrank:(q + Fo.Gaifman.rank_overhead r + 1)
    ~tag:
      (if cap = 1 then Printf.sprintf "L%d" r
       else Printf.sprintf "CL%d_%d" cap r)
    ~typ:(fun w -> Types.with_local_candidate ctx ~q ~r w Fun.id)
    ~formula:(fun ~ell types ->
      let colors = Graph.color_names g in
      Fo.Formula.or_
        (List.map
           (fun ty ->
             to_xy ~k ~ell
               (Fo.Localize.relativize ~r
                  ~around:(Modelcheck.Hintikka.variables (k + ell))
                  (Modelcheck.Hintikka.of_type ~colors ty)))
           (List.sort (Types.order ()) types)))
    ~types ~params

let constantly g ~k b =
  {
    graph = g;
    k;
    ell = 0;
    qrank = 0;
    params = [||];
    predictor = (fun _ -> b);
    formula = lazy (if b then Fo.Formula.tru else Fo.Formula.fls);
    signature = lazy (if b then "C|1" else "C|0");
  }

(* Combine two hypotheses: concatenated parameters, second operand's
   parameter variables shifted past the first's. *)
let combine op_name op_formula op_pred a b =
  if a.k <> b.k then
    invalid_arg (Printf.sprintf "Hypothesis.%s: arity mismatch" op_name);
  let shift =
    List.init b.ell (fun i ->
        (Printf.sprintf "y%d" (i + 1), Printf.sprintf "y%d" (a.ell + i + 1)))
  in
  {
    graph = a.graph;
    k = a.k;
    ell = a.ell + b.ell;
    qrank = max a.qrank b.qrank;
    params = Array.append a.params b.params;
    predictor = (fun v -> op_pred (a.predictor v) (b.predictor v));
    formula =
      lazy
        (op_formula (Lazy.force a.formula)
           (Fo.Formula.substitute shift (Lazy.force b.formula)));
    signature =
      lazy
        (Printf.sprintf "%s(%s;%s)" op_name (Lazy.force a.signature)
           (Lazy.force b.signature));
  }

let conj a b =
  combine "conj" (fun f g -> Fo.Formula.and_ [ f; g ]) ( && ) a b

let disj a b =
  combine "disj" (fun f g -> Fo.Formula.or_ [ f; g ]) ( || ) a b

let negate h =
  {
    h with
    predictor = (fun v -> not (h.predictor v));
    formula = lazy (Fo.Formula.not_ (Lazy.force h.formula));
    signature = lazy ("not(" ^ Lazy.force h.signature ^ ")");
  }

let predict h v =
  if Array.length v <> h.k then
    invalid_arg "Hypothesis.predict: tuple arity mismatch";
  h.predictor v

let formula h = Lazy.force h.formula
let params h = h.params
let k h = h.k
let ell h = h.ell
let quantifier_rank h = h.qrank
let training_error h lam = Sample.error_of h.predictor lam
let signature h = Lazy.force h.signature

(* The layout of [@[<v>phi(..) =@;<1 2>@[%a@]@,w = %a@]] over
   [Fo.Formula.pp], the formula written by [Fo.Formula.output]: the
   vbox's breaks go out as Format would make them.  Format keeps the
   max indent at 2 or more, so the formula's line starts at column 2. *)
let pp ppf h =
  Format.pp_print_flush ppf ();
  let o = Format.pp_get_formatter_out_functions ppf () in
  let say s = o.out_string s 0 (String.length s) in
  say (Printf.sprintf "phi(x1..x%d; y1..y%d) =" h.k h.ell);
  o.out_newline ();
  o.out_indent 2;
  Fo.Formula.output ~col:2 ppf (formula h);
  o.out_newline ();
  say (Format.asprintf "w = %a" Graph.Tuple.pp h.params)
