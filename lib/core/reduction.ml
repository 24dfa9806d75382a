open Cgraph

type oracle =
  ?budget:Guard.Budget.t ->
  Graph.t -> Sample.t -> ell:int -> q:int -> eps:float -> Hypothesis.t

let oracle_calls_metric = Obs.Metric.counter "reduction.oracle_calls"
let nodes_metric = Obs.Metric.counter "reduction.recursion_nodes"

let exact_oracle ?budget g lam ~ell ~q ~eps:_ =
  (Erm_brute.solve ?budget g ~k:1 ~ell ~q lam).Erm_brute.hypothesis

type stats = {
  oracle_calls : int;
  recursion_nodes : int;
  representative_sets : int list;
  colors_observed : int;
}

(* Substitute the witness x := t into psi(x), turning it into a sentence
   over the expansion with colours p (= {t}) and qc (= N(t)).  Tracks
   shadowing of x by inner binders.  [t_colors] are the colours holding at
   t, to resolve colour atoms on x. *)
let rec subst_witness ~x ~p ~qc ~t_colors (f : Fo.Formula.t) : Fo.Formula.t =
  let recur = subst_witness ~x ~p ~qc ~t_colors in
  match f with
  | True | False -> f
  | Atom (Eq (a, b)) ->
      if a = x && b = x then Fo.Formula.tru
      else if a = x then Fo.Formula.color p b
      else if b = x then Fo.Formula.color p a
      else f
  | Atom (Edge (a, b)) ->
      if a = x && b = x then Fo.Formula.fls (* E is irreflexive *)
      else if a = x then Fo.Formula.color qc b
      else if b = x then Fo.Formula.color qc a
      else f
  | Atom (Color (c, a)) ->
      if a = x then if List.mem c t_colors then Fo.Formula.tru else Fo.Formula.fls
      else f
  | Not g -> Fo.Formula.not_ (recur g)
  | And fs -> Fo.Formula.and_ (List.map recur fs)
  | Or fs -> Fo.Formula.or_ (List.map recur fs)
  | Implies (a, b) -> Fo.Formula.implies (recur a) (recur b)
  | Iff (a, b) -> Fo.Formula.iff (recur a) (recur b)
  | Exists (y, g) -> if y = x then f else Fo.Formula.exists y (recur g)
  | Forall (y, g) -> if y = x then f else Fo.Formula.forall y (recur g)
  | CountGe (t, y, g) ->
      if y = x then f else Fo.Formula.count_ge t y (recur g)

(* ------------------------------------------------------------------ *)
(* The general-L construction: compute a separating formula gamma(x)
   even when the oracle is allowed parameters (Lemma 7, second part).   *)
(* ------------------------------------------------------------------ *)

(* The general-L branch returns the separating classifier semantically, as
   a set of canonical local types together with the localisation
   parameters (q̂, r').  This is exactly the paper's φ''': an r'-local
   formula free of the parameter colours.  Materialising it would be a
   disjunction of r'-relativised Hintikka formulas; for the reduction we
   need (a) a canonical identity usable as a Ramsey colour and (b) its
   value on vertices of G — both are available from the type set
   directly. *)
type gamma = {
  g_sig : string;  (** canonical identity (Ramsey colour) *)
  g_holds : Graph.vertex -> bool;  (** evaluation on the original graph *)
}

let gamma_general ?(counter = ref 0) ?budget ~oracle ~oracle_ell ~radius ~q g u
    v () =
  let call_counter = counter in
  let ell = max 1 oracle_ell in
  let copies = 2 * ell in
  let ghat, inj = Ops.copies g copies in
  let lam =
    List.concat
      (List.init copies (fun i ->
           [ ([| inj i u |], false); ([| inj i v |], true) ]))
  in
  (* quantifier-rank allowance for the localised discriminator *)
  let q_star = q + Fo.Gaifman.rank_overhead radius + 1 in
  incr call_counter;
  let h = oracle ?budget ghat lam ~ell ~q:q_star ~eps:(1.0 /. 8.0) in
  let params = Hypothesis.params h in
  let n = Graph.order g in
  let copy_of w = w / n in
  (* an index that is neither covered by a parameter nor misclassified *)
  let good_index =
    let rec find i =
      if i >= copies then None
      else begin
        let covered = Array.exists (fun w -> copy_of w = i) params in
        let wrong =
          Hypothesis.predict h [| inj i u |]
          || not (Hypothesis.predict h [| inj i v |])
        in
        if (not covered) && not wrong then Some i else find (i + 1)
      end
    in
    find 0
  in
  match good_index with
  | None ->
      (* the oracle beat the counting bound only if the types were equal;
         any constant colour is fine then *)
      { g_sig = "gamma:none"; g_holds = (fun _ -> false) }
  | Some _ ->
      (* φ'(x) := h(x) as a unary predicate on Ĝ (the parameters are part
         of h); S = its satisfying set. *)
      let s =
        Array.init (Graph.order ghat) (fun a -> Hypothesis.predict h [| a |])
      in
      (* constructive Gaifman on the instance: find (q̂, r') such that on
         every vertex FAR from all parameters, membership in S is a union
         of local (q̂, r')-type classes.  Far vertices are the only ones
         the claim needs (u°, v° are far, and every vertex of the
         parameterless G is far). *)
      let dist_to_params =
        Bfs.distances_multi ?budget ghat (Array.to_list params)
      in
      let ctx_hat = Modelcheck.Types.make_ctx ?budget ghat in
      let max_r = max radius (Invariants.diameter ?budget g + 1) in
      let rec localise q_hat r' =
        let far a = dist_to_params.(a) > r' in
        let pos_types = Hashtbl.create 16 and neg_types = Hashtbl.create 16 in
        List.iter
          (fun a ->
            if far a then begin
              let t = Modelcheck.Types.ltp ctx_hat ~q:q_hat ~r:r' [| a |] in
              if s.(a) then Hashtbl.replace pos_types t ()
              else Hashtbl.replace neg_types t ()
            end)
          (Graph.vertices ghat);
        let clash =
          Hashtbl.fold
            (fun t () acc -> acc || Hashtbl.mem neg_types t)
            pos_types false
        in
        if not clash then (q_hat, r', pos_types)
        else if r' < max_r then localise q_hat (min max_r (2 * r'))
        else if q_hat < q_star + ell + 1 then localise (q_hat + 1) radius
        else
          failwith
            "Reduction.gamma_general: could not localise the separator"
      in
      let q_hat, r', pos_types = localise q_star (max 1 radius) in
      let theta =
        Hashtbl.fold (fun t () acc -> Modelcheck.Types.hash t :: acc) pos_types []
        |> List.sort compare
      in
      let ctx_g = Modelcheck.Types.make_ctx g in
      {
        g_sig =
          Printf.sprintf "gamma:q=%d;r=%d;%s" q_hat r'
            (String.concat "," (List.map string_of_int theta));
        g_holds =
          (fun a ->
            let t = Modelcheck.Types.ltp ctx_g ~q:q_hat ~r:r' [| a |] in
            List.mem (Modelcheck.Types.hash t) theta);
      }

(* ------------------------------------------------------------------ *)
(* The reduction                                                       *)
(* ------------------------------------------------------------------ *)

let model_check ?(general_l = false) ?(oracle_ell = 1) ?locality_radius
    ?budget ~oracle g phi =
  Analysis.Precondition.require ~what:"Reduction.model_check"
    (Analysis.Precondition.sentence phi);
  let oracle_calls = ref 0 in
  let nodes = ref 0 in
  let rep_sets = ref [] in
  let max_colors = ref 0 in
  let fresh_counter = ref 0 in
  let rec decide g (phi : Fo.Formula.t) =
    Guard.tick budget Guard.Solver_loop;
    incr nodes;
    match phi with
    | True -> true
    | False -> false
    | Atom _ -> assert false (* sentences have no free variables *)
    | Not f -> not (decide g f)
    | And fs -> List.for_all (decide g) fs
    | Or fs -> List.exists (decide g) fs
    | Implies (a, b) -> (not (decide g a)) || decide g b
    | Iff (a, b) -> decide g a = decide g b
    | Forall (x, body) ->
        not (decide g (Fo.Formula.Exists (x, Fo.Formula.not_ body)))
    | CountGe _ ->
        invalid_arg
          "Reduction.model_check: counting quantifiers are outside the \
           plain-FO reduction (Lemma 7); use Modelcheck.Eval directly"
    | Exists (x, body) -> exists_case g x body
  and exists_case g x body =
    let n = Graph.order g in
    if n = 0 then false
    else begin
      let q = Fo.Formula.quantifier_rank body in
      let radius =
        match locality_radius with
        | Some r -> r
        | None -> ( try Fo.Gaifman.radius q with Invalid_argument _ -> 8)
      in
      (* gamma colouring of pairs, via oracle calls *)
      let gamma_tbl : (int * int, string) Hashtbl.t = Hashtbl.create 64 in
      let gamma u v =
        let u, v = (min u v, max u v) in
        match Hashtbl.find_opt gamma_tbl (u, v) with
        | Some s -> s
        | None ->
            let s =
              if general_l then
                (gamma_general ~counter:oracle_calls ?budget ~oracle
                   ~oracle_ell ~radius ~q g u v ())
                  .g_sig
              else begin
                incr oracle_calls;
                let h =
                  oracle ?budget g
                    [ ([| u |], false); ([| v |], true) ]
                    ~ell:0 ~q ~eps:0.25
                in
                Hypothesis.signature h
              end
            in
            Hashtbl.replace gamma_tbl (u, v) s;
            s
      in
      let t_set =
        Ramsey.eliminate_until_ramsey_free ~color:gamma ~equal:String.equal
          (Graph.vertices g)
      in
      rep_sets := List.length t_set :: !rep_sets;
      let distinct_colors =
        Hashtbl.fold (fun _ s acc -> if List.mem s acc then acc else s :: acc)
          gamma_tbl []
        |> List.length
      in
      max_colors := max !max_colors distinct_colors;
      List.exists
        (fun t ->
          incr fresh_counter;
          let p = Printf.sprintf "_Pt%d" !fresh_counter in
          let qc = Printf.sprintf "_Qt%d" !fresh_counter in
          let g_t =
            Graph.with_colors g
              [ (p, [ t ]); (qc, Array.to_list (Graph.neighbors g t)) ]
          in
          let t_colors = Graph.colors_of g t in
          let psi_t = subst_witness ~x ~p ~qc ~t_colors body in
          decide g_t psi_t)
        t_set
    end
  in
  let result =
    Obs.Span.with_ "reduction.model_check" (fun () -> decide g phi)
  in
  Obs.Metric.add oracle_calls_metric !oracle_calls;
  Obs.Metric.add nodes_metric !nodes;
  ( result,
    {
      oracle_calls = !oracle_calls;
      recursion_nodes = !nodes;
      representative_sets = List.rev !rep_sets;
      colors_observed = !max_colors;
    } )

let model_check_budgeted ?budget ?(precheck = true) ?general_l ?oracle_ell
    ?locality_radius ~oracle g phi =
  match
    Admission.precheck ?budget ~enabled:precheck
      (lazy (Admission.Model_check (g, phi)))
  with
  | Some rejected -> rejected
  | None ->
      (* A half-finished decision procedure has no meaningful partial
         verdict, so exhaustion salvages nothing; the caller still gets
         the reason and the resources spent. *)
      Guard.run ?budget
        ~salvage:(fun () -> None)
        (fun () ->
          model_check ?general_l ?oracle_ell ?locality_radius ?budget ~oracle
            g phi)
