open Cgraph
module Types = Modelcheck.Types

let log_src = Logs.Src.create "folearn.erm_nd" ~doc:"Theorem 13 learner"

module Log = (val Logs.src_log log_src : Logs.LOG)

let hypotheses_enumerated = Obs.Metric.counter "erm.hypotheses_enumerated"
let consistency_checks = Obs.Metric.counter "erm.consistency_checks"
let rounds_h = Obs.Metric.histogram "erm_nd.round_arena_order"

type config = {
  k : int;
  ell_star : int;
  q_star : int;
  epsilon : float;
  radius : int option;
  cls : Splitter.Nowhere_dense.t;
  branch_width : int;
  max_rounds : int option;
  counting : int option;
}

let default_config ?(epsilon = 0.1) ?radius ?(branch_width = 8) ?counting ~k
    ~ell_star ~q_star cls =
  {
    k;
    ell_star;
    q_star;
    epsilon;
    radius;
    cls;
    branch_width;
    max_rounds = None;
    counting;
  }

(* The local types of a graph's tuples, in a context of their own: plain
   FO local types, or with [cap] (the [counting] of the config) the
   counting local types of the FOC variant suggested by the paper's
   conclusion. *)
let local_types ?budget ?cap ~q ~r g =
  Types.ltp (Types.make_ctx ?budget ?cap g) ~q ~r

type round_info = {
  round : int;
  arena_order : int;
  conflicts : int;
  critical : int;
  centre_count : int;
  vitali_radius : int;
  answers : Graph.vertex list;
}

type report = {
  hypothesis : Hypothesis.t;
  err : float;
  rounds : round_info list;
  r_used : int;
  s_budget : int;
  ell_used : int;
  q_used : int;
  branches_explored : int;
}

(* ------------------------------------------------------------------ *)
(* Shared pieces                                                       *)
(* ------------------------------------------------------------------ *)

(* One stage of the round sequence G^0, G^1, ...: the current graph, the
   partial map back to the original graph (None = synthetic isolated
   type-representative), and the surviving examples (tuple in stage
   coordinates, label, index into the original sequence). *)
type stage = {
  sgraph : Graph.t;
  orig : Graph.vertex option array;
  sexamples : (Graph.Tuple.t * bool * int) list;
}

(* Conflict analysis against the ORIGINAL graph: an example is critical
   iff its class under [typ v̄ = ltp_{q,r}(G, v̄·w̄)] — with w̄ the
   parameters chosen so far — still contains both labels.  This is the
   paper's resolution criterion ("to resolve a conflict we need
   parameters w̄ such that ltp(G, v̄⁺w̄) ≠ ltp(G, v̄⁻w̄)"); checking it on
   the original graph rather than on the projected stage keeps the
   round loop honest: the fresh colours of the Lemma 16 projection
   refine stage-local types beyond what the final hypothesis can
   express. *)
let conflict_analysis typ lam =
  let classes = Hashtbl.create 64 in
  List.iteri
    (fun idx (v, b) ->
      let t = typ v in
      match Hashtbl.find_opt classes t with
      | Some cell -> cell := (b, idx) :: !cell
      | None -> Hashtbl.replace classes t (ref [ (b, idx) ]))
    lam;
  let conflicts = ref 0 in
  let critical_idx = ref [] in
  Hashtbl.iter
    (fun _ cell ->
      let members = !cell in
      let has_pos = List.exists (fun (b, _) -> b) members in
      let has_neg = List.exists (fun (b, _) -> not b) members in
      if has_pos && has_neg then begin
        incr conflicts;
        critical_idx := List.map snd members @ !critical_idx
      end)
    classes;
  (!conflicts, !critical_idx)

let conflicts g ~q ~r lam =
  let ctx = Types.make_ctx g in
  let stage =
    {
      sgraph = g;
      orig = Array.init (Graph.order g) (fun v -> Some v);
      sexamples = List.mapi (fun i (v, b) -> (v, b, i)) lam;
    }
  in
  let classes : (Types.ty, (Graph.Tuple.t list * Graph.Tuple.t list)) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (v, b, _) ->
      let t = Types.ltp ctx ~q ~r v in
      let pos, neg =
        match Hashtbl.find_opt classes t with Some c -> c | None -> ([], [])
      in
      Hashtbl.replace classes t (if b then (v :: pos, neg) else (pos, v :: neg)))
    stage.sexamples;
  Hashtbl.fold
    (fun _ (pos, neg) acc ->
      match (pos, neg) with p :: _, n :: _ -> (p, n) :: acc | _ -> acc)
    classes []

(* Lemma 14 greedy centre selection: vertices pairwise more than 4r+2
   apart, chosen by decreasing attendance |Γ(x)| (the number of critical
   tuples whose (2r+1)-neighbourhood contains x), at most [cap] of them,
   restricted to [allowed] vertices.  Returns the centres (in selection
   order) and the attendance table. *)
let greedy_centres ?budget g ~r ~cap ~allowed ~critical =
  let attend : int list array = Array.make (Graph.order g) [] in
  List.iteri
    (fun ci v ->
      List.iter
        (fun u -> attend.(u) <- ci :: attend.(u))
        (Bfs.ball_tuple ?budget g ~r:((2 * r) + 1) v))
    critical;
  let order =
    List.filter (fun u -> allowed u && attend.(u) <> []) (Graph.vertices g)
    |> List.sort (fun a b ->
           compare (List.length attend.(b)) (List.length attend.(a)))
  in
  let forbidden = Array.make (Graph.order g) false in
  let xs = ref [] and count = ref 0 in
  List.iter
    (fun u ->
      if (not forbidden.(u)) && !count < cap then begin
        xs := u :: !xs;
        incr count;
        List.iter
          (fun v -> forbidden.(v) <- true)
          (Bfs.ball ?budget g ~r:((4 * r) + 2) [ u ])
      end)
    order;
  (List.rev !xs, attend)

let centre_set g ~r ~cap ~critical =
  fst (greedy_centres g ~r ~cap ~allowed:(fun _ -> true) ~critical)

(* All size-(1..cap) subsets of a list (small inputs only). *)
let rec subsets_up_to cap = function
  | [] -> [ [] ]
  | x :: rest ->
      let without = subsets_up_to cap rest in
      let with_x =
        List.filter_map
          (fun s -> if List.length s < cap then Some (x :: s) else None)
          without
      in
      without @ with_x

(* ------------------------------------------------------------------ *)
(* The solver                                                          *)
(* ------------------------------------------------------------------ *)

(* Builds the search closure.  Returns [run] (the full nondeterministic
   search followed by report assembly) and [salvage] (assemble a report
   from the best leaf seen so far, or [None] if no leaf was reached) so
   [solve_budgeted] can recover a partial answer after a budget trip. *)
let solve_inner ?(ckpt = Resil.Ctl.none) ?budget cfg g lam =
  if cfg.epsilon <= 0.0 then invalid_arg "Erm_nd.solve: epsilon must be > 0";
  Analysis.Precondition.require ~what:"Erm_nd.solve"
    (Analysis.Precondition.budgets ~ell:cfg.ell_star ~q:cfg.q_star
       ?tmax:cfg.counting ?radius:cfg.radius ~k:cfg.k ()
    @ Analysis.Precondition.sample_arity ~k:cfg.k (List.map fst lam));
  let k = cfg.k and ell_star = max 1 cfg.ell_star and q = cfg.q_star in
  let r =
    match cfg.radius with Some r -> r | None -> Fo.Gaifman.radius cfg.q_star
  in
  let base = (k + 2) * ((2 * r) + 1) in
  let rec pow3 i = if i <= 0 then 1 else 3 * pow3 (i - 1) in
  let big_r = pow3 (ell_star - 1) * base in
  (* An empirical [s_bound] plays Splitter games: forced first thing in
     [run], so its balls are charged to [budget] inside the budgeted run *)
  let s =
    lazy
      (match cfg.max_rounds with
      | Some s -> s
      | None ->
          min 8 (cfg.cls.Splitter.Nowhere_dense.s_bound ?budget g ~r:big_r))
  in
  let m = Sample.size lam in
  let n = Graph.order g in
  let x_cap =
    lazy
      (if m = 0 then 0
       else
         min n
           (int_of_float
              (ceil
                 (float_of_int (k * ell_star * Lazy.force s) /. cfg.epsilon))))
  in
  let local_types = local_types ?budget ?cap:cfg.counting ~q ~r in
  (* the examples are typed once, at the first conflict analysis; the
     majority vote per local-type class is the exact optimum over
     type-set hypotheses for fixed parameters *)
  let ctx_orig = Types.make_ctx ?budget ?cap:cfg.counting g in
  let examples =
    lazy (Types.local_examples ctx_orig ~q ~r (List.map fst lam))
  in
  let with_params params f =
    Types.with_local_candidate ctx_orig ~examples:(Lazy.force examples) ~q
      ~r params f
  in
  let majority params =
    with_params params (fun typ -> Sweep.majority typ lam)
  in
  let branches = ref 0 in
  let node_budget = ref 1024 in
  (* best = (errs, params, rounds, leaf index).  The tree walk itself
     is deterministic and independent of leaf evaluations, so leaves
     are numbered in traversal order: a resumed run replays the walk,
     skips the majority vote for leaves below the snapshot cursor
     (except the recorded best leaf, re-evaluated to recover its
     hypothesis), and lands on the same first-best leaf. *)
  let best = ref None in
  let leaf_idx = ref 0 in
  let consider_leaf answers_rev rounds_rev =
    Guard.tick budget Guard.Solver_loop;
    Resil.Ctl.visit ckpt;
    incr branches;
    Obs.Metric.incr hypotheses_enumerated;
    Obs.Metric.incr consistency_checks;
    let i = !leaf_idx in
    incr leaf_idx;
    if Resil.Ctl.should_eval ckpt i then begin
      let params =
        Array.of_list (List.concat (List.rev answers_rev))
      in
      let _, errs = majority params in
      (match !best with
      | Some (best_errs, _, _, _) when best_errs <= errs -> ()
      | _ -> best := Some (errs, params, List.rev rounds_rev, i))
    end;
    Resil.Ctl.chunk_done ckpt ~lo:i ~hi:(i + 1)
      ~best:
        (match !best with Some (e, _, _, bi) -> Some (bi, e) | None -> None)
  in
  let module ISet = Set.Make (Int) in
  let rec explore stage round answers_rev rounds_rev =
    Guard.tick budget Guard.Solver_loop;
    let params_so_far =
      Array.of_list (List.concat (List.rev answers_rev))
    in
    let n_conflicts, critical_idx =
      with_params params_so_far (fun typ -> conflict_analysis typ lam)
    in
    let crit_set = ISet.of_list critical_idx in
    let critical =
      List.filter (fun (_, _, idx) -> ISet.mem idx crit_set) stage.sexamples
    in
    Log.debug (fun m ->
        m "round %d: %d conflict classes, %d critical examples, %d params"
          round n_conflicts (List.length critical)
          (Array.length params_so_far));
    if n_conflicts = 0 || round >= Lazy.force s || critical = [] then
      consider_leaf answers_rev rounds_rev
    else begin
      (* Lemma 14: greedy centres over the critical tuples of this stage,
         real (non-synthetic) vertices only. *)
      let crit_count = List.length critical in
      let xs, attend =
        greedy_centres ?budget stage.sgraph ~r ~cap:(Lazy.force x_cap)
          ~allowed:(fun u -> stage.orig.(u) <> None)
          ~critical:(List.map (fun (v, _, _) -> v) critical)
      in
      if xs = [] then consider_leaf answers_rev rounds_rev
      else begin
        (* Candidate guesses Y ⊆ X, |Y| <= ℓ*, scored by how many critical
           examples their neighbourhoods attend. *)
        let module IS = Set.Make (Int) in
        let coverage y_set =
          List.fold_left
            (fun acc y -> IS.union acc (IS.of_list attend.(y)))
            IS.empty y_set
          |> IS.cardinal
        in
        let candidates =
          let all =
            if List.length xs <= 10 then
              List.filter (fun s -> s <> []) (subsets_up_to ell_star xs)
            else begin
              (* greedy chain: best singleton, best pair extending it, ... *)
              let singletons = List.map (fun x -> [ x ]) xs in
              let rec grow chain acc =
                if List.length chain >= ell_star then acc
                else begin
                  let extensions =
                    List.filter_map
                      (fun x ->
                        if List.mem x chain then None else Some (x :: chain))
                      xs
                  in
                  match
                    List.sort
                      (fun a b -> compare (coverage b) (coverage a))
                      extensions
                  with
                  | [] -> acc
                  | bst :: _ -> grow bst (bst :: acc)
                end
              in
              let top = match xs with x :: _ -> [ x ] | [] -> [] in
              singletons @ grow top []
            end
          in
          List.sort (fun a b -> compare (coverage b) (coverage a)) all
          |> List.filteri (fun i _ -> i < cfg.branch_width)
        in
        (* Stopping now is always allowed — keeps the search sound even if
           every guess makes things worse. *)
        consider_leaf answers_rev rounds_rev;
        List.iter
          (fun y ->
            if !node_budget > 0 then begin
              decr node_budget;
              match step stage ~round ~y ~critical ~crit_count ~n_conflicts with
              | None -> ()
              | Some (info, answers, stage') ->
                  explore stage' (round + 1) (answers :: answers_rev)
                    (info :: rounds_rev)
            end)
          candidates
      end
    end
  (* One round of the algorithm for a fixed guess Y: Vitali cover,
     Splitter answers, Lemma 16 projection. *)
  and step stage ~round ~y ~critical ~crit_count:_ ~n_conflicts =
    let sg = stage.sgraph in
    if Obs.Sink.enabled () then
      Obs.Metric.observe rounds_h (float_of_int (Graph.order sg));
    let cover = Cgraph.Vitali.cover ?budget sg ~r:base y in
    let z = cover.Cgraph.Vitali.centers in
    let r' = cover.Cgraph.Vitali.radius in
    (* Splitter's answers to the moves z_j with radius R' *)
    let answers_stage =
      List.map
        (fun zj ->
          cfg.cls.Splitter.Nowhere_dense.splitter ?budget sg
            ~radius:(min r' big_r)
            ~connector:zj)
        z
    in
    let answers_orig =
      List.filter_map (fun w -> stage.orig.(w)) answers_stage
    in
    if answers_orig = [] then None
    else begin
      (* G^{i+1} numbers the ball ascending, then the carried vertices,
         then the fresh ones *)
      let ball = Array.of_list (Bfs.ball ?budget sg ~r:r' z) in
      let nball = Array.length ball in
      let index = Hashtbl.create (2 * nball) in
      Array.iteri (fun i v -> Hashtbl.replace index v i) ball;
      let map_opt v = Hashtbl.find_opt index v in
      (* Step 1: distance colours D_{j,d} to the guessed centres y_j.
         One full BFS per centre. *)
      let y_dists = List.map (fun yj -> Bfs.distances ?budget sg yj) y in
      let d_colors =
        List.concat
          (List.mapi
             (fun j dist ->
               List.init (base + 1) (fun d ->
                   ( Printf.sprintf "_D%d_%d_%d" round j d,
                     List.filter_map
                       (fun v ->
                         if dist.(v) = d then map_opt v else None)
                       (Array.to_list ball) )))
             y_dists)
      in
      (* Steps 2-3: neighbourhood colours C_j, deletion markers B_j, and
         the edge deletions at Splitter's answers. *)
      let c_colors =
        List.mapi
          (fun j wj ->
            ( Printf.sprintf "_C%d_%d" round j,
              List.filter_map map_opt
                (wj :: Array.to_list (Graph.neighbors sg wj)) ))
          answers_stage
      in
      let b_colors =
        List.mapi
          (fun j wj ->
            ( Printf.sprintf "_B%d_%d" round j,
              List.filter_map map_opt [ wj ] ))
          answers_stage
      in
      (* Carry over the synthetic isolated vertices of previous rounds. *)
      let carried =
        Array.of_list
          (List.filter (fun v -> stage.orig.(v) = None) (Graph.vertices sg))
      in
      (* Step 4 + example projection: figure out which isolated
         type-representatives t_{I,θ} are needed. *)
      let dist_y = Bfs.distances_multi ?budget sg y in
      let near_limit = (6 * r) + 3 in
      let fresh_tbl : (int list * int, int) Hashtbl.t = Hashtbl.create 16 in
      let fresh_specs = ref [] and fresh_count = ref 0 in
      let fresh_offset = nball + Array.length carried in
      let get_fresh key colour =
        match Hashtbl.find_opt fresh_tbl key with
        | Some id -> id
        | None ->
            let id = fresh_offset + !fresh_count in
            incr fresh_count;
            Hashtbl.replace fresh_tbl key id;
            fresh_specs := (id, colour) :: !fresh_specs;
            id
      in
      let typ_stage = local_types sg in
      (* θ numbered by its first occurrence in the round, not by its id *)
      let thetas = Hashtbl.create 16 in
      let theta_number t =
        if not (Hashtbl.mem thetas t) then
          Hashtbl.add thetas t (Hashtbl.length thetas);
        Hashtbl.find thetas t
      in
      let project (v, label, idx) =
        let kk = Array.length v in
        let near v_entry = dist_y.(v_entry) <= near_limit in
        if not (Array.exists near v) then None
        else begin
          (* components of H_v̄: indices within distance 2r+1 chains,
             each pair tested by a search that stops at that depth (none
             at k = 1) *)
          let comp = Array.make kk (-1) in
          let next_comp = ref 0 in
          for a = 0 to kk - 1 do
            if comp.(a) < 0 then begin
              let c = !next_comp in
              incr next_comp;
              let rec flood a =
                comp.(a) <- c;
                for b = 0 to kk - 1 do
                  if
                    comp.(b) < 0
                    && Bfs.within ?budget sg ~r:((2 * r) + 1) v.(a) v.(b)
                  then
                    flood b
                done
              in
              flood a
            end
          done;
          let v' = Array.make kk (-1) in
          let ok = ref true in
          for c = 0 to !next_comp - 1 do
            let members =
              List.filter (fun a -> comp.(a) = c) (List.init kk Fun.id)
            in
            let comp_near = List.exists (fun a -> near v.(a)) members in
            if comp_near then
              List.iter
                (fun a ->
                  match map_opt v.(a) with
                  | Some va -> v'.(a) <- va
                  | None -> ok := false)
                members
            else begin
              let sub = Array.of_list (List.map (fun a -> v.(a)) members) in
              let theta = theta_number (typ_stage sub) in
              let key = (members, theta) in
              let colour =
                Printf.sprintf "_A%d_%s_t%d" round
                  (String.concat "." (List.map string_of_int members))
                  theta
              in
              let t_vertex = get_fresh key colour in
              List.iter (fun a -> v'.(a) <- t_vertex) members
            end
          done;
          if !ok then Some (v', label, idx) else None
        end
      in
      let projected = List.filter_map project critical in
      (* Assemble G^{i+1} = A ⊎ carried ⊎ fresh in one go: A is the
         ball's induced graph with the colours D, C and B and without the
         edges at Splitter's answers; the carried vertices keep their
         colours, and each fresh vertex has a colour of its own. *)
      let cut = Array.make nball false in
      List.iter
        (fun w -> Option.iter (fun i -> cut.(i) <- true) (map_opt w))
        answers_stage;
      let edges = ref [] in
      for i = nball - 1 downto 0 do
        if not cut.(i) then
          Graph.iter_neighbors sg ball.(i) (fun w ->
              match map_opt w with
              | Some j when i < j && not cut.(j) -> edges := (i, j) :: !edges
              | _ -> ())
      done;
      let old_colours =
        List.map
          (fun c ->
            let has = Graph.color_test sg c in
            let members = ref [] in
            Array.iteri
              (fun j v -> if has v then members := (nball + j) :: !members)
              carried;
            Array.iteri
              (fun i v -> if has v then members := i :: !members)
              ball;
            (c, !members))
          (Graph.color_names sg)
      in
      let fresh_colours =
        List.map (fun (id, colour) -> (colour, [ id ])) !fresh_specs
      in
      let g2 =
        Graph.create ~n:(fresh_offset + !fresh_count) ~edges:!edges
          ~colors:(old_colours @ d_colors @ c_colors @ b_colors @ fresh_colours)
      in
      let orig' = Array.make (Graph.order g2) None in
      Array.iteri (fun i v -> orig'.(i) <- stage.orig.(v)) ball;
      (* carried and fresh vertices stay None *)
      let info =
        {
          round;
          arena_order = Graph.order sg;
          conflicts = n_conflicts;
          critical = List.length critical;
          centre_count = List.length y;
          vitali_radius = r';
          answers = answers_orig;
        }
      in
      Some (info, answers_orig, { sgraph = g2; orig = orig'; sexamples = projected })
    end
  in
  let stage0 =
    {
      sgraph = g;
      orig = Array.init n (fun v -> Some v);
      sexamples = List.mapi (fun i (v, b) -> (v, b, i)) lam;
    }
  in
  let finish () =
    let errs, params, rounds =
      match !best with
      | Some (errs, params, rounds, _) -> (errs, params, rounds)
      | None -> (Sample.errors_of (fun _ -> false) lam, [||], [])
    in
    let chosen, errs' = majority params in
    assert (errs' = errs);
    let hypothesis =
      Hypothesis.of_local_types ?cap:cfg.counting g ~k ~q ~r ~types:chosen
        ~params
    in
    {
      hypothesis;
      err = (if m = 0 then 0.0 else float_of_int errs /. float_of_int m);
      rounds;
      r_used = r;
      s_budget = Lazy.force s;
      ell_used = Array.length params;
      q_used = Hypothesis.quantifier_rank hypothesis;
      branches_explored = !branches;
    }
  in
  let run () =
    ignore (Lazy.force x_cap : int);
    explore stage0 0 [] [];
    finish ()
  in
  let salvage () = if !best = None then None else Some (finish ()) in
  (run, salvage)

let solve cfg g lam =
  Obs.Span.with_ "erm_nd.solve"
    ~args:
      [ ("k", string_of_int cfg.k); ("ell", string_of_int cfg.ell_star);
        ("q", string_of_int cfg.q_star) ]
  @@ fun () ->
  let run, _ = solve_inner cfg g lam in
  run ()

let solve_budgeted ?budget ?(precheck = true) ?(ckpt = Resil.Ctl.none) cfg g
    lam =
  Obs.Span.with_ "erm_nd.solve_budgeted"
    ~args:
      [ ("k", string_of_int cfg.k); ("ell", string_of_int cfg.ell_star);
        ("q", string_of_int cfg.q_star) ]
  @@ fun () ->
  match
    Admission.precheck ?budget
      ~enabled:(precheck && not (Resil.Ctl.active ckpt))
      (lazy
        (Admission.Solve
           (Analysis.Plan.Nd,
            Analysis.Plan.input ?radius:cfg.radius g ~k:cfg.k
              ~ell:cfg.ell_star ~q:cfg.q_star (List.map fst lam))))
  with
  | Some rejected -> rejected
  | None ->
      let run, salvage = solve_inner ~ckpt ?budget cfg g lam in
      Guard.run ?budget ~salvage run
