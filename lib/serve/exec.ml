(* The op bodies of learn, mc, types and game.  The one-shot CLI calls
   them with the process streams as [out]/[err]; the daemon calls them
   through [run_op], which captures both streams in buffers.  A served
   op's stdout is byte-identical to the CLI's because both run this
   code. *)

open Cgraph
module J = Obs.Json

(* ------------------------------------------------------------------ *)
(* graph / colour spec parsing                                         *)
(* ------------------------------------------------------------------ *)

let parse_graph_spec spec =
  let fail msg = Error (`Msg msg) in
  match String.split_on_char ':' spec with
  | "file" :: rest -> (
      let path = String.concat ":" rest in
      try Ok (Io.load path) with
      | Io.Format_error m -> fail (Printf.sprintf "%s: %s" path m)
      | Sys_error m -> fail m)
  | [ "path"; n ] -> Ok (Gen.path (int_of_string n))
  | [ "cycle"; n ] -> Ok (Gen.cycle (int_of_string n))
  | [ "clique"; n ] -> Ok (Gen.clique (int_of_string n))
  | [ "star"; n ] -> Ok (Gen.star (int_of_string n))
  | [ "cbt"; d ] -> Ok (Gen.complete_binary_tree (int_of_string d))
  | [ "grid"; wh ] -> (
      match String.split_on_char 'x' wh with
      | [ w; h ] -> Ok (Gen.grid (int_of_string w) (int_of_string h))
      | _ -> fail "grid spec must be grid:WxH")
  | [ "tree"; n ] -> Ok (Gen.random_tree ~seed:42 (int_of_string n))
  | [ "tree"; n; seed ] ->
      Ok (Gen.random_tree ~seed:(int_of_string seed) (int_of_string n))
  | [ "deg"; n; d ] ->
      Ok
        (Gen.random_bounded_degree ~seed:42 ~n:(int_of_string n)
           ~d:(int_of_string d))
  | [ "deg"; n; d; seed ] ->
      Ok
        (Gen.random_bounded_degree ~seed:(int_of_string seed)
           ~n:(int_of_string n) ~d:(int_of_string d))
  | [ "gnp"; n; p ] ->
      Ok (Gen.gnp ~seed:42 ~n:(int_of_string n) ~p:(float_of_string p))
  | [ "gnp"; n; p; seed ] ->
      Ok
        (Gen.gnp ~seed:(int_of_string seed) ~n:(int_of_string n)
           ~p:(float_of_string p))
  | _ -> fail (Printf.sprintf "unknown graph spec %S (see --help)" spec)

let parse_color s =
  match String.index_opt s '=' with
  | None -> Error (`Msg "colour must be NAME=v1,v2,...")
  | Some i -> (
      let name = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match
        if rest = "" then []
        else List.map int_of_string (String.split_on_char ',' rest)
      with
      | members -> Ok (name, members)
      | exception _ -> Error (`Msg "bad colour spec"))

(* ------------------------------------------------------------------ *)
(* usage errors and outcomes                                           *)
(* ------------------------------------------------------------------ *)

(* a usage error: the already-formatted stderr line(s), exit code 2 *)
exception Usage of string

let usage fmt = Format.kasprintf (fun m -> raise (Usage m)) fmt

let exit_degraded = 3
let exit_exhausted = 4

(* a member outside the vertex range is the caller's mistake, so it is
   a usage error rather than [Graph.Invalid_vertex] escaping the op *)
let apply_colors ~op g colors =
  let n = Graph.order g in
  List.iter
    (fun (name, members) ->
      match List.find_opt (fun v -> v < 0 || v >= n) members with
      | Some v ->
          usage
            "folearn %s: --color %s: vertex %d is outside the graph (order \
             %d)"
            op name v n
      | None -> ())
    colors;
  Graph.with_colors g colors

let parse_formula ~op ~flag s =
  match Fo.Parser.parse_result s with
  | Ok f -> f
  | Error e -> usage "folearn %s: %s: %a" op flag Fo.Parser.pp_error e

let run_id_of parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

let report_exhausted ~err ~cmd ~reason ~checkpoint ~(spent : Guard.spent) =
  let what =
    match reason with
    | Guard.Interrupted -> "interrupted"
    | r -> "budget exhausted: " ^ Guard.reason_to_string r
  in
  Format.fprintf err
    "folearn %s: %s at %s (fuel %d, %.3f s, table %d, ball %d)@." cmd what
    (Guard.checkpoint_to_string checkpoint)
    spent.fuel
    (Int64.to_float spent.elapsed_ns /. 1e9)
    spent.table_rows spent.ball_peak;
  (* preserve the final event window when a run dies of exhaustion or a
     signal (no-op unless a flight recorder is attached) *)
  Pulse.Fdr.dump_now
    ~reason:
      (match reason with
      | Guard.Interrupted -> "interrupted"
      | r -> "guard.exhausted:" ^ Guard.reason_to_string r)

(* The outcome -> exit code mapping of every op: [print] renders an
   answer and returns its code (0, or 3 for a degraded answer).  A run
   that stopped early exits 3 with a best-so-far answer (printed
   without its optimality certificate), or after an interrupt even with
   nothing salvaged (the operator asked for the stop, and the snapshot,
   if any, holds the progress); 4 otherwise. *)
let conclude ~out ~err ~cmd ~ckpt outcome =
  match outcome with
  | Guard.Complete print ->
      Resil.Ctl.flush ~complete:true ckpt;
      print out
  | Guard.Exhausted { best_so_far; reason; checkpoint; spent; refused } -> (
      Resil.Ctl.flush ckpt;
      report_exhausted ~err ~cmd ~reason ~checkpoint ~spent;
      Option.iter (Format.fprintf err "folearn %s: refused: %s@." cmd) refused;
      match best_so_far with
      | Some print ->
          Format.fprintf out
            "best-so-far hypothesis (no optimality certificate):@.";
          ignore (print out : int);
          exit_degraded
      | None ->
          (* a verdict, a partition or a trace has no partial answer *)
          if cmd = "learn" then
            Format.fprintf err "folearn learn: no hypothesis salvaged@.";
          if reason = Guard.Interrupted then exit_degraded else exit_exhausted)

(* ------------------------------------------------------------------ *)
(* JSON parameter objects                                              *)
(* ------------------------------------------------------------------ *)

(* The optional members of each op's parameter object and their
   defaults.  The decoders below fall back to them, and the CLI states
   them in --help. *)
let defaults = function
  | "learn" ->
      [
        ("k", J.Int 1); ("ell", J.Int 0); ("q", J.Int 1);
        ("solver", J.String "brute"); ("tmax", J.Int 2);
        ("noise", J.Float 0.0); ("m", J.Int 0); ("seed", J.Int 1);
      ]
  | "types" -> [ ("q", J.Int 1); ("k", J.Int 1) ]
  | "game" -> [ ("r", J.Int 2) ]
  | _ -> []

let p_str name j = Option.bind (J.member name j) J.to_string_opt

let p_req_str ~op name j =
  match p_str name j with
  | Some s -> s
  | None -> usage "folearn %s: missing required parameter %S" op name

(* member [name] of [j], or else its default in [d] *)
let p_num conv d name j =
  match Option.bind (J.member name j) conv with
  | Some v -> v
  | None -> Option.get (Option.bind (List.assoc_opt name d) conv)

let p_int = p_num J.to_int_opt

let p_bool name j =
  match J.member name j with Some (J.Bool b) -> b | _ -> false

let p_colors ~op j =
  match J.member "colors" j with
  | None | Some J.Null -> []
  | Some (J.List l) ->
      List.map
        (fun c ->
          match J.to_string_opt c with
          | None -> usage "folearn %s: --color: a colour must be a string" op
          | Some s -> (
              match parse_color s with
              | Ok kv -> kv
              | Error (`Msg m) ->
                  usage "folearn %s: --color: %s (got %S)" op m s))
        l
  | Some _ -> usage "folearn %s: \"colors\" must be a list of strings" op

let p_graph ~op j =
  let spec = p_req_str ~op "graph" j in
  match parse_graph_spec spec with
  | Ok g -> g
  | Error (`Msg m) -> usage "folearn %s: --graph: %s" op m
  | exception _ -> usage "folearn %s: --graph: bad graph spec %S" op spec

let coloured_graph ~op j = apply_colors ~op (p_graph ~op j) (p_colors ~op j)

(* ------------------------------------------------------------------ *)
(* learn                                                               *)
(* ------------------------------------------------------------------ *)

type solver = [ `Brute | `Nd | `Counting | `Local ]

let solvers =
  [ ("brute", `Brute); ("nd", `Nd); ("counting", `Counting); ("local", `Local) ]

let solver_name (s : solver) = fst (List.find (fun (_, s') -> s' = s) solvers)

(* the planner's model of each solver *)
let plan_solver = function
  | `Brute -> Analysis.Plan.Brute
  | `Nd -> Analysis.Plan.Nd
  | `Counting -> Analysis.Plan.Counting
  | `Local -> Analysis.Plan.Local

type learn_p = {
  lp_graph : Graph.t;
  lp_colors : (string * int list) list;
  lp_target : string option;
  lp_k : int;
  lp_ell : int;
  lp_q : int;
  lp_solver : solver;
  lp_tmax : int;
  lp_noise : float;
  lp_m : int;
  lp_seed : int;
}

let learn_params ~op j =
  let d = defaults "learn" in
  let lp_graph = p_graph ~op j in
  let lp_colors = p_colors ~op j in
  let lp_solver =
    let s = p_num J.to_string_opt d "solver" j in
    match List.assoc_opt s solvers with
    | Some s -> s
    | None ->
        usage "folearn %s: --solver: unknown solver %S (brute, nd, counting \
               or local)" op s
  in
  {
    lp_graph; lp_colors; lp_solver;
    lp_target = p_str "target" j;
    lp_k = p_int d "k" j;
    lp_ell = p_int d "ell" j;
    lp_q = p_int d "q" j;
    lp_tmax = p_int d "tmax" j;
    lp_noise = p_num J.to_float_opt d "noise" j;
    lp_m = p_int d "m" j;
    lp_seed = p_int d "seed" j;
  }

let learn_graph ~op p =
  let at_least flag lo v =
    if v < lo then usage "folearn %s: %s must be >= %d (got %d)" op flag lo v
  in
  at_least "-k" 0 p.lp_k;
  at_least "--ell" 0 p.lp_ell;
  at_least "-q" 0 p.lp_q;
  at_least "--tmax" 1 p.lp_tmax;
  at_least "-m" 0 p.lp_m;
  if not (p.lp_noise >= 0.0 && p.lp_noise <= 1.0) then
    usage "folearn %s: --noise must be in [0, 1] (got %g)" op p.lp_noise;
  apply_colors ~op p.lp_graph p.lp_colors

let learn_tuples p g =
  let module Sam = Folearn.Sample in
  if p.lp_m = 0 then Sam.all_tuples g ~k:p.lp_k
  else Sam.random_tuples ~seed:p.lp_seed g ~k:p.lp_k ~m:p.lp_m

let check_target ~op g ~k s =
  let target = parse_formula ~op ~flag:"--target" s in
  (match
     Analysis.Diagnostic.errors
       (Analysis.Fo_check.check
          ~vocab:(Analysis.Vocab.of_graph g)
          ~allowed_free:(Folearn.Hypothesis.xvars k) target)
   with
  | [] -> ()
  | errs ->
      usage
        "folearn %s: the target must be a query over x1..x%d in the graph's \
         vocabulary:@.%s"
        op k
        (Analysis.Diagnostic.render_list errs));
  target

(* [plan] may omit the target; a learn needs it *)
let learn_target ~op p =
  match p.lp_target with
  | Some s -> s
  | None -> usage "folearn %s: missing required parameter \"target\"" op

let learn_run_id p g target =
  run_id_of
    [
      "learn"; Io.to_string g;
      Format.asprintf "%a" Fo.Formula.pp target;
      string_of_int p.lp_k; string_of_int p.lp_ell; string_of_int p.lp_q;
      solver_name p.lp_solver;
      string_of_int p.lp_tmax; string_of_float p.lp_noise;
      string_of_int p.lp_m; string_of_int p.lp_seed;
    ]

type learn = {
  lp : learn_p;
  g : Graph.t;
  run_id : string Lazy.t;
  tuples : Graph.Tuple.t list;
  sample : Folearn.Sample.t;
}

let learn_prep p =
  let module Sam = Folearn.Sample in
  let g = learn_graph ~op:"learn" p in
  let target =
    check_target ~op:"learn" g ~k:p.lp_k (learn_target ~op:"learn" p)
  in
  let tuples = learn_tuples p g in
  let sample =
    Sam.label_with_query g ~formula:target
      ~xvars:(Folearn.Hypothesis.xvars p.lp_k) tuples
  in
  let sample =
    if p.lp_noise > 0.0 then
      Sam.flip_noise ~seed:p.lp_seed ~p:p.lp_noise sample
    else sample
  in
  { lp = p; g; run_id = lazy (learn_run_id p g target); tuples; sample }

let print_training out l =
  Format.fprintf out "training sequence: %d examples (%d positive)@."
    (Folearn.Sample.size l.sample)
    (List.length (Folearn.Sample.positives l.sample))

(* The answer printers return the exit code of a complete answer.  The
   exact sweeps (brute, counting) share their report. *)
let pp_sweep l ~params_tried ~err hypothesis out =
  (match l.lp.lp_solver with
  | `Counting ->
      Format.fprintf out
        "solver: exact counting ERM (FOC, thresholds <= %d; tried %d \
         parameter tuples)@."
        l.lp.lp_tmax params_tried
  | _ ->
      Format.fprintf out
        "solver: Prop 11 exact ERM (tried %d parameter tuples)@." params_tried);
  Format.fprintf out "training error: %.4f@." err;
  Format.fprintf out "%a@." Folearn.Hypothesis.pp hypothesis;
  0

let pp_params out hypothesis =
  Format.fprintf out "parameters: %a@." Graph.Tuple.pp
    (Folearn.Hypothesis.params hypothesis)

let pp_local l (r : Folearn.Erm_local.result) out =
  Format.fprintf out
    "solver: sublinear local learner (pool %d, touched %d of %d vertices)@."
    r.pool_size r.vertices_touched (Graph.order l.g);
  Format.fprintf out "training error: %.4f@." r.err;
  pp_params out r.hypothesis;
  0

type 'a runner =
  out:Format.formatter ->
  err:Format.formatter ->
  ?budget:Guard.Budget.t ->
  ckpt:Resil.Ctl.t ->
  precheck:bool ->
  'a ->
  int

let learn_solve : learn runner =
 fun ~out ~err ?budget ~ckpt ~precheck l ->
  let { lp_k = k; lp_ell = ell; lp_q = q; lp_tmax = tmax; _ } = l.lp in
  let g = l.g and lam = l.sample in
  print_training out l;
  conclude ~out ~err ~cmd:"learn" ~ckpt
    (match l.lp.lp_solver with
    | (`Brute | `Counting) as solver ->
        let tmax = if solver = `Counting then Some tmax else None in
        Guard.outcome_map
          (fun (r : Folearn.Erm_brute.result) ->
            pp_sweep l ~params_tried:r.params_tried ~err:r.err r.hypothesis)
          (Folearn.Erm_brute.solve_budgeted ?budget ~precheck ~ckpt ?tmax g ~k
             ~ell ~q lam)
    | `Nd ->
        let cls = Splitter.Nowhere_dense.of_graph "cli" g in
        let cfg =
          Folearn.Erm_nd.default_config ~radius:1 ~k ~ell_star:(max 1 ell)
            ~q_star:q cls
        in
        Guard.outcome_map
          (fun (rep : Folearn.Erm_nd.report) out ->
            Format.fprintf out
              "solver: Theorem 13 (rounds %d, branches %d, ell used %d, rank \
               %d)@."
              (List.length rep.rounds) rep.branches_explored rep.ell_used
              rep.q_used;
            Format.fprintf out "training error: %.4f@." rep.err;
            pp_params out rep.hypothesis;
            0)
          (Folearn.Erm_nd.solve_budgeted ?budget ~precheck ~ckpt cfg g lam)
    | `Local -> (
        match budget with
        | None ->
            Guard.Complete
              (pp_local l (Folearn.Erm_local.solve g ~k ~ell ~q lam))
        | Some b
          when Resil.Ctl.active ckpt
               || Guard.Limits.is_none (Guard.Budget.limits b) ->
            (* a checkpointed local run must resume bit-identically, so
               it bypasses the degradation chain (whose stage hand-offs
               have no stable candidate numbering) and runs the local
               solver directly under the budget; a budget without a
               single limit (the one --metrics-addr installs to feed
               /progress) has nothing to degrade under *)
            Guard.outcome_map (pp_local l)
              (Folearn.Erm_local.solve_budgeted ?budget ~precheck ~ckpt g ~k
                 ~ell ~q lam)
        | Some _ ->
            (* budgeted local runs go through the degradation chain:
               local at rank q, then exact brute-force ERM at ranks
               q-1, ..., 0, all racing one wall-clock deadline *)
            Guard.outcome_map
              (fun (d : Folearn.Degrade.learned) out ->
                List.iter
                  (fun (a : Folearn.Degrade.attempt) ->
                    Format.fprintf err
                      "folearn learn: stage %s at rank %d exhausted (%s at \
                       %s)@."
                      a.solver a.q
                      (Guard.reason_to_string a.reason)
                      (Guard.checkpoint_to_string a.checkpoint))
                  d.attempts;
                Format.fprintf out "solver: %s ERM at rank %d%s@."
                  (match d.solver with
                  | "local" -> "sublinear local"
                  | s -> "fallback " ^ s)
                  d.q_used
                  (if d.degraded then " (degraded)" else "");
                Format.fprintf out "training error: %.4f@." d.err;
                pp_params out d.hypothesis;
                if d.degraded then exit_degraded else 0)
              (Folearn.Degrade.learn ?budget ~precheck g ~k ~ell ~q lam)))

(* ------------------------------------------------------------------ *)
(* mc / types / game                                                   *)
(* ------------------------------------------------------------------ *)

type op = {
  name : string;
  op_run_id : string Lazy.t;
  compute :
    budget:Guard.Budget.t option ->
    precheck:bool ->
    (Format.formatter -> int) Guard.outcome;
}

let run_id op = Lazy.force op.op_run_id

(* the coloured graph and the sentence of an mc *)
let mc_input j =
  let g = coloured_graph ~op:"mc" j in
  let phi =
    parse_formula ~op:"mc" ~flag:"--formula" (p_req_str ~op:"mc" "formula" j)
  in
  (match Fo.Formula.free_vars phi with
  | [] -> ()
  | fv ->
      usage "folearn mc: --formula must be a sentence; free variable%s: %s"
        (if List.length fv > 1 then "s" else "")
        (String.concat ", " fv));
  (g, phi)

let mc j =
  let g, phi = mc_input j in
  let via_erm = p_bool "via_erm" j in
  {
    name = "mc";
    (* mc has no candidate enumeration to replay-skip: checkpoints
       record run identity and spend only, and a resumed run re-checks
       from scratch *)
    op_run_id =
      lazy
        (run_id_of
           [
             "mc"; Io.to_string g;
             Format.asprintf "%a" Fo.Formula.pp phi;
             string_of_bool via_erm;
           ]);
    compute =
      (fun ~budget ~precheck ->
        if via_erm then
          Guard.outcome_map
            (fun (verdict, (stats : Folearn.Reduction.stats)) out ->
              Format.fprintf out "%b@." verdict;
              Format.fprintf out
                "(oracle calls: %d, recursion nodes: %d, representative \
                 sets: [%s])@."
                stats.oracle_calls stats.recursion_nodes
                (String.concat "; "
                   (List.map string_of_int stats.representative_sets));
              0)
            (Folearn.Reduction.model_check_budgeted ?budget ~precheck
               ~oracle:Folearn.Reduction.exact_oracle g phi)
        else
          Guard.run ?budget
            ~salvage:(fun () -> None)
            (fun () ->
              let verdict = Modelcheck.Eval.sentence ?budget g phi in
              fun out ->
                Format.fprintf out "%b@." verdict;
                0));
  }

let types j =
  let g = coloured_graph ~op:"types" j in
  let int = p_int (defaults "types") in
  let q = int "q" j and k = int "k" j and hintikka = p_bool "hintikka" j in
  {
    name = "types";
    op_run_id =
      lazy
        (run_id_of
           [
             "types"; Io.to_string g; string_of_int q; string_of_int k;
             string_of_bool hintikka;
           ]);
    compute =
      (fun ~budget ~precheck:_ ->
        Guard.run ?budget
          ~salvage:(fun () -> None)
          (fun () ->
            let ctx = Modelcheck.Types.make_ctx ?budget g in
            let classes =
              Modelcheck.Types.partition_by_tp ctx ~q
                (Graph.Tuple.all ~n:(Graph.order g) ~k)
            in
            fun out ->
              Format.fprintf out
                "%d distinct tp_%d classes of %d-tuples on %d vertices@."
                (List.length classes) q k (Graph.order g);
              List.iteri
                (fun i (ty, members) ->
                  Format.fprintf out "class %d (%a): %d tuples, e.g. %a@." i
                    Modelcheck.Types.pp ty (List.length members)
                    Graph.Tuple.pp (List.hd members);
                  if hintikka then
                    Format.fprintf out "  %a@." (Fo.Formula.output ~col:2)
                      (Modelcheck.Hintikka.of_type
                         ~colors:(Graph.color_names g) ty))
                classes;
              0));
  }

let game j =
  let g = coloured_graph ~op:"game" j in
  let r = p_int (defaults "game") "r" j in
  {
    name = "game";
    op_run_id = lazy (run_id_of [ "game"; Io.to_string g; string_of_int r ]);
    compute =
      (fun ~budget ~precheck:_ ->
        Guard.run ?budget
          ~salvage:(fun () -> None)
          (fun () ->
            let tr =
              Splitter.Game.trace ?budget g ~r
                ~connector:(Splitter.Strategy.connector_max_ball ~r)
                ~splitter:Splitter.Strategy.best_heuristic
            in
            fun out ->
              List.iteri
                (fun i (v, w, remaining) ->
                  Format.fprintf out
                    "round %d: Connector -> %d, Splitter -> %d, arena %d \
                     vertices@."
                    (i + 1) v w remaining)
                tr;
              (match List.rev tr with
              | (_, _, 0) :: _ ->
                  Format.fprintf out "Splitter wins in %d rounds@."
                    (List.length tr)
              | _ -> Format.fprintf out "no win within the round cap@.");
              0));
  }

let of_params ~op j =
  match op with
  | "mc" -> mc j
  | "types" -> types j
  | "game" -> game j
  | _ -> usage "folearn serve: unknown op %S" op

let solve : op runner =
 fun ~out ~err ?budget ~ckpt ~precheck op ->
  conclude ~out ~err ~cmd:op.name ~ckpt
    (op.compute ~budget ~precheck)

(* the learn parameters, validated, with the coloured graph and parsed
   target: everything the run identity digests, without labelling *)
let learn_checked j =
  let p = learn_params ~op:"learn" j in
  let g = learn_graph ~op:"learn" p in
  let target = learn_target ~op:"learn" p in
  (p, g, parse_formula ~op:"learn" ~flag:"--target" target)

let learn_identity j =
  match
    let p, g, target = learn_checked j in
    (learn_run_id p g target, solver_name p.lp_solver)
  with
  | v -> Ok v
  | exception Usage m -> Error m

(* ------------------------------------------------------------------ *)
(* entry points                                                        *)
(* ------------------------------------------------------------------ *)

type run = {
  code : int;
  out : string;
  err : string;
  spent : Guard.spent option;
}

let run_op ?budget ?(ckpt = Resil.Ctl.none) ?(precheck = true) ~op ~params ()
    =
  let ob = Buffer.create 512 and eb = Buffer.create 256 in
  let out = Format.formatter_of_buffer ob in
  let err = Format.formatter_of_buffer eb in
  let code =
    try
      match op with
      | "learn" ->
          learn_solve ~out ~err ?budget ~ckpt ~precheck
            (learn_prep (learn_params ~op params))
      | _ -> solve ~out ~err ?budget ~ckpt ~precheck (of_params ~op params)
    with
    | Usage msg ->
        Format.fprintf err "%s@." msg;
        2
    | e ->
        Format.fprintf err "folearn serve: %s op failed: %s@." op
          (Printexc.to_string e);
        2
  in
  Format.pp_print_flush out ();
  Format.pp_print_flush err ();
  {
    code;
    out = Buffer.contents ob;
    err = Buffer.contents eb;
    spent = Option.map Guard.Budget.spent budget;
  }

(* The admission query of a learn: what [learn_solve] hands its solver.
   Theorem 13 runs at [ell_star = max 1 ell]; a budgeted local run is the
   degradation chain, unless it is checkpointed (a submitted job), which
   runs the local solver alone. *)
let learn_query ~checkpointed p g =
  let module Plan = Analysis.Plan in
  let input ~ell =
    Plan.input ~tmax:p.lp_tmax g ~k:p.lp_k ~ell ~q:p.lp_q (learn_tuples p g)
  in
  match p.lp_solver with
  | `Local when not checkpointed ->
      Folearn.Admission.Degrade (input ~ell:p.lp_ell)
  | `Nd -> Solve (Plan.Nd, input ~ell:(max 1 p.lp_ell))
  | s -> Solve (plan_solver s, input ~ell:p.lp_ell)

let precheck_rejection ~op ~params ~limits =
  match
    match op with
    | "learn" | "submit" ->
        let p, g, _ = learn_checked params in
        Some (learn_query ~checkpointed:(op = "submit") p g)
    | "mc" when p_bool "via_erm" params ->
        let g, phi = mc_input params in
        Some (Folearn.Admission.Model_check (g, phi))
    | _ -> None
  with
  | query -> Ok (Option.bind query (Folearn.Admission.rejection limits))
  | exception Usage m -> Error m

let training_line params =
  Format.asprintf "%a" print_training
    (learn_prep (learn_params ~op:"learn" params))
