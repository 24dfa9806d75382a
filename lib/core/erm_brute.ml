open Cgraph
module Types = Modelcheck.Types

type result = {
  hypothesis : Hypothesis.t;
  err : float;
  params_tried : int;
}

let check_arity ~k lam =
  Analysis.Precondition.require ~what:"Erm_brute"
    (Analysis.Precondition.sample_arity ~k (List.map fst lam))

(* Best type-set for fixed parameters: majority vote per q-type class of
   v̄·w̄.  Returns (positive type list, number of errors). *)
let score ~q lam ctx params =
  Types.with_candidate ctx ~q params (fun tp -> Sweep.majority tp lam)

(* the candidates: every w̄ ∈ V(G)^ell, in [Graph.Tuple.of_index] order *)
let space ?budget ?tmax g ~ell ~q lam =
  let n = Graph.order g in
  {
    Sweep.count = Graph.Tuple.count ~n ~k:ell;
    candidate = Graph.Tuple.of_index ~n ~k:ell;
    ctx = (fun () -> Types.make_ctx ?budget ?cap:tmax g);
    score = score ~q lam;
  }

let result ?tmax g ~k ~q lam ~tried = function
  | Some { Sweep.params; chosen; errors; _ } ->
      {
        hypothesis =
          Hypothesis.of_types ?cap:tmax g ~k ~q ~types:chosen ~params;
        err = Sweep.error_rate lam errors;
        params_tried = tried;
      }
  | None ->
      (* ell >= 1 on the empty graph: H is empty unless there are no
         examples; fall back to a constant hypothesis. *)
      {
        hypothesis = Hypothesis.constantly g ~k false;
        err = Sample.error_of (fun _ -> false) lam;
        params_tried = tried;
      }

let finish ?tmax g ~k ~q lam st =
  result ?tmax g ~k ~q lam ~tried:(Sweep.tried st) (Sweep.best st)

let solve_body ?pool ?ckpt ?budget ?tmax g ~k ~ell ~q lam st =
  Analysis.Precondition.require ~what:"Erm_brute.solve"
    (Analysis.Precondition.budgets ~ell ~q ?tmax ~k ());
  check_arity ~k lam;
  Sweep.run ?pool ?ckpt ?budget (space ?budget ?tmax g ~ell ~q lam) st;
  finish ?tmax g ~k ~q lam st

let span_args ?tmax ~k ~ell ~q () =
  [ ("k", string_of_int k); ("ell", string_of_int ell); ("q", string_of_int q) ]
  @ Option.fold tmax ~none:[] ~some:(fun t -> [ ("tmax", string_of_int t) ])

let solve ?pool ?budget ?tmax g ~k ~ell ~q lam =
  Obs.Span.with_ "erm_brute.solve" ~args:(span_args ?tmax ~k ~ell ~q ())
  @@ fun () ->
  solve_body ?pool ?budget ?tmax g ~k ~ell ~q lam (Sweep.create ())

let solve_budgeted ?budget ?(precheck = true) ?pool ?(ckpt = Resil.Ctl.none)
    ?tmax g ~k ~ell ~q lam =
  Obs.Span.with_ "erm_brute.solve_budgeted"
    ~args:(span_args ?tmax ~k ~ell ~q ())
  @@ fun () ->
  let solver =
    if tmax = None then Analysis.Plan.Brute else Analysis.Plan.Counting
  in
  match
    Admission.precheck ?budget
      ~enabled:(precheck && not (Resil.Ctl.active ckpt))
      (lazy
        (Admission.Solve
           (solver, Analysis.Plan.input ?tmax g ~k ~ell ~q (List.map fst lam))))
  with
  | Some rejected -> rejected
  | None ->
      Sweep.budgeted ?budget ~finish:(finish ?tmax g ~k ~q lam)
        (solve_body ?pool ~ckpt ?budget ?tmax g ~k ~ell ~q lam)
