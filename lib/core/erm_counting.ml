open Cgraph
module C = Modelcheck.Ctypes

type result = {
  hypothesis : Hypothesis.t;
  err : float;
  params_tried : int;
}

let check_arity ~k lam =
  Analysis.Precondition.require ~what:"Erm_counting"
    (Analysis.Precondition.sample_arity ~k (List.map fst lam))

let score ~q ~tmax lam ctx params =
  Sweep.majority (fun v -> C.ctp ctx ~q ~tmax (Graph.Tuple.append v params)) lam

(* the candidate space of [Erm_brute], voting on counting types *)
let space ?budget g ~ell ~q ~tmax lam =
  let n = Graph.order g in
  {
    Sweep.count = Graph.Tuple.count ~n ~k:ell;
    candidate = Graph.Tuple.of_index ~n ~k:ell;
    ctx = (fun () -> C.make_ctx ?budget g);
    score = score ~q ~tmax lam;
  }

let result g ~k ~q ~tmax lam ~tried = function
  | Some { Sweep.params; chosen; errors; _ } ->
      {
        hypothesis =
          Hypothesis.of_counting_types g ~k ~q ~tmax ~types:chosen ~params;
        err = Sweep.error_rate lam errors;
        params_tried = tried;
      }
  | None ->
      {
        hypothesis = Hypothesis.constantly g ~k false;
        err = Sample.error_of (fun _ -> false) lam;
        params_tried = tried;
      }

let finish g ~k ~q ~tmax lam st =
  result g ~k ~q ~tmax lam ~tried:(Sweep.tried st) (Sweep.best st)

let solve_body ?pool ?ckpt ?budget g ~k ~ell ~q ~tmax lam st =
  Analysis.Precondition.require ~what:"Erm_counting.solve"
    (Analysis.Precondition.budgets ~ell ~q ~tmax ~k ());
  check_arity ~k lam;
  Sweep.run ?pool ?ckpt ?budget (space ?budget g ~ell ~q ~tmax lam) st;
  finish g ~k ~q ~tmax lam st

let solve ?pool g ~k ~ell ~q ~tmax lam =
  Obs.Span.with_ "erm_counting.solve"
    ~args:
      [ ("k", string_of_int k); ("ell", string_of_int ell);
        ("q", string_of_int q); ("tmax", string_of_int tmax) ]
  @@ fun () ->
  solve_body ?pool g ~k ~ell ~q ~tmax lam (Sweep.create ())

let solve_budgeted ?budget ?(precheck = true) ?pool ?(ckpt = Resil.Ctl.none) g
    ~k ~ell ~q ~tmax lam =
  Obs.Span.with_ "erm_counting.solve_budgeted"
    ~args:
      [ ("k", string_of_int k); ("ell", string_of_int ell);
        ("q", string_of_int q); ("tmax", string_of_int tmax) ]
  @@ fun () ->
  match
    Admission.precheck ?budget
      ~enabled:(precheck && not (Resil.Ctl.active ckpt))
      (lazy
        (Admission.Solve
           (Analysis.Plan.Counting,
            Analysis.Plan.input ~tmax g ~k ~ell ~q (List.map fst lam))))
  with
  | Some rejected -> rejected
  | None ->
      Sweep.budgeted ?budget ~finish:(finish g ~k ~q ~tmax lam)
        (solve_body ?pool ~ckpt ?budget g ~k ~ell ~q ~tmax lam)

let optimal_error g ~k ~ell ~q ~tmax lam = (solve g ~k ~ell ~q ~tmax lam).err
