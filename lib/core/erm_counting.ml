type result = Erm_brute.result = {
  hypothesis : Hypothesis.t;
  err : float;
  params_tried : int;
}

let solve ?pool g ~k ~ell ~q ~tmax lam =
  Erm_brute.solve ?pool ~tmax g ~k ~ell ~q lam

let solve_budgeted ?budget ?precheck ?pool ?ckpt g ~k ~ell ~q ~tmax lam =
  Erm_brute.solve_budgeted ?budget ?precheck ?pool ?ckpt ~tmax g ~k ~ell ~q lam
