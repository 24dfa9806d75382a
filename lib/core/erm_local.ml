open Cgraph
module Types = Modelcheck.Types

type result = {
  hypothesis : Hypothesis.t;
  err : float;
  pool_size : int;
  params_tried : int;
  vertices_touched : int;
}

let pool_size_h = Obs.Metric.histogram "erm_local.pool_size"

(* the candidates: all tuples of length j = 0, 1, ..., ell over the
   pool, shorter first; within a length the first position varies
   fastest, so position [d] of the [i]-th j-tuple is digit [d] of [i]
   base |pool| *)
let space ?budget g ~ell ~q ~r lam examples pool =
  let p = Array.length pool in
  let level = Array.init (ell + 1) (fun j -> Graph.Tuple.count ~n:p ~k:j) in
  let count =
    Array.fold_left
      (fun acc c ->
        match (acc, c) with
        | Some a, Some c when a <= max_int - c -> Some (a + c)
        | _ -> None)
      (Some 0) level
  in
  let rec candidate j i =
    match level.(j) with
    | Some c when i >= c -> candidate (j + 1) (i - c)
    | _ ->
        let rem = ref i in
        Array.init j (fun _ ->
            let v = pool.(!rem mod p) in
            rem := !rem / p;
            v)
  in
  {
    Sweep.count;
    candidate = candidate 0;
    ctx = (fun () -> Types.make_ctx ?budget g);
    score =
      (fun ctx params ->
        Types.with_local_candidate ctx ~examples ~q ~r params (fun ltp ->
            Sweep.majority ltp lam));
  }

(* what the pool construction measured, for the result *)
type extent = { mutable pool_size : int; mutable vertices_touched : int }

let finish g ~k ~q ~r lam ext st =
  let params, chosen, errs =
    match Sweep.best st with
    | Some { Sweep.params; chosen; errors; _ } -> (params, chosen, errors)
    | None -> ([||], [], Sample.errors_of (fun _ -> false) lam)
  in
  {
    hypothesis = Hypothesis.of_local_types g ~k ~q ~r ~types:chosen ~params;
    err = Sweep.error_rate lam errs;
    pool_size = ext.pool_size;
    params_tried = Sweep.tried st;
    vertices_touched = ext.vertices_touched;
  }

let solve_body ?pool:ppool ?ckpt ?budget g ~k ~ell ~q ~r lam ext st =
  Analysis.Precondition.require ~what:"Erm_local.solve"
    (Analysis.Precondition.budgets ~ell ~q ~radius:r ~k ()
    @ Analysis.Precondition.sample_arity ~k (List.map fst lam));
  let entries =
    List.sort_uniq compare
      (List.concat_map (fun (v, _) -> Array.to_list v) lam)
  in
  (* pool    = (2r+1)-neighbourhood of the examples (candidate params)
     touched = (3r+2)-neighbourhood (everything the algorithm reads) *)
  let pool = Bfs.ball ?budget g ~r:((2 * r) + 1) entries in
  let touched = Bfs.ball ?budget g ~r:((3 * r) + 2) entries in
  ext.pool_size <- List.length pool;
  if Obs.Sink.enabled () then
    Obs.Metric.observe pool_size_h (float_of_int ext.pool_size);
  ext.vertices_touched <- List.length touched;
  (* typed once, outside the sweep, so that its fuel does not depend on
     how the sweep is chunked; the balls for the far test only when some
     candidate is not empty *)
  let examples =
    Types.local_examples (Types.make_ctx ?budget g) ~q ~r ~far:(ell > 0)
      (List.map fst lam)
  in
  Sweep.run ?pool:ppool ?ckpt ?budget
    (space ?budget g ~ell ~q ~r lam examples (Array.of_list pool))
    st;
  finish g ~k ~q ~r lam ext st

let radius_for ?radius q =
  match radius with Some r -> r | None -> Fo.Gaifman.radius q

let solve ?pool ?radius g ~k ~ell ~q lam =
  Obs.Span.with_ "erm_local.solve"
    ~args:
      [ ("k", string_of_int k); ("ell", string_of_int ell);
        ("q", string_of_int q) ]
  @@ fun () ->
  solve_body ?pool g ~k ~ell ~q ~r:(radius_for ?radius q) lam
    { pool_size = 0; vertices_touched = 0 }
    (Sweep.create ())

let solve_budgeted ?budget ?(precheck = true) ?pool ?radius
    ?(ckpt = Resil.Ctl.none) g ~k ~ell ~q lam =
  Obs.Span.with_ "erm_local.solve_budgeted"
    ~args:
      [ ("k", string_of_int k); ("ell", string_of_int ell);
        ("q", string_of_int q) ]
  @@ fun () ->
  match
    Admission.precheck ?budget
      ~enabled:(precheck && not (Resil.Ctl.active ckpt))
      (lazy
        (Admission.Solve
           (Analysis.Plan.Local,
            Analysis.Plan.input ?radius g ~k ~ell ~q (List.map fst lam))))
  with
  | Some rejected -> rejected
  | None ->
      let r = radius_for ?radius q in
      let ext = { pool_size = 0; vertices_touched = 0 } in
      Sweep.budgeted ?budget ~finish:(finish g ~k ~q ~r lam ext)
        (solve_body ?pool ~ckpt ?budget g ~k ~ell ~q ~r lam ext)
