type attempt = {
  solver : string;
  q : int;
  reason : Guard.reason;
  checkpoint : Guard.checkpoint;
  spent : Guard.spent;
}

type learned = {
  hypothesis : Hypothesis.t;
  err : float;
  solver : string;
  q_used : int;
  degraded : bool;
  attempts : attempt list;
}

let degradations = Obs.Metric.counter "degrade.stages_tried"

let combine_spent (a : Guard.spent) (b : Guard.spent) : Guard.spent =
  {
    fuel = a.fuel + b.fuel;
    elapsed_ns = (if Int64.compare a.elapsed_ns b.elapsed_ns >= 0 then a.elapsed_ns else b.elapsed_ns);
    table_rows = max a.table_rows b.table_rows;
    ball_peak = max a.ball_peak b.ball_peak;
    catalogue_entries = max a.catalogue_entries b.catalogue_entries;
  }

(* Keep whichever salvaged hypothesis has the lower empirical error;
   ties go to the earlier (richer-class) stage. *)
let better old cand =
  match (old, cand) with
  | None, c -> c
  | o, None -> o
  | Some (_, err_o, _, _), Some (_, err_c, _, _) ->
      if err_c < err_o then cand else old

let learn_chain ?budget ?radius g ~k ~ell ~q lam =
  match budget with
  | None ->
      let r = Erm_local.solve ?radius g ~k ~ell ~q lam in
      Guard.Complete
        {
          hypothesis = r.Erm_local.hypothesis;
          err = r.Erm_local.err;
          solver = "local";
          q_used = q;
          degraded = false;
          attempts = [];
        }
  | Some b ->
      let attempts = ref [] in
      let salvaged = ref None in
      let note_attempt solver q (e : _) =
        match e with
        | Guard.Complete _ -> ()
        | Guard.Exhausted { reason; checkpoint; spent; _ } ->
            attempts := { solver; q; reason; checkpoint; spent } :: !attempts
      in
      let finish_complete ~solver ~q_used ~degraded hypothesis err =
        Guard.Complete
          {
            hypothesis;
            err;
            solver;
            q_used;
            degraded;
            attempts = List.rev !attempts;
          }
      in
      Obs.Metric.incr degradations;
      (* admission over the whole chain is decided once in [learn];
         the per-stage calls must burn real fuel so salvage and spend
         aggregation keep their pre-admission semantics *)
      let first =
        Erm_local.solve_budgeted ~budget:(Guard.Budget.for_stage b)
          ~precheck:false ?radius g ~k ~ell ~q lam
      in
      note_attempt "local" q first;
      (match first with
      | Guard.Complete r ->
          finish_complete ~solver:"local" ~q_used:q ~degraded:false
            r.Erm_local.hypothesis r.Erm_local.err
      | Guard.Exhausted { best_so_far; _ } ->
          (match best_so_far with
          | Some r ->
              salvaged :=
                better !salvaged
                  (Some (r.Erm_local.hypothesis, r.Erm_local.err, "local", q))
          | None -> ());
          (* fall back: exact brute-force ERM at strictly smaller
             quantifier rank, one fresh stage per rank, all racing the
             same absolute deadline *)
          let rec fallback q' =
            if q' < 0 then
              let reason, checkpoint, spent =
                match !attempts with
                | { reason; checkpoint; spent; _ } :: rest ->
                    ( reason,
                      checkpoint,
                      List.fold_left
                        (fun acc (a : attempt) -> combine_spent acc a.spent)
                        spent rest )
                | [] -> assert false (* the first stage always records *)
              in
              Guard.Exhausted
                {
                  best_so_far =
                    Option.map
                      (fun (hypothesis, err, solver, q_used) ->
                        {
                          hypothesis;
                          err;
                          solver;
                          q_used;
                          degraded = true;
                          attempts = List.rev !attempts;
                        })
                      !salvaged;
                  reason;
                  checkpoint;
                  spent;
                  refused = None;
                }
            else begin
              Obs.Metric.incr degradations;
              let o =
                Erm_brute.solve_budgeted ~budget:(Guard.Budget.for_stage b)
                  ~precheck:false g ~k ~ell ~q:q' lam
              in
              note_attempt "brute" q' o;
              match o with
              | Guard.Complete r ->
                  finish_complete ~solver:"brute" ~q_used:q' ~degraded:true
                    r.Erm_brute.hypothesis r.Erm_brute.err
              | Guard.Exhausted { best_so_far; _ } ->
                  (match best_so_far with
                  | Some r ->
                      salvaged :=
                        better !salvaged
                          (Some
                             ( r.Erm_brute.hypothesis,
                               r.Erm_brute.err,
                               "brute",
                               q' ))
                  | None -> ());
                  fallback (q' - 1)
            end
          in
          fallback (q - 1))

let learn ?budget ?(precheck = true) ?radius g ~k ~ell ~q lam =
  match
    Admission.precheck ?budget ~enabled:precheck
      (lazy
        (Admission.Degrade
           (Analysis.Plan.input ?radius g ~k ~ell ~q (List.map fst lam))))
  with
  | Some rejected -> rejected
  | None -> learn_chain ?budget ?radius g ~k ~ell ~q lam
