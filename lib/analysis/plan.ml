module C = Cost_model.Count
module Env = Cost_model.Env
module Json = Obs.Json

type solver = Brute | Local | Nd | Counting

let solver_name = function
  | Brute -> "brute"
  | Local -> "local"
  | Nd -> "nd"
  | Counting -> "counting"

let solver_of_name = function
  | "brute" -> Some Brute
  | "local" -> Some Local
  | "nd" -> Some Nd
  | "counting" -> Some Counting
  | _ -> None

type input = {
  g : Cgraph.Graph.t;
  examples : Cgraph.Graph.Tuple.t list;
  k : int;
  ell : int;
  q : int;
  radius : int option;
  tmax : int;
}

let input ?radius ?(tmax = 2) g ~k ~ell ~q examples =
  { g; examples; k; ell; q; radius; tmax }

type t = {
  solver : solver;
  stage_q : int;
  fuel_first : Env.t;
  fuel_total : Env.t;
  table_first : Env.t;
  table_total : Env.t;
  ball_first : Env.t;
  ball_total : Env.t;
  hypotheses : Env.t;
  type_evals : Env.t;
  exact : bool;
  notes : string list;
}

(* ------------------------------------------------------------------ *)
(* Small Count helpers                                                 *)
(* ------------------------------------------------------------------ *)

let ( ++ ) = C.add
let ( ** ) = C.mul
let ci = C.of_int

(* one less, clamped at zero *)
let pred = function
  | C.Saturated -> C.Saturated
  | C.Finite n when n > 0 -> C.Finite (n - 1)
  | C.Finite _ -> C.zero

let strictly_less a b = not (C.leq b a)
let cmax a b = if C.leq a b then b else a

let distinct_roots examples = List.sort_uniq compare examples

let entries_of examples =
  List.sort_uniq compare (List.concat_map Array.to_list examples)

(* ------------------------------------------------------------------ *)
(* Per-solver envelopes                                                *)
(* ------------------------------------------------------------------ *)

(* Erm_brute, sequential model (sound for any job count, see .mli):
   per candidate 1 Solver_loop tick + d fresh type computations of
   T_q(n) computed rows each (d distinct example roots; a repeated root
   is looked up), so the totals are exact multiples.  The counting
   solver runs the same sweep at a multiplicity cap, whose types cost
   the rows of the plain ones, so it has this model too. *)
let analyze_brute ?stage_q i =
  let q = Option.value stage_q ~default:i.q in
  let n = Cgraph.Graph.order i.g in
  let d = List.length (distinct_roots i.examples) in
  let tqn = Cost_model.type_table_rows ~n ~q in
  let c = Cost_model.candidate_count ~n ~ell:i.ell in
  let rows_per_cand = ci d ** tqn in
  let per_cand = C.one ++ rows_per_cand in
  let none = Env.exact C.zero in
  if c = C.zero then
    (* empty candidate space: the sweep completes having spent nothing *)
    {
      solver = Brute; stage_q = q;
      fuel_first = none; fuel_total = none;
      table_first = none; table_total = none;
      ball_first = none; ball_total = none;
      hypotheses = none; type_evals = none;
      exact = true;
      notes = [ "empty candidate space (order 0 graph): constant fallback" ];
    }
  else
    {
      solver = Brute;
      stage_q = q;
      fuel_first = Env.exact per_cand;
      fuel_total = Env.exact (c ** per_cand);
      table_first = Env.exact rows_per_cand;
      table_total = Env.exact (c ** rows_per_cand);
      ball_first = none;
      ball_total = none;
      hypotheses = Env.exact c;
      type_evals = Env.exact (c ** rows_per_cand);
      exact = true;
      notes =
        [
          "sequential model; with --jobs > 1 the totals are unchanged and \
           per-context table peaks only shrink";
        ];
    }

let saturated_plan solver stage_q ~notes =
  let sat = Env.exact C.saturated in
  {
    solver; stage_q;
    fuel_first = sat; fuel_total = sat;
    table_first = sat; table_total = sat;
    ball_first = sat; ball_total = sat;
    hypotheses = sat; type_evals = sat;
    exact = false; notes;
  }

(* Erm_local, sequential model, in ball sizes: a [Bfs.ball] of radius
   [r] spends [|N_r| + 1] fuel (one tick per ball vertex, one for
   [note_ball]), whatever the order of the graph.  Building the pool
   takes two balls, [|N_{2r+1}| + |N_{3r+2}| + 2].  Then each distinct
   root is typed once, before the sweep: a local-type miss, its ball,
   its [Hintikka_build] tick and its type table,
   [|N_r(root)| + 2 + rows], and when some candidate is not empty its
   (2r+1)-ball for the far test.  Both are costed exactly from per-root
   ball probes.  The first candidate (empty parameter tuple,
   enumerated first) reads those types: one tick.  A later candidate
   costs its tick, the miss of its own type (once some example is
   far) and a miss per near example; far examples compose for free.
   Every such ball lies inside the touched neighbourhood [N_{3r+2}],
   which bounds them above; below, a candidate spends at least one
   miss when there is an example (its own type, or a near pair). *)
let analyze_local i =
  let g = i.g in
  let q = i.q in
  let roots = distinct_roots i.examples in
  let d = List.length roots in
  let entries = entries_of i.examples in
  let r_count =
    match i.radius with
    | Some r -> ci r
    | None -> Cost_model.gaifman_radius q
  in
  match r_count with
  | (C.Saturated | C.Finite _) when C.exceeds_int r_count ((max_int - 2) / 3) ->
      saturated_plan Local q
        ~notes:
          [ "locality radius (7^q - 1)/2 overflows: every envelope saturates" ]
  | C.Saturated -> assert false (* covered by the guard above *)
  | C.Finite r ->
      let pool = Cgraph.Stats.ball_size g ~r:((2 * r) + 1) entries in
      let touched = Cgraph.Stats.ball_size g ~r:((3 * r) + 2) entries in
      let poolbuild = ci (pool + touched + 2) in
      let c_loc = Cost_model.local_candidate_count ~pool ~ell:i.ell in
      let typed_root root =
        let b_i = Cgraph.Stats.ball_size g ~r (Array.to_list root) in
        let rows = Cost_model.type_table_rows ~n:b_i ~q in
        let far =
          if i.ell > 0 then
            1 + Cgraph.Stats.ball_size g ~r:((2 * r) + 1) (Array.to_list root)
          else 0
        in
        (ci (b_i + 2 + far) ++ rows, rows)
      in
      let typed = List.map typed_root roots in
      let examples =
        List.fold_left (fun acc (m, _) -> acc ++ m) C.zero typed
      in
      let first = poolbuild ++ examples ++ C.one in
      let table_first =
        List.fold_left (fun acc (_, rows) -> cmax acc rows) C.zero typed
      in
      let tq_touched = Cost_model.type_table_rows ~n:touched ~q in
      let miss_hi = ci (touched + 2) ++ tq_touched in
      let per_cand_hi = C.one ++ (ci (d + 1) ** miss_hi) in
      let per_cand_lo = ci (if d = 0 then 1 else q + 5) in
      let rest = pred c_loc in
      (* the examples' tables are built from scratch (one fresh table per
         root, exactly [rows] nodes each, and one miss); a later candidate
         adds between 0 and a touched-neighbourhood table and a miss for
         its own type and for each root *)
      let evals_first =
        List.fold_left (fun acc (_, rows) -> acc ++ rows) C.zero typed
      in
      {
        solver = Local;
        stage_q = q;
        fuel_first = Env.exact first;
        fuel_total =
          Env.make ~lo:(first ++ (rest ** per_cand_lo))
            ~hi:(first ++ (rest ** per_cand_hi));
        table_first = Env.exact table_first;
        table_total = Env.make ~lo:table_first ~hi:tq_touched;
        ball_first = Env.exact (ci touched);
        ball_total = Env.exact (ci touched);
        hypotheses = Env.exact c_loc;
        type_evals =
          Env.make ~lo:evals_first
            ~hi:
              (evals_first ++ ci d
              ++ (rest ** ci (d + 1) ** (tq_touched ++ C.one)));
        exact = false;
        notes =
          [
            Printf.sprintf
              "radius %d: pool |N_%d| = %d, touched |N_%d| = %d of %d \
               vertices; examples and first candidate costed exactly, \
               later candidates bounded by the touched neighbourhood"
              r ((2 * r) + 1) pool ((3 * r) + 2) touched
              (Cgraph.Graph.order g);
          ];
      }

(* Erm_nd: the non-deterministic splitter-game learner.  Sound but
   deliberately coarse: the lower bounds cover only the mandatory root
   leaf; the upper bounds combine the node budget (1024 branches), the
   adversary-game probes of [estimate_s], and stage graphs grown by at
   most [8 * m * (k+1)] synthetic vertices. *)
let analyze_nd i =
  let n = Cgraph.Graph.order i.g in
  let q = i.q in
  let d = List.length (distinct_roots i.examples) in
  let m = List.length i.examples in
  let lo_first = ci (2 + (d * (q + 4))) in
  let tqn = Cost_model.type_table_rows ~n ~q in
  let miss_hi = ci (n + 2) ++ tqn in
  (* the examples, typed once: a miss and a (2r+1)-ball each *)
  let examples_hi = ci d ** (miss_hi ++ ci (n + 1)) in
  (* a vote: the parameters' own type and a miss per near example *)
  let leaf_hi = C.one ++ (ci (d + 1) ** miss_hi) in
  let np2 = ci (n + 2) in
  let round_hi = ci 2 ** np2 ** np2 in
  let games_hi = ci 512 ** round_hi in
  let nsg = ci n ++ (ci (8 * m) ** ci (i.k + 1)) in
  let nsg2 = nsg ++ ci 2 in
  let tq_nsg =
    match C.to_int_opt nsg with
    | Some s -> Cost_model.type_table_rows ~n:s ~q
    | None -> C.saturated
  in
  let step_hi =
    (ci 2 ** nsg2 ** nsg2) ++ (ci (i.k + 6) ** ci (m + 1) ** nsg2)
  in
  let node_hi = ci 2 ++ (ci 2 ** leaf_hi) ++ step_hi in
  let total_hi =
    ci 16 ++ examples_hi ++ (ci 2 ** (games_hi ++ (ci 1025 ** node_hi)))
  in
  {
    solver = Nd;
    stage_q = q;
    fuel_first = Env.make ~lo:lo_first ~hi:total_hi;
    fuel_total = Env.make ~lo:lo_first ~hi:total_hi;
    table_first = Env.make ~lo:(ci (q + 1)) ~hi:tq_nsg;
    table_total = Env.make ~lo:(ci (q + 1)) ~hi:tq_nsg;
    ball_first = Env.make ~lo:C.zero ~hi:nsg;
    ball_total = Env.make ~lo:C.zero ~hi:nsg;
    hypotheses = Env.make ~lo:C.one ~hi:(ci 2050);
    type_evals = Env.make ~lo:(ci d) ~hi:(ci 2050 ** ci d);
    exact = false;
    notes =
      [
        "coarse envelope: lower bounds cover only the mandatory root leaf \
         (splitter-game probes are not boundable below); upper bounds \
         assume the full 1024-node branch budget";
      ];
  }

let analyze i = function
  | Brute -> analyze_brute i
  | Local -> analyze_local i
  | Nd -> analyze_nd i
  | Counting -> { (analyze_brute i) with solver = Counting }

(* the stage sequence [Degrade.learn] runs for a budgeted local solve:
   local at rank q, then brute at ranks q-1, ..., 0, each stage with a
   fresh fuel allowance *)
let degrade_stages i =
  let rec down q' =
    if q' < 0 then [] else analyze_brute ~stage_q:q' i :: down (q' - 1)
  in
  analyze_local i :: down (i.q - 1)

(* ------------------------------------------------------------------ *)
(* Limits and exit-code prediction                                     *)
(* ------------------------------------------------------------------ *)

let limits ?fuel ?timeout_s ?max_table ?max_ball () =
  { Guard.Limits.fuel; deadline_s = timeout_s; max_table; max_ball }

type verdict = Complete | Degraded | Exhausted_nothing

let exit_code = function Complete -> 0 | Degraded -> 3 | Exhausted_nothing -> 4

let verdict_name = function
  | Complete -> "complete"
  | Degraded -> "degraded"
  | Exhausted_nothing -> "exhausted"

type prediction = { verdict : verdict; certain : bool; reason : string }

(* [fits limit hi]: the limit certainly never trips a spend bounded by
   [hi] (spend <= hi <= limit, and a trip needs spend > limit). *)
let fits limit hi =
  match limit with None -> true | Some l -> C.leq hi (ci l)

(* [below limit lo]: the limit certainly trips a spend of at least
   [lo] (lo > limit). *)
let below limit lo =
  match limit with None -> false | Some l -> C.exceeds_int lo l

let complete_certain p (l : Guard.Limits.t) =
  l.deadline_s = None
  && fits l.fuel p.fuel_total.Env.hi
  && fits l.max_table p.table_total.Env.hi
  && fits l.max_ball p.ball_total.Env.hi

let reject_certain p (l : Guard.Limits.t) =
  below l.fuel p.fuel_first.Env.lo
  || below l.max_table p.table_first.Env.lo
  || below l.max_ball p.ball_first.Env.lo

let settles_certain p (l : Guard.Limits.t) =
  l.deadline_s = None
  && fits l.fuel p.fuel_first.Env.hi
  && fits l.max_table p.table_first.Env.hi
  && fits l.max_ball p.ball_first.Env.hi

let trips_certain p (l : Guard.Limits.t) =
  below l.fuel p.fuel_total.Env.lo
  || below l.max_table p.table_total.Env.lo
  || below l.max_ball p.ball_total.Env.lo

let predict p (l : Guard.Limits.t) =
  if complete_certain p l then
    {
      verdict = Complete;
      certain = true;
      reason = "the budget covers the worst-case envelope";
    }
  else if reject_certain p l then
    {
      verdict = Exhausted_nothing;
      certain = true;
      reason =
        Format.asprintf
          "the budget is below the sound first-settle floor (fuel >= %a, \
           table >= %a, ball >= %a)"
          C.pp p.fuel_first.Env.lo C.pp p.table_first.Env.lo C.pp
          p.ball_first.Env.lo;
    }
  else if settles_certain p l && trips_certain p l then
    {
      verdict = Degraded;
      certain = true;
      reason =
        "the first candidate provably settles but the budget provably trips \
         before the sweep completes";
    }
  else if
    l.deadline_s = None
    && fits l.fuel p.fuel_total.Env.lo
    && fits l.max_table p.table_total.Env.lo
    && fits l.max_ball p.ball_total.Env.lo
  then
    {
      verdict = Complete;
      certain = false;
      reason = "the budget covers the optimistic envelope; completion likely";
    }
  else if fits l.fuel p.fuel_first.Env.hi then
    {
      verdict = Degraded;
      certain = false;
      reason =
        "the budget lands inside the envelope: at least a salvaged \
         best-so-far hypothesis is likely";
    }
  else
    {
      verdict = Exhausted_nothing;
      certain = false;
      reason =
        "the budget is below the pessimistic first-settle bound; the run may \
         exhaust with nothing";
    }

(* [Degrade.learn] semantics: exit 0 only when the first (local) stage
   completes; any later completion, or any salvaged hypothesis, is exit
   3; exit 4 only when every stage strands.  Every stage gets a fresh
   fuel allowance ([Guard.Budget.for_stage]). *)
let predict_chain stages l =
  match stages with
  | [] -> { verdict = Complete; certain = false; reason = "empty chain" }
  | s0 :: rest ->
      if complete_certain s0 l then
        {
          verdict = Complete;
          certain = true;
          reason = "the budget covers the first stage's worst-case envelope";
        }
      else if List.for_all (fun s -> reject_certain s l) stages then
        {
          verdict = Exhausted_nothing;
          certain = true;
          reason =
            "every degradation stage is below its sound first-settle floor";
        }
      else if
        trips_certain s0 l
        && ((settles_certain s0 l)
           || List.exists (fun s -> complete_certain s l) rest)
      then
        {
          verdict = Degraded;
          certain = true;
          reason =
            "the first stage provably fails to complete, but a hypothesis is \
             provably produced (salvage or a fallback stage)";
        }
      else begin
        let p0 = predict s0 l in
        match p0.verdict with
        | Complete -> { p0 with certain = false }
        | _ ->
            let rest_best =
              List.fold_left
                (fun acc s ->
                  match acc with
                  | Some _ -> acc
                  | None ->
                      let p = predict s l in
                      if p.verdict <> Exhausted_nothing then Some p else None)
                None rest
            in
            (match rest_best with
            | Some _ ->
                {
                  verdict = Degraded;
                  certain = false;
                  reason = "a fallback stage is likely to produce a hypothesis";
                }
            | None -> { p0 with certain = false })
      end

(* ------------------------------------------------------------------ *)
(* Fuel suggestions                                                    *)
(* ------------------------------------------------------------------ *)

type fuel_suggestion = {
  ample : int option;
  tight : int option;
  infeasible : int option;
}

let infeasible_of lo =
  match lo with
  | C.Saturated -> Some 0
  | C.Finite v when v >= 1 -> Some (v - 1)
  | C.Finite _ -> None

let suggest_fuel p =
  {
    ample = C.to_int_opt p.fuel_total.Env.hi;
    tight =
      (if strictly_less p.fuel_first.Env.hi p.fuel_total.Env.lo then
         C.to_int_opt p.fuel_first.Env.hi
       else None);
    infeasible = infeasible_of p.fuel_first.Env.lo;
  }

let suggest_fuel_chain stages =
  match stages with
  | [] -> { ample = None; tight = None; infeasible = None }
  | s0 :: rest ->
      let tight =
        if strictly_less s0.fuel_first.Env.hi s0.fuel_total.Env.lo then
          C.to_int_opt s0.fuel_first.Env.hi
        else
          List.find_map
            (fun s ->
              if strictly_less s.fuel_total.Env.hi s0.fuel_total.Env.lo then
                C.to_int_opt s.fuel_total.Env.hi
              else None)
            rest
      in
      let min_first_lo =
        List.fold_left
          (fun acc s ->
            if strictly_less s.fuel_first.Env.lo acc then s.fuel_first.Env.lo
            else acc)
          s0.fuel_first.Env.lo rest
      in
      {
        ample = C.to_int_opt s0.fuel_total.Env.hi;
        tight;
        infeasible = infeasible_of min_first_lo;
      }

(* ------------------------------------------------------------------ *)
(* Solver / job-count recommendation                                   *)
(* ------------------------------------------------------------------ *)

type recommendation = { solver : solver; jobs : int; reason : string }

let recommend (plans : t list) =
  let comparable =
    List.filter (fun (p : t) -> p.solver <> Counting) plans
  in
  let pool = if comparable = [] then plans else comparable in
  let best =
    List.fold_left
      (fun acc p ->
        match acc with
        | None -> Some p
        | Some b ->
            if strictly_less p.fuel_total.Env.hi b.fuel_total.Env.hi then Some p
            else if
              p.fuel_total.Env.hi = b.fuel_total.Env.hi
              && p.exact && not b.exact
            then Some p
            else acc)
      None pool
  in
  match best with
  | None -> { solver = Brute; jobs = 1; reason = "no plans to compare" }
  | Some p ->
      let jobs =
        if C.leq p.hypotheses.Env.hi (ci 64) then 1
        else min 8 (Domain.recommended_domain_count ())
      in
      {
        solver = p.solver;
        jobs;
        reason =
          Format.asprintf
            "smallest worst-case fuel envelope (%a%s); %s"
            C.pp p.fuel_total.Env.hi
            (if p.exact then ", exact" else "")
            (if jobs = 1 then "candidate space too small to amortise domains"
             else "enough candidates to share across domains");
      }

(* ------------------------------------------------------------------ *)
(* Admission precheck                                                  *)
(* ------------------------------------------------------------------ *)

type rejection = {
  what : string;
  resource : string;
  required : C.t;
  limit : int;
  message : string;
  diagnostic : Diagnostic.t;
}

let rejection what resource required limit =
  let message =
    Format.asprintf
      "%s: %s limit %d is below the sound lower bound %a needed before any \
       hypothesis can settle; the run would exhaust with nothing to salvage \
       (predicted exit 4).  Raise the limit or pass --no-precheck to try \
       anyway."
      what resource limit C.pp required
  in
  {
    what;
    resource;
    required;
    limit;
    message;
    diagnostic = Diagnostic.make ~rule:"budget-infeasible" message;
  }

let precheck ~what p (l : Guard.Limits.t) =
  if below l.fuel p.fuel_first.Env.lo then
    Some (rejection what "fuel" p.fuel_first.Env.lo (Option.get l.fuel))
  else if below l.max_table p.table_first.Env.lo then
    Some
      (rejection what "max-table" p.table_first.Env.lo (Option.get l.max_table))
  else if below l.max_ball p.ball_first.Env.lo then
    Some (rejection what "max-ball" p.ball_first.Env.lo (Option.get l.max_ball))
  else None

let precheck_chain ~what stages l =
  match stages with
  | [] -> None
  | s0 :: _ ->
      if List.for_all (fun s -> Option.is_some (precheck ~what s l)) stages
      then precheck ~what s0 l
      else None

(* ------------------------------------------------------------------ *)
(* Reduction.model_check floor                                         *)
(* ------------------------------------------------------------------ *)

(* A sound, oracle-agnostic lower bound on the [Solver_loop] ticks of a
   completed [Reduction.model_check] run: one tick per [decide] node on
   the cheapest short-circuit path.  Witness substitution preserves the
   connective skeleton (atoms become constants, both one tick), so the
   recursive case under a quantifier reuses the body's floor. *)
let model_check_floor ~n (phi : Fo.Formula.t) =
  let rec mt (f : Fo.Formula.t) =
    1
    +
    match f with
    | Fo.Formula.True | Fo.Formula.False | Fo.Formula.Atom _ -> 0
    | Fo.Formula.Not g -> mt g
    | Fo.Formula.And [] | Fo.Formula.Or [] -> 0
    | Fo.Formula.And fs | Fo.Formula.Or fs ->
        List.fold_left (fun acc g -> min acc (mt g)) max_int fs
    | Fo.Formula.Implies (a, _) -> mt a
    | Fo.Formula.Iff (a, b) -> mt a + mt b
    | Fo.Formula.Exists (_, b) -> if n = 0 then 0 else mt b
    | Fo.Formula.Forall (_, b) ->
        (* decide rewrites to [not (exists (not b))]: one extra node *)
        1 + (if n = 0 then 0 else 1 + mt b)
    | Fo.Formula.CountGe _ -> 0
  in
  mt phi

let precheck_model_check ~what ~n phi (l : Guard.Limits.t) =
  let floor = model_check_floor ~n phi in
  match l.fuel with
  | Some f when f < floor ->
      (* model checking salvages nothing: any trip is exit 4 *)
      Some (rejection what "fuel" (ci floor) f)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let envelope_pair_json first total =
  Json.Obj [ ("first", Env.to_json first); ("total", Env.to_json total) ]

let to_json (p : t) =
  Json.Obj
    [
      ("solver", Json.String (solver_name p.solver));
      ("stage_q", Json.Int p.stage_q);
      ("fuel", envelope_pair_json p.fuel_first p.fuel_total);
      ("table", envelope_pair_json p.table_first p.table_total);
      ("ball", envelope_pair_json p.ball_first p.ball_total);
      ("hypotheses", Env.to_json p.hypotheses);
      ("type_evals", Env.to_json p.type_evals);
      ("exact", Json.Bool p.exact);
      ("notes", Json.List (List.map (fun s -> Json.String s) p.notes));
    ]

let prediction_to_json pr =
  Json.Obj
    [
      ("verdict", Json.String (verdict_name pr.verdict));
      ("exit_code", Json.Int (exit_code pr.verdict));
      ("certain", Json.Bool pr.certain);
      ("reason", Json.String pr.reason);
    ]

let suggestion_to_json s =
  let opt = function None -> Json.Null | Some v -> Json.Int v in
  Json.Obj
    [
      ("ample", opt s.ample); ("tight", opt s.tight);
      ("infeasible", opt s.infeasible);
    ]

let recommendation_to_json r =
  Json.Obj
    [
      ("solver", Json.String (solver_name r.solver));
      ("jobs", Json.Int r.jobs);
      ("reason", Json.String r.reason);
    ]
