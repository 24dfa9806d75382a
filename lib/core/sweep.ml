open Cgraph

(* shared across the ERM solvers: one increment per candidate
   hypothesis considered (parameter tuple / catalogue formula / leaf) *)
let hypotheses_enumerated = Obs.Metric.counter "erm.hypotheses_enumerated"
let consistency_checks = Obs.Metric.counter "erm.consistency_checks"

let majority tp lam =
  let votes = Hashtbl.create 64 in
  List.iter
    (fun (v, label) ->
      let t = tp v in
      let pos, neg =
        match Hashtbl.find_opt votes t with
        | Some cell -> cell
        | None ->
            let cell = (ref 0, ref 0) in
            Hashtbl.replace votes t cell;
            cell
      in
      if label then incr pos else incr neg)
    lam;
  Hashtbl.fold
    (fun t (pos, neg) (chosen, errs) ->
      if !pos > !neg then (t :: chosen, errs + !neg) else (chosen, errs + !pos))
    votes ([], 0)

type ('ctx, 'ty) space = {
  count : int option;
  candidate : int -> Graph.Tuple.t;
  ctx : unit -> 'ctx;
  score : 'ctx -> Graph.Tuple.t -> 'ty list * int;
}

type 'ty best = {
  index : int;
  params : Graph.Tuple.t;
  chosen : 'ty list;
  errors : int;
}

type 'ty t = {
  mutable tried : int;
  mutable best : 'ty best option;
  merge : Mutex.t;  (* held while a parallel chunk merges *)
}

let create () = { tried = 0; best = None; merge = Mutex.create () }
let tried st = st.tried
let best st = st.best

(* the (errors, index) lex-min of the current best and [c] *)
let lexmin cur c =
  match cur with
  | Some b
    when b.errors < c.errors || (b.errors = c.errors && b.index <= c.index) ->
      cur
  | _ -> Some c

let key b = (b.index, b.errors)

let evaluate sp ctx i =
  let params = sp.candidate i in
  let chosen, errors = sp.score ctx params in
  { index = i; params; chosen; errors }

(* the cadence check runs on the first tick after the previous candidate
   settled, before this candidate's counters move, so a snapshot's
   counters cover exactly the candidates visited before it *)
let visit budget ckpt =
  Guard.tick budget Guard.Solver_loop;
  Resil.Ctl.visit ckpt;
  Obs.Metric.incr hypotheses_enumerated;
  Obs.Metric.incr consistency_checks

(* candidate [i] of the sequential sweep: tried as soon as its tick has
   passed, settled (and reported) one at a time *)
let settle sp ctx budget ckpt st i =
  visit budget ckpt;
  st.tried <- st.tried + 1;
  if Resil.Ctl.should_eval ckpt i then
    st.best <- lexmin st.best (evaluate sp ctx i);
  Resil.Ctl.chunk_done ckpt ~lo:i ~hi:(i + 1) ~best:(Option.map key st.best)

(* the lex-min over [lo, hi) on one fresh context *)
let chunk sp budget ckpt ~lo ~hi =
  let ctx = sp.ctx () in
  let best = ref None in
  for i = lo to hi - 1 do
    visit budget ckpt;
    if Resil.Ctl.should_eval ckpt i then
      best := lexmin !best (evaluate sp ctx i)
  done;
  !best

let run ?pool ?(ckpt = Resil.Ctl.none) ?budget sp st =
  let pool = match pool with Some p -> p | None -> Par.default () in
  match sp.count with
  | Some total when Par.Pool.size pool > 1 && total > 1 ->
      settle sp (sp.ctx ()) budget ckpt st 0;
      Par.map_reduce_chunks pool ~n:(total - 1)
        ~map:(fun lo hi ->
          let lo = lo + 1 and hi = hi + 1 in
          let local = chunk sp budget ckpt ~lo ~hi in
          (* merge as soon as the chunk completes, so a later budget
             trip can still salvage it *)
          Mutex.protect st.merge (fun () ->
              st.tried <- st.tried + (hi - lo);
              Option.iter (fun c -> st.best <- lexmin st.best c) local;
              Resil.Ctl.chunk_done ckpt ~lo ~hi
                ~best:(Option.map key st.best)))
        ~reduce:(fun () () -> ())
        ~init:()
  | count ->
      let ctx = sp.ctx () in
      for i = 0 to Option.value count ~default:max_int - 1 do
        settle sp ctx budget ckpt st i
      done

let budgeted ?budget ~finish body =
  let st = create () in
  Guard.run ?budget
    ~salvage:(fun () -> Option.map (fun _ -> finish st) st.best)
    (fun () -> body st)

let error_rate lam errors =
  match lam with
  | [] -> 0.0
  | _ -> float_of_int errors /. float_of_int (Sample.size lam)
