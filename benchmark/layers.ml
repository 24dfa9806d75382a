(* layers: traced in-process replay of a benchmark manifest.

     layers.exe MANIFEST OUT_DIR REPLAY_SECONDS PROBE_SECONDS

   Replays the requests of MANIFEST (written by benchmark/run.py), in
   whole passes for REPLAY_SECONDS, call for call the way the program
   executes them: a one-shot request the way
   bin/folearn_cli.ml does (load, parse, identity, check, sample, label,
   checkpoint set-up, solve, flush, render), a served request the way
   lib/serve/daemon.ml and lib/serve/exec.ml do (request frame,
   admission precheck, load, parse, check, sample, label, solve, render,
   response frame).  Each call into a layer runs inside one span of its
   own; the request span's self time is the explicit [other] bucket.

   After the replay come the probes, outside any request span: a pass
   that only computes types, a pass that only computes balls, the same
   solve at jobs 1 and 2, with and without a deadline budget, with the
   Obs sink off and on, a pass that reads the program's own Obs
   counters, snapshot writes, and response framing.  A PROBE_SECONDS of
   0 skips the probes.

   Writes OUT_DIR/layers.json (per-request self times and counts, probe
   results), OUT_DIR/trace.json (Chrome trace events) and one
   OUT_DIR/<request id>.<pass>.out per replayed request holding its
   stdout, so the caller can check the replay against the program's
   answers. *)

open Cgraph
module J = Obs.Json
module Sam = Folearn.Sample
module Types = Modelcheck.Types
module Ctypes = Modelcheck.Ctypes

(* ------------------------------------------------------------------ *)
(* spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 for a request root *)
  req : int;  (** index of the request it belongs to *)
  t0 : int64;
  mutable t1 : int64;
}

let spans = ref []
let next_id = ref 0
let stack = ref []
let cur_req = ref (-1)

let with_span name f =
  let parent = match !stack with s :: _ -> s.id | [] -> -1 in
  let s =
    { id = !next_id; name; parent; req = !cur_req; t0 = Obs.Clock.now_ns ();
      t1 = 0L }
  in
  incr next_id;
  spans := s :: !spans;
  stack := s :: !stack;
  Fun.protect
    ~finally:(fun () ->
      s.t1 <- Obs.Clock.now_ns ();
      stack := List.tl !stack)
    f

let dur s = Int64.to_int (Int64.sub s.t1 s.t0)

(* ------------------------------------------------------------------ *)
(* manifest                                                            *)
(* ------------------------------------------------------------------ *)

type req = {
  rid : string;
  op : string;
  params : J.t;
  ckpt_every : int option;
  deadline_s : float option;
  served : bool;
}

let str j k = Option.bind (J.member k j) J.to_string_opt
let int j k d = Option.value ~default:d (Option.bind (J.member k j) J.to_int_opt)

let req_of_json j =
  let opt_int k = Option.bind (J.member k j) J.to_int_opt in
  {
    rid = Option.get (str j "id");
    op = Option.get (str j "op");
    params = Option.get (J.member "params" j);
    ckpt_every = opt_int "ckpt_every";
    deadline_s = Option.bind (J.member "deadline_s" j) J.to_float_opt;
    served = (match J.member "served" j with Some (J.Bool b) -> b | _ -> false);
  }

(* ------------------------------------------------------------------ *)
(* replay                                                              *)
(* ------------------------------------------------------------------ *)

(* what the probes need to redo a request's solve without the rest *)
type learn_state = {
  g : Graph.t;
  lam : Sam.t;
  k : int;
  ell : int;
  q : int;
  tmax : int;
  solver : string;
}

type result = {
  code : int;
  out : string;
  counts : (string * int) list;
  state : learn_state option;
}

let load spec =
  with_span "cgraph.load" @@ fun () ->
  match Serve.Exec.parse_graph_spec spec with
  | Ok g -> Graph.with_colors g []
  | Error (`Msg m) -> failwith m

let parse s =
  with_span "fo.parse" @@ fun () ->
  match Fo.Parser.parse_result s with
  | Ok f -> f
  | Error e -> failwith (Fo.Parser.error_to_string e)

let run_id_of parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

let learn_run_id g target ~k ~ell ~q ~solver ~tmax ~noise ~m ~seed =
  with_span "core.run_id" @@ fun () ->
  run_id_of
    [
      "learn"; Io.to_string g; Format.asprintf "%a" Fo.Formula.pp target;
      string_of_int k; string_of_int ell; string_of_int q; solver;
      string_of_int tmax; string_of_float noise; string_of_int m;
      string_of_int seed;
    ]

let check_target g target ~k =
  with_span "analysis.check" @@ fun () ->
  match
    Analysis.Diagnostic.errors
      (Analysis.Fo_check.check
         ~vocab:(Analysis.Vocab.of_graph g)
         ~allowed_free:(Folearn.Hypothesis.xvars k) target)
  with
  | [] -> ()
  | errs -> failwith (Analysis.Diagnostic.render_list errs)

let sample g ~k ~m ~seed =
  with_span "core.sample" @@ fun () ->
  if m = 0 then Sam.all_tuples g ~k else Sam.random_tuples ~seed g ~k ~m

let render f = with_span "core.render" f

(* the learn admission test: a budgeted local learn runs the
   degradation chain, every other solver a single plan *)
let precheck ~solver ~limits g ~k ~ell ~q ~tmax tuples =
  let module Plan = Analysis.Plan in
  let inp = Plan.input ~tmax g ~k ~ell ~q tuples in
  ignore
    (match solver with
    | "local" -> Plan.precheck_chain ~what:solver (Plan.degrade_stages inp) limits
    | s ->
        Plan.precheck ~what:s
          (Plan.analyze inp (Option.get (Plan.solver_of_name s)))
          limits)

let serve_limits r = Analysis.Plan.limits ?timeout_s:r.deadline_s ()

(* the served path's zero-fuel admission: Serve.Exec.precheck_rejection,
   which loads and parses the request a first time *)
let admit r =
  let p = r.params and limits = serve_limits r in
  match r.op with
  | "learn" ->
      let g = load (Option.get (str p "graph")) in
      ignore (parse (Option.get (str p "target")));
      let k = int p "k" 1 and m = int p "m" 0 in
      let tuples = sample g ~k ~m ~seed:(int p "seed" 1) in
      with_span "analysis.plan" @@ fun () ->
      precheck
        ~solver:(Option.value ~default:"brute" (str p "solver"))
        ~limits g ~k ~ell:(int p "ell" 0) ~q:(int p "q" 1)
        ~tmax:(int p "tmax" 2) tuples
  | "mc" when J.member "via_erm" p = Some (J.Bool true) ->
      let g = load (Option.get (str p "graph")) in
      let phi = parse (Option.get (str p "formula")) in
      with_span "analysis.plan" @@ fun () ->
      ignore
        (Analysis.Plan.precheck_model_check ~what:"Reduction"
           ~n:(Graph.order g) phi limits)
  | _ -> ()

(* one outcome handler for every learner, as in the CLI and Exec *)
let conclude ~out ~ckpt outcome print =
  match outcome with
  | Guard.Complete r ->
      with_span "resil.write" (fun () -> Resil.Ctl.flush ~complete:true ckpt);
      render (fun () -> print r);
      0
  | Guard.Exhausted { best_so_far = Some r; _ } ->
      Resil.Ctl.flush ckpt;
      render (fun () ->
          Format.fprintf out
            "best-so-far hypothesis (no optimality certificate):@.";
          print r);
      3
  | Guard.Exhausted { best_so_far = None; _ } ->
      Resil.Ctl.flush ckpt;
      4

(* the Theorem 13 configuration of the CLI and Exec *)
let nd_config g ~k ~ell ~q =
  Folearn.Erm_nd.default_config ~radius:1 ~k ~ell_star:(max 1 ell) ~q_star:q
    (Splitter.Nowhere_dense.of_graph "cli" g)

let replay_learn ~out ~dir ?budget r g =
  let p = r.params in
  let target = parse (Option.get (str p "target")) in
  let k = int p "k" 1 and ell = int p "ell" 0 and q = int p "q" 1 in
  let tmax = int p "tmax" 2 and m = int p "m" 0 and seed = int p "seed" 1 in
  let noise =
    Option.value ~default:0.0 (Option.bind (J.member "noise" p) J.to_float_opt)
  in
  let solver = Option.value ~default:"brute" (str p "solver") in
  let run_id =
    learn_run_id g target ~k ~ell ~q ~solver ~tmax ~noise ~m ~seed
  in
  check_target g target ~k;
  let tuples = sample g ~k ~m ~seed in
  let lam =
    with_span "modelcheck.label" @@ fun () ->
    let l =
      Sam.label_with_query g ~formula:target
        ~xvars:(Folearn.Hypothesis.xvars k) tuples
    in
    if noise > 0.0 then Sam.flip_noise ~seed ~p:noise l else l
  in
  (* --checkpoint installs an unlimited budget to drive the cadence *)
  let budget, ckpt =
    match r.ckpt_every with
    | None -> (budget, Resil.Ctl.none)
    | Some every ->
        with_span "resil.setup" @@ fun () ->
        let b = Guard.Budget.unlimited () in
        Guard.clear_interrupt ();
        ( Some b,
          Resil.Ctl.create
            ~path:(Filename.concat dir (r.rid ^ ".snap"))
            ~every ~interval_s:2.0 ~budget:b ~run_id ~solver () )
  in
  render (fun () ->
      Format.fprintf out "training sequence: %d examples (%d positive)@."
        (Sam.size lam)
        (List.length (Sam.positives lam)));
  let state = { g; lam; k; ell; q; tmax; solver } in
  let counts = ref [] in
  let count name v = counts := (name, v) :: !counts in
  let solve f = with_span "core.solve" f in
  let code =
    match solver with
    | "brute" ->
        conclude ~out ~ckpt
          (solve (fun () ->
               Folearn.Erm_brute.solve_budgeted ?budget ~precheck:true ~ckpt g
                 ~k ~ell ~q lam))
          (fun (res : Folearn.Erm_brute.result) ->
            Format.fprintf out
              "solver: Prop 11 exact ERM (tried %d parameter tuples)@."
              res.params_tried;
            Format.fprintf out "training error: %.4f@." res.err;
            Format.fprintf out "%a@." Folearn.Hypothesis.pp res.hypothesis)
    | "nd" ->
        conclude ~out ~ckpt
          (solve (fun () ->
               Folearn.Erm_nd.solve_budgeted ?budget ~precheck:true ~ckpt
                 (nd_config g ~k ~ell ~q) g lam))
          (fun (rep : Folearn.Erm_nd.report) ->
            count "nd_rounds" (List.length rep.rounds);
            count "nd_branches" rep.branches_explored;
            Format.fprintf out
              "solver: Theorem 13 (rounds %d, branches %d, ell used %d, rank \
               %d)@."
              (List.length rep.rounds) rep.branches_explored rep.ell_used
              rep.q_used;
            Format.fprintf out "training error: %.4f@." rep.err;
            Format.fprintf out "parameters: %a@." Graph.Tuple.pp
              (Folearn.Hypothesis.params rep.hypothesis))
    | "counting" ->
        conclude ~out ~ckpt
          (solve (fun () ->
               Folearn.Erm_counting.solve_budgeted ?budget ~precheck:true ~ckpt
                 g ~k ~ell ~q ~tmax lam))
          (fun (res : Folearn.Erm_counting.result) ->
            Format.fprintf out
              "solver: exact counting ERM (FOC, thresholds <= %d; tried %d \
               parameter tuples)@."
              tmax res.params_tried;
            Format.fprintf out "training error: %.4f@." res.err;
            Format.fprintf out "%a@." Folearn.Hypothesis.pp res.hypothesis)
    | "local" -> (
        let print_local (res : Folearn.Erm_local.result) =
          Format.fprintf out
            "solver: sublinear local learner (pool %d, touched %d of %d \
             vertices)@."
            res.pool_size res.vertices_touched (Graph.order g);
          Format.fprintf out "training error: %.4f@." res.err;
          Format.fprintf out "parameters: %a@." Graph.Tuple.pp
            (Folearn.Hypothesis.params res.hypothesis)
        in
        match budget with
        | None ->
            let res = solve (fun () -> Folearn.Erm_local.solve g ~k ~ell ~q lam) in
            render (fun () -> print_local res);
            0
        | Some _ when Resil.Ctl.active ckpt ->
            conclude ~out ~ckpt
              (solve (fun () ->
                   Folearn.Erm_local.solve_budgeted ?budget ~precheck:true ~ckpt
                     g ~k ~ell ~q lam))
              print_local
        | Some _ -> (
            (* a budgeted local learn runs the degradation chain *)
            let print (l : Folearn.Degrade.learned) =
              Format.fprintf out "solver: %s ERM at rank %d%s@."
                (match l.solver with
                | "local" -> "sublinear local"
                | s -> "fallback " ^ s)
                l.q_used
                (if l.degraded then " (degraded)" else "");
              Format.fprintf out "training error: %.4f@." l.err;
              Format.fprintf out "parameters: %a@." Graph.Tuple.pp
                (Folearn.Hypothesis.params l.hypothesis)
            in
            match
              solve (fun () ->
                  Folearn.Degrade.learn ?budget ~precheck:true g ~k ~ell ~q lam)
            with
            | Guard.Complete l ->
                render (fun () -> print l);
                if l.degraded then 3 else 0
            | Guard.Exhausted _ -> 4))
    | s -> failwith ("unknown solver " ^ s)
  in
  count "resil_writes" (Resil.Ctl.writes ckpt);
  (code, !counts, Some state)

let replay_mc ~out ?budget r g =
  let p = r.params in
  let phi = parse (Option.get (str p "formula")) in
  with_span "analysis.check" (fun () ->
      if Fo.Formula.free_vars phi <> [] then failwith "not a sentence");
  if J.member "via_erm" p = Some (J.Bool true) then
    match
      with_span "core.reduction" @@ fun () ->
      Folearn.Reduction.model_check_budgeted ?budget ~precheck:true
        ~oracle:Folearn.Reduction.exact_oracle g phi
    with
    | Guard.Complete (verdict, stats) ->
        render (fun () ->
            Format.fprintf out "%b@." verdict;
            Format.fprintf out
              "(oracle calls: %d, recursion nodes: %d, representative sets: \
               [%s])@."
              stats.Folearn.Reduction.oracle_calls
              stats.Folearn.Reduction.recursion_nodes
              (String.concat "; "
                 (List.map string_of_int
                    stats.Folearn.Reduction.representative_sets)));
        (0, [ ("reduction_calls", stats.Folearn.Reduction.oracle_calls) ], None)
    | Guard.Exhausted _ -> (4, [], None)
  else
    match
      with_span "modelcheck.eval" @@ fun () ->
      Guard.run ?budget
        ~salvage:(fun () -> None)
        (fun () -> Modelcheck.Eval.sentence g phi)
    with
    | Guard.Complete verdict ->
        render (fun () -> Format.fprintf out "%b@." verdict);
        (0, [], None)
    | Guard.Exhausted _ -> (4, [], None)

let replay_types ~out ?budget r g =
  let q = int r.params "q" 1 and k = int r.params "k" 1 in
  match
    with_span "modelcheck.types" @@ fun () ->
    Guard.run ?budget
      ~salvage:(fun () -> None)
      (fun () ->
        let ctx = Types.make_ctx g in
        Types.partition_by_tp ctx ~q (Graph.Tuple.all ~n:(Graph.order g) ~k))
  with
  | Guard.Complete classes ->
      render (fun () ->
          Format.fprintf out
            "%d distinct tp_%d classes of %d-tuples on %d vertices@."
            (List.length classes) q k (Graph.order g);
          List.iteri
            (fun i (ty, members) ->
              Format.fprintf out "class %d (%a): %d tuples, e.g. %a@." i
                Types.pp ty (List.length members) Graph.Tuple.pp
                (List.hd members))
            classes);
      (0, [], None)
  | Guard.Exhausted _ -> (4, [], None)

let replay_game ~out ?budget r g =
  let radius = int r.params "r" 2 in
  match
    with_span "splitter.game" @@ fun () ->
    Guard.run ?budget
      ~salvage:(fun () -> None)
      (fun () ->
        Splitter.Game.trace g ~r:radius
          ~connector:(Splitter.Strategy.connector_max_ball ~r:radius)
          ~splitter:Splitter.Strategy.best_heuristic)
  with
  | Guard.Complete tr ->
      render (fun () ->
          List.iteri
            (fun i (v, w, remaining) ->
              Format.fprintf out
                "round %d: Connector -> %d, Splitter -> %d, arena %d vertices@."
                (i + 1) v w remaining)
            tr;
          match List.rev tr with
          | (_, _, 0) :: _ ->
              Format.fprintf out "Splitter wins in %d rounds@." (List.length tr)
          | _ -> Format.fprintf out "no win within the round cap@.");
      (0, [], None)
  | Guard.Exhausted _ -> (4, [], None)

let frame_response ~code ~stdout ~spent =
  let resp =
    Serve.Proto.response ~status:(Serve.Proto.status_of_code code) ~code
      ~stdout ?spent ()
  in
  let wire = Serve.Frame.encode resp in
  (match Serve.Frame.decode wire with
  | Ok _ -> ()
  | Error e -> failwith ("response frame: " ^ e));
  String.length wire

let request_json r =
  Serve.Proto.request_to_json
    {
      Serve.Proto.tenant = "bench";
      op = r.op;
      budget = { Serve.Proto.no_budget with deadline_s = r.deadline_s };
      params = r.params;
    }

(* one request, inside its root span *)
let replay ~dir r =
  let ob = Buffer.create 4096 in
  let out = Format.formatter_of_buffer ob in
  with_span "request" @@ fun () ->
  let budget =
    if r.served then begin
      (* the daemon decodes the request frame, then admits it with its
         deadline stamped absolute *)
      with_span "serve.frame" (fun () ->
          ignore (Serve.Frame.decode (Serve.Frame.encode (request_json r))));
      let deadline_ns =
        Option.map
          (fun s -> Int64.add (Obs.Clock.now_ns ()) (Int64.of_float (s *. 1e9)))
          r.deadline_s
      in
      admit r;
      Option.map (fun d -> Guard.Budget.make ~deadline_ns:d ()) deadline_ns
    end
    else None
  in
  let g = load (Option.get (str r.params "graph")) in
  let code, counts, state =
    match r.op with
    | "learn" -> replay_learn ~out ~dir ?budget r g
    | "mc" -> replay_mc ~out ?budget r g
    | "types" -> replay_types ~out ?budget r g
    | "game" -> replay_game ~out ?budget r g
    | op -> failwith ("unknown op " ^ op)
  in
  Format.pp_print_flush out ();
  let stdout = Buffer.contents ob in
  let counts =
    if r.served then
      let spent = Option.map Guard.Budget.spent budget in
      ("response_bytes", with_span "serve.frame" (fun () ->
           frame_response ~code ~stdout ~spent))
      :: counts
    else counts
  in
  { code; out = stdout; counts; state }

(* ------------------------------------------------------------------ *)
(* probes                                                              *)
(* ------------------------------------------------------------------ *)

let time_ns f =
  let t0 = Obs.Clock.now_ns () in
  let v = f () in
  (Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t0), v)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let reset_tables () =
  Types.reset_tables ();
  Ctypes.reset_tables ()

let local_radius st =
  match st.solver with "local" -> Fo.Gaifman.radius st.q | _ -> 1

(* the type computations of the request's one-domain solve and nothing
   else: every candidate's tp for brute/counting, in one context, every
   example's local type for the local and Theorem 13 learners *)
let types_only st =
  let n = Graph.order st.g in
  let ex = List.map fst st.lam in
  let calls = ref 0 in
  (match st.solver with
  | "brute" | "counting" ->
      let tp =
        if st.solver = "brute" then
          let ctx = Types.make_ctx st.g in
          fun t -> ignore (Types.tp ctx ~q:st.q t)
        else
          let ctx = Ctypes.make_ctx st.g in
          fun t -> ignore (Ctypes.ctp ctx ~q:st.q ~tmax:st.tmax t)
      in
      let total = Option.get (Graph.Tuple.count ~n ~k:st.ell) in
      calls := total * List.length ex;
      for i = 0 to total - 1 do
        let params = Graph.Tuple.of_index ~n ~k:st.ell i in
        List.iter (fun v -> tp (Graph.Tuple.append v params)) ex
      done
  | _ ->
      let ctx = Types.make_ctx st.g in
      let r = local_radius st in
      List.iter
        (fun v ->
          incr calls;
          ignore (Types.ltp ctx ~q:st.q ~r v))
        ex);
  !calls

(* the plain (unbudgeted, sink-off) solve of a request *)
let plain_solve ?pool st =
  let { g; lam; k; ell; q; tmax; _ } = st in
  match st.solver with
  | "brute" -> ignore (Folearn.Erm_brute.solve ?pool g ~k ~ell ~q lam)
  | "counting" -> ignore (Folearn.Erm_counting.solve ?pool g ~k ~ell ~q ~tmax lam)
  | "local" -> ignore (Folearn.Erm_local.solve ?pool g ~k ~ell ~q lam)
  | _ -> ignore (Folearn.Erm_nd.solve (nd_config g ~k ~ell ~q) g lam)

let budgeted_solve ~budget st =
  let { g; lam; k; ell; q; tmax; _ } = st in
  let ok = function
    | Guard.Complete _ -> ()
    | Guard.Exhausted _ -> failwith "exhausted"
  in
  match st.solver with
  | "brute" -> ok (Folearn.Erm_brute.solve_budgeted ~budget g ~k ~ell ~q lam)
  | "counting" ->
      ok (Folearn.Erm_counting.solve_budgeted ~budget g ~k ~ell ~q ~tmax lam)
  | "local" -> ok (Folearn.Erm_local.solve_budgeted ~budget g ~k ~ell ~q lam)
  | _ -> ok (Folearn.Erm_nd.solve_budgeted ~budget (nd_config g ~k ~ell ~q) g lam)

(* ------------------------------------------------------------------ *)
(* output                                                              *)
(* ------------------------------------------------------------------ *)

let ints kvs = J.Obj (List.map (fun (k, v) -> (k, J.Int v)) kvs)

(* self time per span name and request; a request span's own self
   time is reported as "other" *)
let request_docs runs =
  let all = List.rev !spans in
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (dur s + Option.value ~default:0 (Hashtbl.find_opt children s.parent)))
    all;
  let self = Array.map (fun _ -> Hashtbl.create 16) runs in
  let wall = Array.map (fun _ -> 0) runs in
  List.iter
    (fun s ->
      let own =
        dur s - Option.value ~default:0 (Hashtbl.find_opt children s.id)
      in
      let name = if s.parent < 0 then "other" else s.name in
      let tbl = self.(s.req) in
      Hashtbl.replace tbl name
        (own + Option.value ~default:0 (Hashtbl.find_opt tbl name));
      if s.parent < 0 then wall.(s.req) <- dur s)
    all;
  J.List
    (Array.to_list
       (Array.mapi
          (fun i (r, pass, res) ->
            J.Obj
              [
                ("id", J.String r.rid);
                ("pass", J.Int pass);
                ("code", J.Int res.code);
                ("wall_ns", J.Int wall.(i));
                ( "self",
                  ints
                    (List.sort compare
                       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) self.(i) [])) );
                ("counts", ints res.counts);
              ])
          runs))

let chrome_trace runs =
  let all = List.rev !spans in
  let names = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace names s.id s.name) all;
  let us ns = J.Float (Int64.to_float ns /. 1e3) in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("name", J.String s.name); ("ph", J.String "X");
                   ("ts", us s.t0); ("dur", us (Int64.sub s.t1 s.t0));
                   ("pid", J.Int 1); ("tid", J.Int 1);
                   ( "args",
                     J.Obj
                       [
                         ( "request",
                           J.String (let r, _, _ = runs.(s.req) in r.rid) );
                         ( "parent",
                           J.String
                             (Option.value ~default:""
                                (Hashtbl.find_opt names s.parent)) );
                       ] );
                 ])
             all) );
      ("displayTimeUnit", J.String "ms");
    ]

let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let read_manifest path =
  match
    Result.bind
      (J.of_string (In_channel.with_open_bin path In_channel.input_all))
      (fun j ->
        Option.to_result ~none:"no requests"
          (Option.bind (J.member "requests" j) J.to_list_opt))
  with
  | Ok l -> Array.of_list (List.map req_of_json l)
  | Error e ->
      prerr_endline ("layers: bad manifest: " ^ e);
      exit 2

(* Whole passes over the manifest until replay_s has passed (at least
   one).  A one-shot request starts from empty intern tables, like a
   fresh process; served requests share one warm engine with the Obs
   sink on, like the daemon.  Returns every
   (request, pass, result) in replay order. *)
let replay_all ~dir ~replay_s reqs =
  let live = ref 0 and bytes = ref 0 in
  let stop = Unix.gettimeofday () +. replay_s in
  let runs = ref [] and n = ref 0 in
  let pass = ref 0 in
  (* the one-shot CLI and the daemon (serve --jobs 1) solve on one domain *)
  Par.set_jobs 1;
  while !pass = 0 || Unix.gettimeofday () < stop do
    Array.iter
      (fun r ->
        if r.served then Obs.enable () else reset_tables ();
        cur_req := !n;
        let res = replay ~dir r in
        Obs.disable ();
        let ts = Types.table_stats () and cs = Ctypes.table_stats () in
        live := max !live (ts.live + cs.live);
        bytes := max !bytes (ts.bytes + cs.bytes);
        write
          (Filename.concat dir (Printf.sprintf "%s.%d.out" r.rid !pass))
          res.out;
        runs := (r, !pass, res) :: !runs;
        incr n)
      reqs;
    incr pass
  done;
  (Array.of_list (List.rev !runs), ints [ ("live", !live); ("bytes", !bytes) ])

let probes ~dir ~probe_s reqs runs =
  (* the first pass holds one result per request, in manifest order *)
  let results =
    Array.init (Array.length reqs) (fun i ->
        let _, _, res = runs.(i) in
        res)
  in
  let learners =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i res ->
              match res.state with Some st -> [ (reqs.(i), st) ] | None -> [])
            results))
  in
  (* each pass walks the learn requests in manifest order until its
     share of the probe time is spent, and always covers one *)
  let pass share f =
    let stop = Unix.gettimeofday () +. (share *. probe_s) in
    let rec go acc = function
      | [] -> List.rev acc
      | x :: rest ->
          let acc = f x :: acc in
          if Unix.gettimeofday () > stop then List.rev acc else go acc rest
    in
    J.List (go [] learners)
  in
  let fresh r = if not r.served then reset_tables () in
  (* the types-only pass and, right after it, the whole plain solve, both
     from empty tables: their difference is the sweep's own time *)
  let tp =
    pass 0.3 (fun (r, st) ->
        reset_tables ();
        let ns, calls = time_ns (fun () -> types_only st) in
        reset_tables ();
        let solve_ns, () = time_ns (fun () -> plain_solve st) in
        J.Obj
          [ ("id", J.String r.rid); ("ns", J.Int ns); ("calls", J.Int calls);
            ("solve_ns", J.Int solve_ns) ])
  in
  let balls =
    pass 0.1 (fun (r, st) ->
        let radius = (2 * local_radius st) + 1 in
        let ns, vertices =
          time_ns (fun () ->
              List.fold_left
                (fun acc (v, _) ->
                  acc + List.length (Bfs.ball st.g ~r:radius (Array.to_list v)))
                0 st.lam)
        in
        J.Obj
          [ ("id", J.String r.rid); ("ns", J.Int ns);
            ("calls", J.Int (Sam.size st.lam)); ("vertices", J.Int vertices) ])
  in
  let plan =
    pass 0.05 (fun (r, st) ->
        let ns, () =
          time_ns (fun () ->
              precheck ~solver:st.solver ~limits:(serve_limits r) st.g ~k:st.k
                ~ell:st.ell ~q:st.q ~tmax:st.tmax (List.map fst st.lam))
        in
        J.Obj [ ("id", J.String r.rid); ("ns", J.Int ns) ])
  in
  let counters =
    pass 0.3 (fun (r, st) ->
        fresh r;
        Obs.enable ();
        Obs.reset_all ();
        let budget = Guard.Budget.unlimited () in
        budgeted_solve ~budget st;
        let snap = Obs.Metric.snapshot () in
        Obs.disable ();
        let c name = Obs.Metric.find_counter snap name in
        ints
          [
            ( "tp_calls",
              c "modelcheck.types.tp_hits" + c "modelcheck.types.tp_misses"
              + c "modelcheck.types.ltp_hits" + c "modelcheck.types.ltp_misses" );
            ("candidates", c "erm.hypotheses_enumerated");
            ("fuel", (Guard.Budget.spent budget).Guard.fuel);
          ]
        |> fun j -> J.Obj [ ("id", J.String r.rid); ("counts", j) ])
  in
  (* the same solve of one request four ways, in turn, for up to five
     rounds while a quarter of the probe time lasts (at least one), each
     reported as its median: on a pool of one domain (also the plain
     baseline of the budget and sink comparisons), on a pool of two, both
     including the pool's start-up, under a deadline-only budget, and with
     the Obs sink on.  The first learner that can use a pool (brute,
     counting or local). *)
  let paired =
    match
      List.find_opt (fun (_, st) -> st.solver <> "nd") learners, learners
    with
    | Some (r, st), _ | None, (r, st) :: _ ->
        let on_pool jobs () =
          let pool = Par.Pool.create ~jobs in
          Fun.protect
            ~finally:(fun () -> Par.Pool.shutdown pool)
            (fun () -> plain_solve ~pool st)
        in
        let variants =
          [|
            on_pool 1;
            on_pool 2;
            (fun () ->
              budgeted_solve ~budget:(Guard.Budget.make ~timeout_s:3600.0 ()) st);
            (fun () ->
              Obs.enable ();
              Fun.protect ~finally:Obs.disable (fun () -> plain_solve st));
          |]
        in
        let stop = Unix.gettimeofday () +. (0.25 *. probe_s) in
        let rounds = ref 0 in
        let samples = Array.map (fun _ -> ref []) variants in
        while !rounds = 0 || (!rounds < 5 && Unix.gettimeofday () < stop) do
          Array.iteri
            (fun i f ->
              fresh r;
              let c0 = cpu_s () in
              let ns, () = time_ns f in
              samples.(i) := (ns, cpu_s () -. c0) :: !(samples.(i)))
            variants;
          incr rounds
        done;
        let median i key =
          let l = List.sort compare (List.map key !(samples.(i))) in
          List.nth l (List.length l / 2)
        in
        J.Obj
          [
            ("id", J.String r.rid); ("rounds", J.Int !rounds);
            ("jobs1_ns", J.Int (median 0 fst)); ("jobs2_ns", J.Int (median 1 fst));
            ("jobs2_cpu_s", J.Float (median 1 snd));
            ("guard_on_ns", J.Int (median 2 fst)); ("sink_on_ns", J.Int (median 3 fst));
          ]
    | None, [] -> J.Null
  in
  let snap_path = Filename.concat dir "probe.snap" in
  let writes =
    List.init 16 (fun i ->
        J.Int
          (fst
             (time_ns (fun () ->
                  Resil.Snapshot.save ~path:snap_path
                    {
                      Resil.Snapshot.run_id = "probe"; solver = "brute";
                      cursor = i; best = Some (0, i); complete = false;
                      writes = i; spent_fuel = i; elapsed_ns = 0L;
                      counters = [];
                    }))))
  in
  Sys.remove snap_path;
  (* a one-shot answer, framed as the server would send it *)
  let frames =
    J.List
      (List.concat
         (Array.to_list
            (Array.mapi
               (fun i r ->
                 if r.served then []
                 else
                   let ns, bytes =
                     time_ns (fun () ->
                         frame_response ~code:results.(i).code
                           ~stdout:results.(i).out ~spent:None)
                   in
                   [ J.Obj [ ("id", J.String r.rid); ("ns", J.Int ns);
                             ("bytes", J.Int bytes) ] ])
               reqs)))
  in
  J.Obj
    [
      ("tp", tp); ("ball", balls); ("plan", plan); ("counters", counters);
      ("paired", paired); ("resil_write_ns", J.List writes); ("frame", frames);
    ]

let () =
  let manifest, dir, replay_s, probe_s =
    match Sys.argv with
    | [| _; m; d; r; p |] -> (m, d, float_of_string r, float_of_string p)
    | _ ->
        prerr_endline
          "usage: layers.exe MANIFEST OUT_DIR REPLAY_SECONDS PROBE_SECONDS";
        exit 2
  in
  let reqs = read_manifest manifest in
  let runs, intern = replay_all ~dir ~replay_s reqs in
  let doc =
    J.Obj
      [
        ("requests", request_docs runs);
        ("intern", intern);
        ( "probes",
          if probe_s > 0.0 then probes ~dir ~probe_s reqs runs else J.Null );
      ]
  in
  write (Filename.concat dir "trace.json") (J.to_string (chrome_trace runs));
  write (Filename.concat dir "layers.json") (J.to_string doc)
