(* folearn_cli: command-line driver for the library.

   Subcommands:
     learn   learn a first-order query from examples labelled by a target
     plan    static cost analysis of a learn run (focost)
     mc      model checking, directly or through the ERM oracle (Thm 1)
     strings MSO on strings: model checking and learning ([21])
     trees   MSO on trees: model checking and node concepts ([19])
     types   print the q-type partition of a graph
     game    play out the splitter game and print the trace
     lint    static analysis of FO/MSO formulas (folint)
     pulse   decode a flight-recorder dump or query a live exporter
     serve   resident multi-tenant learning service (folserve)
     call    run one op on a resident server, replaying its output
     submit  enqueue a learn as a resumable server-side job
     poll    fetch a submitted job's result or status

   The op commands (learn, mc, types, game) declare their parameter
   flags once, in one term per op.  `call OP` takes exactly OP's
   parameter flags and `submit` takes learn's; Serve.Exec decodes them
   for every caller.

   Graph specifications (the --graph argument):
     path:N          cycle:N        clique:N      star:N
     grid:WxH        tree:N[:SEED]  deg:N:D[:SEED]
     gnp:N:P[:SEED]  cbt:DEPTH      file:PATH
   Colours are added with repeatable --color NAME=v1,v2,... options. *)

open Cmdliner
open Cgraph
module Exec = Serve.Exec

(* Graph specs, colours, solver names and formulas are taken as plain
   strings and parsed by Serve.Exec: cmdliner reserves its own exit code
   (124) for [Arg.conv] failures, and a malformed parameter must be a
   usage error (2) with Exec's diagnostics on stderr.  Exec raises
   [Usage] for them, and for out-of-range parameters; [exit] (rather
   than a return) skips the --stats/--trace epilogue, as any usage error
   does. *)
let or_usage f =
  try f ()
  with Exec.Usage m ->
    Format.eprintf "%s@." m;
    exit 2

(* the CLI's own usage errors inside [or_usage] take the same route *)
let usage fmt = Format.kasprintf (fun m -> raise (Exec.Usage m)) fmt

(* ------------------------------------------------------------------ *)
(* Op parameters                                                       *)
(* ------------------------------------------------------------------ *)

(* An op's parameter flags, declared once: a term that yields the op's
   JSON parameter object, with a member for each flag given.  A local
   run decodes it with Serve.Exec, and `call` and `submit` send it to
   the server, which decodes it the same way.  The defaults --help
   states are Exec's. *)

module J = Obs.Json

type member = (string * J.t) option Term.t

let opt_param ~op key names cv to_json ~docv ~doc : member =
  let absent =
    List.assoc_opt key (Exec.defaults op)
    |> Option.map (function J.String s -> s | v -> J.to_string v)
  in
  Term.(
    const (Option.map (fun v -> (key, to_json v)))
    $ Arg.(value & opt (some cv) None & info names ?absent ~docv ~doc))

let int_param ~op key names ~doc =
  opt_param ~op key names Arg.int (fun n -> J.Int n) ~docv:"N" ~doc

let req_param key names ~docv ~doc : member =
  Term.(
    const (fun s -> Some (key, J.String s))
    $ Arg.(required & opt (some string) None & info names ~docv ~doc))

let flag_param key names ~doc : member =
  Term.(
    const (fun b -> if b then Some (key, J.Bool true) else None)
    $ Arg.(value & flag & info names ~doc))

let params (members : member list) =
  List.fold_right
    (fun m acc -> Term.(const (fun m l -> Option.to_list m @ l) $ m $ acc))
    members (Term.const [])
  |> Term.(app (const (fun l -> J.Obj l)))

let graph_param =
  req_param "graph" [ "g"; "graph" ] ~docv:"SPEC"
    ~doc:"Background graph, e.g. path:10, tree:30:7, grid:4x5, gnp:20:0.3."

let colors_param : member =
  Term.(
    const (function
      | [] -> None
      | cs -> Some ("colors", J.List (List.map (fun c -> J.String c) cs)))
    $ Arg.(
        value & opt_all string []
        & info [ "c"; "color" ] ~docv:"NAME=V,V"
            ~doc:"Add a colour class (repeatable), e.g. --color Red=0,3,6."))

(* the learning-problem flags, shared by learn, plan and submit; plan
   brings its own --target and no --noise *)
let learn_flags ~target ~noise =
  let int = int_param ~op:"learn" in
  params
    [
      graph_param; colors_param; target;
      int "k" [ "k" ] ~doc:"Arity of examples.";
      int "ell" [ "l"; "ell" ] ~doc:"Parameter budget.";
      int "q" [ "q" ] ~doc:"Quantifier-rank budget.";
      opt_param ~op:"learn" "solver" [ "solver" ] Arg.string
        (fun s -> J.String s)
        ~docv:"NAME"
        ~doc:
          "ERM solver: $(b,brute) (Prop 11, exact), $(b,nd) (Theorem 13, \
           nowhere dense), $(b,counting) (FOC extension), or $(b,local) \
           (sublinear local access).  With budget flags, $(b,local) runs \
           through the degradation chain.  $(b,plan) analyzes all four \
           and predicts the selected one.";
      int "tmax" [ "tmax" ]
        ~doc:"Counting-threshold cap for $(b,--solver counting).";
      noise;
      int "m" [ "m" ] ~doc:"Sample size (0 = label every tuple of the graph).";
      int "seed" [ "seed" ] ~doc:"Random seed.";
    ]

let learn_term =
  learn_flags
    ~target:
      (req_param "target" [ "t"; "target" ] ~docv:"FORMULA"
         ~doc:
           "Hidden target query over x1..xk (used only to label the \
            training data).")
    ~noise:
      (opt_param ~op:"learn" "noise" [ "noise" ] Arg.float
         (fun p -> J.Float p)
         ~docv:"P" ~doc:"Label-flip probability.")

let mc_term =
  params
    [
      graph_param; colors_param;
      req_param "formula" [ "f"; "formula" ] ~docv:"SENTENCE"
        ~doc:"Sentence to check.";
      flag_param "via_erm" [ "via-erm" ]
        ~doc:"Decide through the Theorem 1 reduction (ERM-oracle calls).";
    ]

let types_term =
  params
    [
      graph_param; colors_param;
      int_param ~op:"types" "q" [ "q" ] ~doc:"Quantifier rank.";
      int_param ~op:"types" "k" [ "k" ] ~doc:"Tuple arity.";
      flag_param "hintikka" [ "hintikka" ]
        ~doc:"Also print one Hintikka formula per class.";
    ]

let game_term =
  params
    [
      graph_param; colors_param;
      int_param ~op:"game" "r" [ "r" ] ~doc:"Game radius.";
    ]

(* observability: --trace / --stats / --stats-json on the compute-heavy
   subcommands.  The sink stays disabled unless one of them is given, so
   the default path keeps its uninstrumented cost. *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans and write a Chrome trace-event file, loadable in \
           chrome://tracing or ui.perfetto.dev.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print the metrics snapshot after the run.")

let stats_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:
          "Write the metrics snapshot as JSON (pretty-print it back with \
           $(b,folearn stats)).")

(* live telemetry: --metrics-addr serves /metrics, /metrics.json,
   /healthz and /progress from a domain of its own for the whole run;
   --fdr keeps the bounded event ring flowing to a crash-readable
   flight-recorder file.  Both ride the compute-heavy subcommands. *)

let metrics_addr_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-addr" ] ~docv:"ADDR"
        ~doc:
          "Serve live telemetry while the run executes: $(b,unix:PATH), \
           $(b,HOST:PORT) or $(b,:PORT) (port 0 picks a free port, \
           printed on stderr).  Endpoints: /metrics (Prometheus text), \
           /metrics.json, /healthz, /progress.  Implies metric \
           recording, like --stats.")

let fdr_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fdr" ] ~docv:"FILE"
        ~doc:
          "Flight recorder: keep rewriting $(docv) with the most recent \
           telemetry events (atomic writes), so even a SIGKILL'd run \
           leaves a readable dump.  Decode it with $(b,folearn pulse).")

type pulse_opts = { metrics_addr : string option; fdr : string option }

let pulse_term =
  let mk metrics_addr fdr = { metrics_addr; fdr } in
  Term.(const mk $ metrics_addr_arg $ fdr_arg)

(* attach the flight recorder and bracket [f] with the exporter server;
   the recorder stays attached afterwards so the at_exit dump still
   lands *)
let with_pulse ~cmd { metrics_addr; fdr } f =
  (match fdr with
  | None -> ()
  | Some path -> Pulse.Fdr.attach ~path ());
  match metrics_addr with
  | None -> f ()
  | Some spec -> (
      match Pulse.Addr.parse spec with
      | Error m ->
          Format.eprintf "folearn %s: --metrics-addr %s@." cmd m;
          exit 2
      | Ok addr -> (
          match Pulse.Server.start addr with
          | Error m ->
              Format.eprintf "folearn %s: --metrics-addr %s: %s@." cmd
                (Pulse.Addr.to_string addr) m;
              exit 2
          | Ok srv ->
              Format.eprintf "folearn %s: serving telemetry on %s@." cmd
                (Pulse.Addr.to_string (Pulse.Server.bound_addr srv));
              Fun.protect
                ~finally:(fun () ->
                  (* a signal flipped the exporter into draining mode:
                     hold the server up for a beat so scrapers observe
                     the 503 before the socket closes (used by CI;
                     default is no grace, stop immediately) *)
                  (if Pulse.Server.draining () then
                     match
                       Option.bind
                         (Sys.getenv_opt "FOLEARN_DRAIN_GRACE")
                         float_of_string_opt
                     with
                     | Some s when s > 0.0 -> Unix.sleepf s
                     | _ -> ());
                  Pulse.Server.set_progress None;
                  Pulse.Server.stop srv)
                f))

let with_obs ~pulse ~trace ~stats ~stats_json f =
  if
    trace = None && (not stats) && stats_json = None
    && pulse.metrics_addr = None
  then f ()
  else begin
    Obs.enable ();
    Obs.reset_all ();
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        (match trace with
        | Some path ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc
                  (Obs.Json.to_string (Obs.Span.chrome_trace ())))
        | None -> ());
        (match stats_json with
        | Some path ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc
                  (Obs.Json.to_string
                     (Obs.Metric.snapshot_to_json (Obs.Metric.snapshot ()))))
        | None -> ());
        if stats then
          Format.printf "%a" Obs.Metric.pp_snapshot (Obs.Metric.snapshot ()))
      f
  end

(* resource budgets: --fuel / --timeout / --max-table / --max-ball on
   the compute-heavy subcommands.  With none of them given no budget is
   installed, so the default path costs one load and one branch per
   checkpoint.  Exit codes: 0 complete, 2 usage, 3 degraded but
   answered, 4 exhausted with nothing to show. *)

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:"Abort after $(docv) checkpoint ticks (solver candidates, type \
              rows, BFS dequeues, ...).")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Wall-clock deadline on the computation, in seconds \
              (fractions allowed): the guarded loops stop at their first \
              checkpoint past it.  The clock starts once the inputs are \
              loaded (for a served request, when the server admits it). \
              Printing the answer, a salvaged one included, is not \
              bounded.")

let max_table_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-table" ] ~docv:"ROWS"
        ~doc:"Cap on the type-table rows (computed type nodes) of one type \
              context.")

let max_ball_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-ball" ] ~docv:"VERTICES"
        ~doc:"Cap on the size of any neighbourhood ball.")

(* admission control: a declared budget that is provably below the
   static first-settle floor ([Analysis.Plan]) is rejected before any
   fuel burns; --no-precheck restores the plain doomed burn *)
let no_precheck_arg =
  Arg.(
    value & flag
    & info [ "no-precheck" ]
        ~doc:
          "Skip the static admission precheck: run even when the declared \
           budget is provably too small to settle a first answer (see \
           $(b,folearn plan)).")

(* parallelism: --jobs on the compute-heavy subcommands.  The flag
   overrides the FOLEARN_JOBS environment variable; with neither given
   everything runs on one domain and the sequential code paths are
   taken unchanged. *)

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N" ~env:(Cmd.Env.info "FOLEARN_JOBS")
        ~doc:
          "Worker domains for the candidate sweep of the brute, counting \
           and local solvers (default 1); every other step runs on one \
           domain.  Results are bit-identical to a sequential run.")

let apply_jobs = function
  | None -> ()
  | Some n when n >= 1 -> Par.set_jobs n
  | Some n ->
      Format.eprintf "folearn: --jobs must be >= 1 (got %d)@." n;
      exit 2

let budget_term =
  let mk fuel deadline_s max_table max_ball =
    { Guard.Limits.fuel; deadline_s; max_table; max_ball }
  in
  Term.(const mk $ fuel_arg $ timeout_arg $ max_table_arg $ max_ball_arg)

(* the /progress fuel gauge needs a live budget to read spend from, so
   --metrics-addr with no budget flag makes an unlimited one, as
   --checkpoint does *)
let budget_for_pulse pulse limits =
  match Guard.Budget.of_limits limits with
  | Some _ as b -> b
  | None ->
      if pulse.metrics_addr = None then None
      else Some (Guard.Budget.unlimited ())

(* crash safety: --checkpoint / --resume on the long-running
   subcommands.  The solvers check the snapshot cadence per candidate.
   --checkpoint with no budget flag runs under an unlimited budget (it
   never trips on its own): SIGINT/SIGTERM become a trip only on
   budgeted ticks, and snapshots record the budget's spent fuel. *)

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"PATH"
        ~doc:
          "Write crash-safe snapshots of the run to $(docv) (atomic \
           temp-file + fsync + rename; CRC-checked on load).")

let checkpoint_every_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Snapshot every $(docv) settled candidates (default: off, the \
           time cadence governs).")

let checkpoint_interval_arg =
  Arg.(
    value & opt float 2.0
    & info [ "checkpoint-interval" ] ~docv:"SECONDS"
        ~doc:"Snapshot at most every $(docv) seconds (default 2).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"PATH"
        ~doc:
          "Resume from the snapshot at $(docv).  A missing file is a \
           fresh start; a corrupt snapshot or one from a different \
           run/solver is a usage error.  The resumed run's output is \
           bit-identical to an uninterrupted one.")

type ckpt_opts = {
  ck_path : string option;
  ck_every : int option;
  ck_interval : float;
  ck_resume : string option;
}

let ckpt_term =
  let mk ck_path ck_every ck_interval ck_resume =
    { ck_path; ck_every; ck_interval; ck_resume }
  in
  Term.(
    const mk $ checkpoint_arg $ checkpoint_every_arg $ checkpoint_interval_arg
    $ resume_arg)

(* the handler body is async-signal-safe (two atomic stores); the next
   budgeted tick on any domain converts the flag into an [Interrupted]
   trip, the outcome handler flushes a final snapshot, and a live
   /healthz endpoint starts answering 503 draining *)
let install_signals () =
  let h =
    Sys.Signal_handle
      (fun _ ->
        Guard.interrupt ();
        Pulse.Server.set_draining true)
  in
  Sys.set_signal Sys.sigint h;
  Sys.set_signal Sys.sigterm h

(* Resolve the checkpoint flags into (budget, controller).  Resuming a
   snapshot whose run id or solver differs from this invocation would
   silently replay-skip the wrong candidates, so that is a usage
   error; a missing snapshot file is a fresh start, letting harnesses
   pass --checkpoint and --resume together unconditionally.  The run
   id digests the whole graph, so it is forced only when a snapshot is
   read or written. *)
let setup_resilience ~cmd ~solver ~run_id ~budget
    { ck_path; ck_every; ck_interval; ck_resume } =
  Guard.clear_interrupt ();
  let resume =
    match ck_resume with
    | None -> None
    | Some path -> (
        match
          Resil.Snapshot.load_for ~run_id:(Lazy.force run_id) ~solver path
        with
        | Ok snap ->
            Format.eprintf
              "folearn %s: resuming from %s (cursor %d, %d snapshot \
               writes so far)@."
              cmd path snap.Resil.Snapshot.cursor
              snap.Resil.Snapshot.writes;
            Some snap
        | Error `Not_found ->
            Format.eprintf "folearn %s: no snapshot at %s; starting fresh@."
              cmd path;
            None
        | Error (`Corrupt msg) ->
            usage "folearn %s: --resume %s: corrupt snapshot: %s" cmd path msg
        | Error (`Mismatch m) ->
            usage
              "folearn %s: --resume %s: %a@.folearn %s: hint: that snapshot \
               belongs to another invocation; pass a fresh --checkpoint path \
               to start over"
              cmd path Resil.Snapshot.pp_mismatch m cmd)
  in
  let wants_ckpt = ck_path <> None || resume <> None in
  let budget =
    match budget with
    | Some _ as b -> b
    | None -> if wants_ckpt then Some (Guard.Budget.unlimited ()) else None
  in
  (match budget with Some _ -> install_signals () | None -> ());
  let ckpt =
    if not wants_ckpt then Resil.Ctl.none
    else
      Resil.Ctl.create ?path:ck_path ?every:ck_every ~interval_s:ck_interval
        ?budget ?resume ~run_id:(Lazy.force run_id) ~solver ()
  in
  (budget, ckpt)

(* Install the /progress sampler: a closure over the run's identity,
   the Resil frontier/best, the Guard budget and (for learn) the static
   plan envelope.  The closure runs on the exporter domain, so it only
   touches mutex- or atomic-guarded state. *)
let install_progress ~metrics ~run_id ~solver ~sample_size ?fuel_lo ?fuel_hi
    ?total budget ckpt =
  if metrics then
    let run_id = Lazy.force run_id in
    Pulse.Server.set_progress
      (Some
         (fun () ->
           let fuel_spent, elapsed_ns =
             match budget with
             | None -> (None, None)
             | Some b ->
                 let s = Guard.Budget.spent b in
                 (Some s.Guard.fuel, Some s.Guard.elapsed_ns)
           in
           Pulse.Progress.to_json
             {
               Pulse.Progress.run_id;
               solver;
               frontier = Resil.Ctl.frontier ckpt;
               total;
               best = Resil.Ctl.best ckpt;
               sample_size;
               fuel_spent;
               elapsed_ns;
               fuel_lo;
               fuel_hi;
             }))

(* ------------------------------------------------------------------ *)
(* learn                                                               *)
(* ------------------------------------------------------------------ *)

let learn_cmd =
  let run j limits no_precheck jobs ckpt_opts pulse trace stats stats_json
      =
    apply_jobs jobs;
    let precheck = not no_precheck in
    with_obs ~pulse ~trace ~stats ~stats_json @@ fun () ->
    with_pulse ~cmd:"learn" pulse @@ fun () ->
    or_usage @@ fun () ->
      let p = Exec.learn_params ~op:"learn" j in
      let l = Exec.learn_prep p in
      let run_id = l.run_id and solver = Exec.solver_name p.lp_solver in
      let budget, ckpt =
        setup_resilience ~cmd:"learn" ~solver ~run_id
          ~budget:(budget_for_pulse pulse limits)
          ckpt_opts
      in
      (* no checkpointing asked for, but a live /progress endpoint
         wants the settled frontier: track it passively (admission
         prechecks still see an un-checkpointed run) *)
      let ckpt =
        if pulse.metrics_addr <> None && not (Resil.Ctl.active ckpt) then
          Resil.Ctl.observer ~run_id:(Lazy.force run_id) ~solver ()
        else ckpt
      in
      (* /progress marries the live frontier with the static plan
         envelope, so scrapers get fuel_spent / fuel_hi
         percent-complete without running `folearn plan` themselves *)
      (if pulse.metrics_addr <> None then
         let module Plan = Analysis.Plan in
         let module Cm = Analysis.Cost_model in
         let plan =
           Plan.analyze
             (Plan.input ~tmax:p.lp_tmax l.g ~k:p.lp_k ~ell:p.lp_ell
                ~q:p.lp_q l.tuples)
             (Exec.plan_solver p.lp_solver)
         in
         let env_lo (e : Cm.Env.t) = Cm.Count.to_int_opt e.Cm.Env.lo in
         let env_hi (e : Cm.Env.t) = Cm.Count.to_int_opt e.Cm.Env.hi in
         install_progress ~metrics:true ~run_id ~solver
           ~sample_size:(Folearn.Sample.size l.sample)
           ?fuel_lo:(env_lo plan.Plan.fuel_total)
           ?fuel_hi:(env_hi plan.Plan.fuel_total)
           ?total:(env_hi plan.Plan.hypotheses)
           budget ckpt);
      Exec.learn_solve ~out:Format.std_formatter
        ~err:Format.err_formatter ?budget ~ckpt ~precheck l
  in
  let term =
    Term.(
      const run $ learn_term $ budget_term $ no_precheck_arg $ jobs_arg
      $ ckpt_term $ pulse_term $ trace_arg $ stats_arg $ stats_json_arg)
  in
  Cmd.v
    (Cmd.info "learn" ~doc:"Learn a first-order query from labelled examples.")
    term

(* ------------------------------------------------------------------ *)
(* plan                                                                *)
(* ------------------------------------------------------------------ *)

(* Static cost analysis ("focost"): analyze the run that `learn` with
   the same arguments would execute — without burning a single unit of
   fuel — and report symbolic cost envelopes per solver, the degrade
   chain a budgeted --solver local run walks, a solver/jobs
   recommendation, --fuel suggestions bracketing each exit code, and
   (when budget flags are given) the predicted exit code with its
   certainty.  --strict turns a provably infeasible budget into exit 1,
   making `plan` usable as a pre-submit admission gate. *)

let plan_cmd =
  let module Plan = Analysis.Plan in
  let target =
    opt_param ~op:"plan" "target" [ "t"; "target" ] Arg.string
      (fun s -> J.String s)
      ~docv:"FORMULA"
      ~doc:
        "Target query over x1..xk.  Validated like $(b,learn) does; the \
         cost plan itself depends only on the example tuples, never on \
         the labels."
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("json", `Json); ("sarif", `Sarif) ]) `Json
      & info [ "format" ]
          ~doc:
            "Output format: $(b,json) (the full plan) or $(b,sarif) \
             (admission diagnostics only, SARIF 2.1.0).")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Exit 1 when the declared budget is provably infeasible for \
             the selected solver (the admission precheck would reject \
             the run).")
  in
  (* plan labels nothing: the optional --target is only validated *)
  let run j limits format strict =
    or_usage @@ fun () ->
    let p = Exec.learn_params ~op:"plan" j in
    let { Exec.lp_k = k; lp_ell = ell; lp_q = q; lp_tmax = tmax; _ } = p in
    let g = Exec.learn_graph ~op:"plan" p in
    Option.iter
      (fun t -> ignore (Exec.check_target ~op:"plan" g ~k t : Fo.Formula.t))
      p.lp_target;
    let tuples = Exec.learn_tuples p g in
    let inp = Plan.input ~tmax g ~k ~ell ~q tuples in
    let solvers = [ Plan.Brute; Plan.Local; Plan.Nd; Plan.Counting ] in
    let plans = List.map (Plan.analyze inp) solvers in
    let chain = Plan.degrade_stages inp in
    let has_limits = not (Guard.Limits.is_none limits) in
    let selected = Exec.plan_solver p.lp_solver in
    let selected_plan = Plan.analyze inp selected in
    (* the budgeted local path of `learn` runs the degradation chain,
       so its prediction and admission must use chain semantics *)
    let chain_mode = selected = Plan.Local && has_limits in
    let prediction =
      if chain_mode then Plan.predict_chain chain limits
      else Plan.predict selected_plan limits
    in
    (* the admission rule and query of the run itself, so a refusal
       reads as `learn`'s would *)
    let rejection =
      if not has_limits then None
      else
        Folearn.Admission.rejection limits
          (Exec.learn_query ~checkpointed:false p g)
    in
    let module J = Obs.Json in
    (match format with
    | `Sarif ->
        let artifact =
          match p.lp_target with Some _ -> "--target" | None -> "<plan>"
        in
        let diags =
          match rejection with
          | Some r -> [ r.Plan.diagnostic ]
          | None -> []
        in
        print_string (Analysis.Sarif.to_string ~tool:"focost" [ (artifact, diags) ]);
        print_newline ()
    | `Json ->
        let solver_entry s p =
          ( Plan.solver_name s,
            J.Obj
              [
                ("plan", Plan.to_json p);
                ("suggested_fuel", Plan.suggestion_to_json (Plan.suggest_fuel p));
                ("prediction", Plan.prediction_to_json (Plan.predict p limits));
              ] )
        in
        let doc =
          J.Obj
            [
              ("graph", Stats.to_json (Stats.probe g));
              ( "params",
                J.Obj
                  [
                    ("k", J.Int k); ("ell", J.Int ell); ("q", J.Int q);
                    ("tmax", J.Int tmax);
                    ("examples", J.Int (List.length tuples));
                    ("solver", J.String (Plan.solver_name selected));
                  ] );
              ("limits", J.Obj (Guard.Limits.to_fields limits));
              ("solvers", J.Obj (List.map2 solver_entry solvers plans));
              ( "degrade_chain",
                J.Obj
                  [
                    ("stages", J.List (List.map Plan.to_json chain));
                    ( "suggested_fuel",
                      Plan.suggestion_to_json (Plan.suggest_fuel_chain chain) );
                    ( "prediction",
                      Plan.prediction_to_json (Plan.predict_chain chain limits)
                    );
                  ] );
              ( "recommendation",
                Plan.recommendation_to_json (Plan.recommend plans) );
              ("prediction", Plan.prediction_to_json prediction);
              ( "admitted",
                J.Bool (match rejection with None -> true | Some _ -> false) );
              ( "rejection",
                match rejection with
                | None -> J.Null
                | Some r ->
                    J.Obj
                      [
                        ("resource", J.String r.Plan.resource);
                        ("limit", J.Int r.Plan.limit);
                        ("message", J.String r.Plan.message);
                      ] );
            ]
        in
        print_string (J.to_string doc);
        print_newline ());
    match rejection with
    | Some r when strict ->
        Format.eprintf "folearn plan: %s@." r.Plan.message;
        1
    | _ -> 0
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Static cost analysis: predict the spend, exit code and best \
          solver of a $(b,learn) run without executing it.")
    Term.(
      const run
      $ learn_flags ~target ~noise:(const None)
      $ budget_term $ format_arg $ strict_arg)

(* ------------------------------------------------------------------ *)
(* mc / types / game                                                   *)
(* ------------------------------------------------------------------ *)

(* Serve.Exec validates and runs the op; the CLI wraps it in
   telemetry and checkpointing and hands it the process streams *)
let exec_op_cmd ~cmd ~doc ~precheck params =
  let run j limits precheck jobs ckpt_opts pulse trace stats stats_json =
    apply_jobs jobs;
    with_obs ~pulse ~trace ~stats ~stats_json @@ fun () ->
    with_pulse ~cmd pulse @@ fun () ->
    or_usage @@ fun () ->
    let op = Exec.of_params ~op:cmd j in
    let run_id = lazy (Exec.run_id op) in
    let budget, ckpt =
      setup_resilience ~cmd ~solver:cmd ~run_id
        ~budget:(budget_for_pulse pulse limits)
        ckpt_opts
    in
    install_progress
      ~metrics:(pulse.metrics_addr <> None)
      ~run_id ~solver:cmd ~sample_size:0 budget ckpt;
    Exec.solve ~out:Format.std_formatter ~err:Format.err_formatter
      ?budget ~ckpt ~precheck op
  in
  Cmd.v (Cmd.info cmd ~doc)
    Term.(
      const run $ params $ budget_term $ precheck $ jobs_arg $ ckpt_term
      $ pulse_term $ trace_arg $ stats_arg $ stats_json_arg)

let mc_cmd =
  exec_op_cmd ~cmd:"mc"
    ~doc:"First-order model checking (direct or via Theorem 1)."
    ~precheck:Term.(const not $ no_precheck_arg)
    mc_term

let types_cmd =
  exec_op_cmd ~cmd:"types" ~doc:"Print the q-type partition of the graph."
    ~precheck:(Term.const true) types_term

let game_cmd =
  exec_op_cmd ~cmd:"game" ~doc:"Play out the (r, s)-splitter game."
    ~precheck:(Term.const true) game_term

(* ------------------------------------------------------------------ *)
(* graph                                                               *)
(* ------------------------------------------------------------------ *)

let graph_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH"
          ~doc:"Write the graph to a file (default: stdout).")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit GraphViz instead.")
  in
  let run j out dot =
    or_usage @@ fun () ->
    let g = Exec.coloured_graph ~op:"graph" j in
    let text = if dot then Graph.to_dot g else Io.to_string g in
    (match out with
    | Some path ->
        if dot then Out_channel.with_open_text path (fun oc -> output_string oc text)
        else Io.save path g
    | None -> print_string text);
    0
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:"Generate a graph from a spec and print or save it.")
    Term.(
      const run $ params [ graph_param; colors_param ] $ out_arg $ dot_arg)


(* ------------------------------------------------------------------ *)
(* strings                                                             *)
(* ------------------------------------------------------------------ *)

(* The MSO input boundary of [strings] and [trees]: parse, then validate
   the variables with [Mso.Formula.free], so that a syntax error or a
   variable used at both kinds is a usage error.  Returns the formula
   and its free variables. *)
let mso_formula ~cmd ~structure ~letters src =
  try
    let phi = Mso.Parser.parse ~structure ~letters src in
    (phi, Mso.Formula.free phi)
  with Mso.Parser.Parse_error m | Invalid_argument m ->
    usage "folearn %s: %s" cmd m

let strings_cmd =
  let word_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "w"; "word" ] ~docv:"WORD" ~doc:"The background string.")
  in
  let alphabet_arg =
    Arg.(
      value & opt string "ab"
      & info [ "alphabet" ] ~docv:"LETTERS"
          ~doc:"Alphabet, one character per letter (default ab).")
  in
  let sentence_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "formula" ] ~docv:"SENTENCE"
          ~doc:"MSO sentence to model-check against the word.")
  in
  let target_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "t"; "target" ] ~docv:"FORMULA"
          ~doc:
            "Unary MSO target phi(x): label every position, then learn it \
             back from the catalogue.")
  in
  let hyp_arg =
    Arg.(
      value & opt_all string []
      & info [ "hyp" ] ~docv:"FORMULA"
          ~doc:
            "Catalogue hypothesis phi(x; y1...) (repeatable; free \
             variables besides x become position parameters).")
  in
  let regex_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "regex" ] ~docv:"REGEX"
          ~doc:
            "Regular expression to match against the word (Glushkov \
             compilation; '|', '*', '+', '?', parentheses).")
  in
  let run word alphabet sentence target hyps regex =
    or_usage @@ fun () ->
    if alphabet = "" then usage "folearn strings: --alphabet needs a letter";
    let letters = List.init (String.length alphabet) (fun i -> String.make 1 alphabet.[i]) in
    let sigma = List.length letters in
    let w =
      try Mso.Word.of_string ~alphabet word
      with Invalid_argument m -> usage "folearn strings: %s" m
    in
    let parse = mso_formula ~cmd:"strings" ~structure:`Words ~letters in
    (match regex with
    | Some src ->
        let r =
          try Mso.Regex.of_string ~letters src
          with Mso.Regex.Parse_error m -> usage "folearn strings: %s" m
        in
        let dfa = Mso.Regex.to_dfa ~sigma r in
        Format.printf "%b  (regex automaton: %d states)@."
          (Mso.Automaton.accepts_word dfa w) dfa.Mso.Automaton.states
    | None -> ());
    (match sentence with
    | Some src ->
        let phi, free = parse src in
        if free <> [] then usage "folearn strings: -f needs a sentence";
        let dfa = Mso.Formula.language ~sigma phi in
        Format.printf "%b  (automaton: %d states)@."
          (Mso.Automaton.accepts_word dfa w) dfa.Mso.Automaton.states
    | None -> ());
    (match target with
    | Some src ->
        let tphi, free = parse src in
        (match free with
        | [ ("x", Mso.Formula.Pos) ] -> ()
        | _ -> usage "folearn strings: -t needs exactly x free");
        (* label every position through one oracle over the word: x is
           track 0 *)
        let tdfa =
          Mso.Formula.compile ~sigma ~scope:[ ("x", Mso.Formula.Pos) ] tphi
        in
        let oracle = Mso.Oracle.make ~sigma tdfa w in
        let examples =
          List.init (Array.length w) (fun p ->
              ([| p |], Mso.Oracle.eval_with_marks oracle ~marks:[ (p, 1) ]))
        in
        let catalogue =
          List.mapi
            (fun i src ->
              let phi, free = parse src in
              let yvars =
                List.filter_map
                  (fun (v, k) ->
                    if v <> "x" && k = Mso.Formula.Pos then Some v else None)
                  free
              in
              {
                Mso.Learner.name = Printf.sprintf "hyp%d: %s" (i + 1) src;
                phi;
                xvars = [ "x" ];
                yvars;
              })
            hyps
        in
        if catalogue = [] then
          usage "folearn strings: -t needs at least one --hyp";
        let solved =
          try Mso.Learner.solve ~sigma ~word:w ~catalogue examples
          with Invalid_argument m -> usage "folearn strings: %s" m
        in
        (match solved with
        | Some r ->
            Format.printf
              "learned %S, parameters [%s], training error %.3f (%d oracle \
               evaluations)@."
              r.Mso.Learner.entry.Mso.Learner.name
              (String.concat ";"
                 (List.map string_of_int (Array.to_list r.Mso.Learner.params)))
              r.Mso.Learner.err r.Mso.Learner.evaluations
        | None -> Format.printf "empty catalogue@.")
    | None -> ());
    0
  in
  Cmd.v
    (Cmd.info "strings"
       ~doc:"MSO on strings: model checking and learning (related work [21]).")
    Term.(
      const run $ word_arg $ alphabet_arg $ sentence_arg $ target_arg
      $ hyp_arg $ regex_arg)


(* ------------------------------------------------------------------ *)
(* trees                                                               *)
(* ------------------------------------------------------------------ *)

let trees_cmd =
  let tree_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "tree" ] ~docv:"TERM"
          ~doc:"The background tree in term syntax, e.g. 1(0(1),1(0,0)).")
  in
  let labels_arg =
    Arg.(
      value & opt string "ab"
      & info [ "labels" ] ~docv:"NAMES"
          ~doc:
            "Label names, one character per label id (default ab: a = 0, \
             b = 1).")
  in
  let formula_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "formula" ] ~docv:"SENTENCE"
          ~doc:"MSO sentence to model-check against the tree.")
  in
  let concept_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "t"; "concept" ] ~docv:"FORMULA"
          ~doc:
            "Unary MSO concept phi(x): classify every node with the \
             two-pass oracle and print the satisfying nodes.")
  in
  let run tree_src labels formula concept =
    or_usage @@ fun () ->
    let label_names =
      List.init (String.length labels) (fun i -> String.make 1 labels.[i])
    in
    let sigma = List.length label_names in
    let tree =
      try Mso.Tree.of_string tree_src
      with Mso.Tree.Parse_error m -> usage "folearn trees: %s" m
    in
    (try Mso.Tree.check_labels ~sigma tree
     with Invalid_argument m -> usage "folearn trees: %s" m);
    let parse =
      mso_formula ~cmd:"trees" ~structure:`Trees ~letters:label_names
    in
    (match formula with
    | Some src ->
        let phi, free = parse src in
        if free <> [] then usage "folearn trees: -f needs a sentence";
        let ta = Mso.Tree_formula.compile ~sigma ~scope:[] phi in
        Format.printf "%b@." (Mso.Automaton.accepts_tree ta tree)
    | None -> ());
    (match concept with
    | Some src ->
        let phi, _ = parse src in
        let oracle =
          try Mso.Tree_learner.Node_oracle.make ~sigma phi tree
          with Invalid_argument m -> usage "folearn trees: %s" m
        in
        let hits =
          List.filter
            (fun (id, _) -> Mso.Tree_learner.Node_oracle.holds oracle id)
            (Mso.Tree.nodes tree)
        in
        Format.printf "satisfying nodes (preorder ids): [%s]@."
          (String.concat "; " (List.map (fun (id, _) -> string_of_int id) hits))
    | None -> ());
    0
  in
  Cmd.v
    (Cmd.info "trees"
       ~doc:"MSO on trees: model checking and node concepts (related work [19]).")
    Term.(const run $ tree_arg $ labels_arg $ formula_arg $ concept_arg)

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

(* Static analysis of formulas ("folint"): signature conformance against
   a declared vocabulary, scope analysis, paper budget verification
   (quantifier rank <= q, free variables <= k + l), Gaifman-locality
   lints, and simplification hints.  Input formulas come from positional
   files (one formula per line, '#' comments and blank lines ignored)
   and/or repeated --formula options; exit status is non-zero iff any
   formula triggers an error-severity diagnostic (or any warning, with
   --strict). *)

let lint_cmd =
  let files_arg =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "Formula corpus files: one formula per line; lines starting \
             with '#' and blank lines are ignored.")
  in
  let formulas_arg =
    Arg.(
      value & opt_all string []
      & info [ "f"; "formula" ] ~docv:"FORMULA"
          ~doc:"Formula given inline (repeatable).")
  in
  let lang_arg =
    Arg.(
      value
      & opt (enum [ ("fo", `Fo); ("mso", `Mso); ("trees", `Trees) ]) `Fo
      & info [ "lang" ]
          ~doc:
            "Formula language: $(b,fo) (first-order over coloured graphs), \
             $(b,mso) (MSO on strings), or $(b,trees) (MSO on trees).")
  in
  let vocab_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "vocab" ] ~docv:"DECLS"
          ~doc:
            "Declared vocabulary for signature conformance, e.g. \
             $(b,E/2,Red/1,Blue) (a bare name is unary).  Omitted: \
             signature checks are skipped.")
  in
  let alphabet_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "alphabet" ] ~docv:"LETTERS"
          ~doc:
            "Alphabet for --lang mso/trees, one character per letter \
             (default ab).  Also bounds the letter indices checked by \
             the unknown-letter rule.")
  in
  let free_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "free" ] ~docv:"VARS"
          ~doc:
            "Comma-separated interface variables the formula may use \
             free, e.g. $(b,x1,x2,y1).  An empty string demands a \
             sentence.  Omitted: any free variable is allowed.")
  in
  let q_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "q" ] ~docv:"Q" ~doc:"Quantifier-rank budget.")
  in
  let max_free_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-free" ] ~docv:"N"
          ~doc:"Free-variable budget (the paper's k + l).")
  in
  let radius_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "radius" ] ~docv:"R"
          ~doc:
            "Demand syntactic r-locality in the Gaifman sense (FO only): \
             every quantifier must be relativised to the r-neighbourhood \
             of the interface variables.")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("human", `Human); ("json", `Json); ("sarif", `Sarif) ])
          `Human
      & info [ "format" ]
          ~doc:
            "Output format: $(b,human), $(b,json), or $(b,sarif) (SARIF \
             2.1.0, for code-scanning upload and editor ingestion).")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Treat warnings as failures too.")
  in
  let cost_arg =
    Arg.(
      value & flag
      & info [ "cost" ]
          ~doc:
            "Emit the informational $(b,cost-metadata) hint for every FO \
             formula: quantifier rank, locality radius and Hintikka-table \
             bound, as a JSON message.")
  in
  let list_rules_arg =
    Arg.(
      value & flag
      & info [ "list-rules" ]
          ~doc:"Print every rule id, its severity and description, then exit.")
  in
  let run files formulas lang vocab alphabet free q max_free radius format
      strict list_rules cost =
    or_usage @@ fun () ->
    let open Analysis in
    if list_rules then begin
      List.iter
        (fun r ->
          Format.printf "%-20s %-8s %s@." r.Diagnostic.id
            (Diagnostic.severity_to_string r.Diagnostic.default_severity)
            r.Diagnostic.doc)
        Diagnostic.rules;
      0
    end
    else begin
      let vocab =
        match vocab with
        | None -> None
        | Some s -> (
            match Vocab.of_string s with
            | Ok v -> Some v
            | Error m ->
                usage "folearn lint: %s" m)
      in
      let allowed_free =
        Option.map
          (fun s ->
            String.split_on_char ',' s |> List.map String.trim
            |> List.filter (fun v -> v <> ""))
          free
      in
      let letters =
        let a = Option.value alphabet ~default:"ab" in
        List.init (String.length a) (fun i -> String.make 1 a.[i])
      in
      let sigma =
        Option.map (fun a -> String.length a) alphabet
      in
      let inputs =
        List.concat_map
          (fun path ->
            In_channel.with_open_text path In_channel.input_lines
            |> List.mapi (fun i line -> (Printf.sprintf "%s:%d" path (i + 1), line))
            |> List.filter (fun (_, line) ->
                   let line = String.trim line in
                   line <> "" && not (String.length line > 0 && line.[0] = '#')))
          files
        @ List.map (fun src -> ("--formula", src)) formulas
      in
      if inputs = [] then
        usage "folearn lint: no formulas given (FILE or --formula)";
      let parse_diag msg =
        [ Diagnostic.make ~rule:"parse-error" msg ]
      in
      let check_one (_, src) =
        match lang with
        | `Fo -> (
            match Fo.Parser.parse (String.trim src) with
            | f ->
                let ds =
                  Fo_check.check ?vocab ?allowed_free
                    ~budget:
                      (Fo_check.budget ?max_rank:q ?max_free ?radius ())
                    f
                in
                if cost then ds @ [ Fo_check.cost_diagnostic ?vocab f ]
                else ds
            | exception Fo.Parser.Parse_error m -> parse_diag m)
        | (`Mso | `Trees) as lang -> (
            let structure = if lang = `Trees then `Trees else `Words in
            match Mso.Parser.parse ~structure ~letters (String.trim src) with
            | f -> Mso_check.check ?sigma ?allowed_free ?max_rank:q f
            | exception Mso.Parser.Parse_error m -> parse_diag m)
      in
      let results =
        List.map (fun input -> (input, check_one input)) inputs
      in
      let failing ds =
        Diagnostic.errors ds <> []
        || (strict && Diagnostic.warnings ds <> [])
      in
      (match format with
      | `Sarif ->
          print_string
            (Sarif.to_string
               (List.map (fun ((origin, _), ds) -> (origin, ds)) results));
          print_newline ()
      | `Json ->
          Format.printf "[%s]@."
            (String.concat ", "
               (List.map
                  (fun ((origin, src), ds) ->
                    Printf.sprintf
                      {|{"origin": %s, "formula": %s, "ok": %b, "diagnostics": %s}|}
                      (Diagnostic.json_string origin)
                      (Diagnostic.json_string (String.trim src))
                      (not (failing ds))
                      (Diagnostic.list_to_json ds))
                  results))
      | `Human ->
          List.iter
            (fun ((origin, src), ds) ->
              if ds <> [] then begin
                Format.printf "%s: %s@." origin (String.trim src);
                List.iter (fun d -> Format.printf "  %a@." Diagnostic.pp d) ds
              end)
            results;
          let count sel =
            List.fold_left
              (fun acc (_, ds) -> acc + List.length (sel ds))
              0 results
          in
          Format.printf
            "%d formulas: %d errors, %d warnings, %d hints@."
            (List.length results)
            (count Diagnostic.errors)
            (count Diagnostic.warnings)
            (count Diagnostic.hints));
      if List.exists (fun (_, ds) -> failing ds) results then 1 else 0
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyse FO/MSO formulas: signature conformance, \
          scopes, paper budgets, locality, simplification hints.")
    Term.(
      const run $ files_arg $ formulas_arg $ lang_arg $ vocab_arg
      $ alphabet_arg $ free_arg $ q_arg $ max_free_arg $ radius_arg
      $ format_arg $ strict_arg $ list_rules_arg $ cost_arg)

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "A metrics snapshot (from $(b,--stats-json)) or a benchmark \
             telemetry file ($(b,BENCH_*.json)).")
  in
  let run path =
    let text = In_channel.with_open_text path In_channel.input_all in
    match Obs.Json.of_string text with
    | Error m ->
        Format.eprintf "folearn stats: %s: %s@." path m;
        2
    | Ok doc -> (
        (* BENCH_*.json wraps the snapshot under "metrics" beside the
           headline numbers; a bare snapshot is the document itself. *)
        let snap_json =
          match Obs.Json.member "metrics" doc with
          | Some m ->
              let field name conv = Option.bind (Obs.Json.member name doc) conv in
              (match field "experiment" Obs.Json.to_string_opt with
              | Some e -> Format.printf "experiment: %s@." e
              | None -> ());
              (match field "wall_time_s" Obs.Json.to_float_opt with
              | Some t -> Format.printf "wall time: %.3f s@." t
              | None -> ());
              (match field "model_check_calls" Obs.Json.to_int_opt with
              | Some n -> Format.printf "model-check calls: %d@." n
              | None -> ());
              (match field "hypotheses_enumerated" Obs.Json.to_int_opt with
              | Some n -> Format.printf "hypotheses enumerated: %d@." n
              | None -> ());
              m
          | None -> doc
        in
        match Obs.Metric.snapshot_of_json snap_json with
        | Ok snap ->
            Format.printf "%a" Obs.Metric.pp_snapshot snap;
            0
        | Error m ->
            Format.eprintf "folearn stats: %s: %s@." path m;
            2)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Pretty-print a saved metrics snapshot or a BENCH_*.json \
          telemetry file.")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* pulse                                                               *)
(* ------------------------------------------------------------------ *)

let pulse_cmd =
  let file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"A flight-recorder dump (from $(b,--fdr)) to decode.")
  in
  let addr_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "addr" ] ~docv:"ADDR"
          ~doc:
            "A live exporter to query instead: $(b,unix:PATH), \
             $(b,HOST:PORT) or $(b,:PORT), as given to \
             $(b,--metrics-addr).")
  in
  let endpoint_arg =
    Arg.(
      value & opt string "/progress"
      & info [ "endpoint" ] ~docv:"PATH"
          ~doc:
            "Endpoint to fetch with $(b,--addr): /progress (default), \
             /metrics, /metrics.json or /healthz.")
  in
  let run file addr endpoint =
    match (file, addr) with
    | Some path, _ -> (
        match Pulse.Fdr.load path with
        | Ok d ->
            Format.printf "%a" Pulse.Fdr.pp d;
            0
        | Error m ->
            Format.eprintf "folearn pulse: %s: %s@." path m;
            2)
    | None, Some spec -> (
        match Pulse.Addr.parse spec with
        | Error m ->
            Format.eprintf "folearn pulse: --addr %s@." m;
            2
        | Ok a -> (
            match Pulse.Client.get a endpoint with
            | Error m ->
                Format.eprintf "folearn pulse: %s@." m;
                1
            | Ok body -> (
                (* JSON objects print one member per line; everything
                   else (Prometheus text, healthz) passes through *)
                match Obs.Json.of_string body with
                | Ok (Obs.Json.Obj members) ->
                    List.iter
                      (fun (key, v) ->
                        Format.printf "%-16s %s@." key (Obs.Json.to_string v))
                      members;
                    0
                | _ ->
                    print_string body;
                    0)))
    | None, None ->
        Format.eprintf
          "folearn pulse: give a flight-recorder FILE or --addr@.";
        2
  in
  Cmd.v
    (Cmd.info "pulse"
       ~doc:
         "Decode a flight-recorder dump, or query a live \
          $(b,--metrics-addr) exporter.")
    Term.(const run $ file_arg $ addr_arg $ endpoint_arg)

(* ------------------------------------------------------------------ *)
(* serve / call / submit / poll: the resident service (folserve)       *)
(* ------------------------------------------------------------------ *)

let addr_of_spec ~cmd ~flag spec =
  match Pulse.Addr.parse spec with
  | Ok a -> a
  | Error m ->
      Format.eprintf "folearn %s: %s %s@." cmd flag m;
      exit 2

let serve_cmd =
  let listen_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Where to accept requests: $(b,unix:PATH), $(b,HOST:PORT) or \
             $(b,:PORT).")
  in
  let tenant_arg =
    Arg.(
      value & opt_all string []
      & info [ "tenant" ] ~docv:"NAME:QUOTA"
          ~doc:
            "Per-tenant admission quota (repeatable): \
             $(b,NAME:fuel=N,deadline=S,table=N,ball=N), every term \
             optional.  Requests are clamped to their tenant's quota; \
             $(b,*) sets the default for unlisted tenants.")
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 32
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Bounded request queue depth; a full queue sheds the \
             earliest-deadline request with an $(b,overloaded) response.")
  in
  let job_dir_arg =
    Arg.(
      value & opt string "folearn-jobs"
      & info [ "job-dir" ] ~docv:"DIR"
          ~doc:
            "Durable job table and snapshots; a restarted server resumes \
             unfinished jobs from here.")
  in
  let max_conns_arg =
    Arg.(
      value & opt int 64
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Concurrent connection cap; excess connects are refused \
                $(b,overloaded).")
  in
  let run listen tenants queue_cap job_dir max_conns jobs metrics_addr =
    let tenants =
      List.map
        (fun spec ->
          match Serve.Tenant.parse spec with
          | Ok kv -> kv
          | Error m ->
              Format.eprintf "folearn serve: --tenant %s@." m;
              exit 2)
        tenants
    in
    let engine_jobs =
      match jobs with
      | None -> 1
      | Some n when n >= 1 -> n
      | Some n ->
          Format.eprintf "folearn serve: --jobs must be >= 1 (got %d)@." n;
          exit 2
    in
    let cfg =
      {
        Serve.Daemon.listen = addr_of_spec ~cmd:"serve" ~flag:"--listen" listen;
        tenants = Serve.Tenant.make tenants;
        queue_cap;
        job_dir;
        max_conns;
        engine_jobs;
        metrics_addr =
          Option.map
            (addr_of_spec ~cmd:"serve" ~flag:"--metrics-addr")
            metrics_addr;
      }
    in
    match Serve.Daemon.run cfg with
    | Ok code -> code
    | Error m ->
        Format.eprintf "folearn serve: %s@." m;
        1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident learning service: warm shared state, \
          per-tenant admission control, bounded queue with load \
          shedding, resumable jobs, graceful drain on SIGTERM.")
    Term.(
      const run $ listen_arg $ tenant_arg $ queue_cap_arg $ job_dir_arg
      $ max_conns_arg $ jobs_arg $ metrics_addr_arg)

(* client side: one request per invocation, framed over the socket;
   the response's stdout/stderr/code reproduce the one-shot CLI *)

let connect_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:
          "Server address: $(b,unix:PATH), $(b,HOST:PORT) or $(b,:PORT), \
           as given to $(b,folearn serve --listen).")

let rpc_tenant_arg =
  Arg.(
    value & opt string "anon"
    & info [ "tenant" ] ~docv:"NAME"
        ~doc:"Tenant to bill this request to (admission quotas apply).")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry up to $(docv) times, with exponential backoff, when the \
           server answers $(b,overloaded) or $(b,draining) (exit 75) or \
           the connection fails.")

let backoff_arg =
  Arg.(
    value & opt float 0.2
    & info [ "backoff" ] ~docv:"SECONDS"
        ~doc:"Initial retry backoff; doubles per attempt.")

let rpc_timeout_arg =
  Arg.(
    value & opt float 60.0
    & info [ "rpc-timeout" ] ~docv:"SECONDS"
        ~doc:"Socket receive timeout while waiting for the response.")

let rpc_with_retries ~cmd ~connect ~retries ~backoff ~timeout_s req =
  let addr = addr_of_spec ~cmd ~flag:"--connect" connect in
  let rec attempt i sleep =
    let retryable () =
      if i < retries then begin
        Unix.sleepf sleep;
        attempt (i + 1) (sleep *. 2.0)
      end
      else None
    in
    match
      Serve.Client.rpc ~timeout_s addr (Serve.Proto.request_to_json req)
    with
    | Error m -> (
        match retryable () with
        | Some r -> Some r
        | None ->
            Format.eprintf "folearn %s: %s@." cmd m;
            None)
    | Ok resp ->
        if Serve.Proto.resp_code resp = Serve.Proto.exit_retry then
          match retryable () with Some r -> Some r | None -> Some resp
        else Some resp
  in
  attempt 0 backoff

(* the connection flags of call, submit and poll: a term yielding the
   request function they share *)
let rpc_term ~cmd =
  let mk connect tenant retries backoff timeout_s ~op ~budget params =
    rpc_with_retries ~cmd ~connect ~retries ~backoff ~timeout_s
      { Serve.Proto.tenant; op; budget; params }
  in
  Term.(
    const mk $ connect_arg $ rpc_tenant_arg $ retries_arg $ backoff_arg
    $ rpc_timeout_arg)

(* replay the remote run locally: its stdout to stdout, stderr to
   stderr, its status code as the exit code *)
let render_response resp =
  print_string (Serve.Proto.resp_stdout resp);
  prerr_string (Serve.Proto.resp_stderr resp);
  flush stdout;
  flush stderr;
  Serve.Proto.resp_code resp

(* `call OP` takes OP's parameter term, so it accepts exactly the flags
   of the local OP (run control aside) *)
let call_cmd =
  let call op ~doc ?(budget = budget_term) params =
    let run rpc budget params =
      match rpc ~op ~budget params with
      | None -> 1
      | Some resp -> render_response resp
    in
    Cmd.v (Cmd.info op ~doc)
      Term.(const run $ rpc_term ~cmd:"call" $ budget $ params)
  in
  Cmd.group
    (Cmd.info "call"
       ~doc:
         "Run one op on a resident $(b,folearn serve) and replay its \
          stdout/stderr/exit code locally.")
    [
      call "learn" ~doc:"Serve a $(b,learn)." learn_term;
      call "mc" ~doc:"Serve an $(b,mc)." mc_term;
      call "types" ~doc:"Serve a $(b,types)." types_term;
      call "game" ~doc:"Serve a $(b,game)." game_term;
      call "ping" ~doc:"Check that the server answers."
        ~budget:(Term.const Serve.Proto.no_budget)
        (Term.const (J.Obj []));
    ]

let submit_cmd =
  let run rpc budget params =
    match rpc ~op:"submit" ~budget params with
    | None -> 1
    | Some resp ->
        prerr_string (Serve.Proto.resp_stderr resp);
        (match Option.bind (J.member "job" resp) (J.member "id") with
        | Some (J.String id) ->
            let status = Serve.Proto.resp_status resp in
            Printf.printf "folearn submit: job %s %s\n" id status
        | _ -> ());
        flush stdout;
        flush stderr;
        Serve.Proto.resp_code resp
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a learn as a resumable server-side job; poll it with \
          $(b,folearn poll).  Submitting identical work is idempotent.  \
          Takes the parameter flags of $(b,learn).")
    Term.(const run $ rpc_term ~cmd:"submit" $ budget_term $ learn_term)

let poll_cmd =
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOB"
          ~doc:"Job id, as printed by $(b,folearn submit).")
  in
  let wait_arg =
    Arg.(
      value & opt float 0.0
      & info [ "wait" ] ~docv:"SECONDS"
          ~doc:
            "Keep polling until the job settles or $(docv) elapse \
             (0 = ask once).")
  in
  let run id rpc wait =
    let pending resp =
      match Serve.Proto.resp_status resp with
      | "queued" | "running" -> true
      | _ -> false
    in
    let deadline = Unix.gettimeofday () +. wait in
    let rec ask () =
      match
        rpc ~op:"poll" ~budget:Serve.Proto.no_budget
          (J.Obj [ ("id", J.String id) ])
      with
      | None -> None
      | Some resp ->
          if pending resp && Unix.gettimeofday () < deadline then begin
            Unix.sleepf 0.2;
            ask ()
          end
          else Some resp
    in
    match ask () with
    | None -> 1
    | Some resp ->
        if pending resp then begin
          Format.eprintf "folearn poll: job %s still %s@." id
            (Serve.Proto.resp_status resp);
          0
        end
        else render_response resp
  in
  Cmd.v
    (Cmd.info "poll"
       ~doc:
         "Fetch a submitted job's result (or best-so-far status).  A \
          stale or foreign job id yields a structured \
          $(b,job_mismatch).")
    Term.(const run $ id_arg $ rpc_term ~cmd:"poll" $ wait_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "learning first-order queries (PODS 2022 reproduction)" in
  let info = Cmd.info "folearn" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            learn_cmd; plan_cmd; mc_cmd; types_cmd; game_cmd; graph_cmd;
            strings_cmd; trees_cmd; lint_cmd; stats_cmd; pulse_cmd;
            serve_cmd; call_cmd; submit_cmd; poll_cmd;
          ]))
