open Cgraph
module Types = Modelcheck.Types

type t = {
  g : Graph.t;
  q : int;
  r : int;
  class_of : int array;  (** vertex -> dense class id *)
  ty_of_class : Types.ty array;
  classes : int;
}

let classes_gauge = Obs.Metric.gauge "preindex.classes"
let build_calls = Obs.Metric.counter "preindex.builds"

let build g ~q ~r =
  Obs.Span.with_ "preindex.build"
    ~args:[ ("q", string_of_int q); ("r", string_of_int r) ]
  @@ fun () ->
  Obs.Metric.incr build_calls;
  (* the local type of each vertex, on one context; dense class ids in
     vertex order *)
  let ctx = Types.make_ctx g in
  let ids : (Types.ty, int) Hashtbl.t = Hashtbl.create 32 in
  let tys = ref [] in
  let class_of =
    Array.init (Graph.order g) (fun v ->
        let ty = Types.ltp ctx ~q ~r [| v |] in
        match Hashtbl.find_opt ids ty with
        | Some c -> c
        | None ->
            let c = Hashtbl.length ids in
            Hashtbl.replace ids ty c;
            tys := ty :: !tys;
            c)
  in
  Obs.Metric.set classes_gauge (float_of_int (Hashtbl.length ids));
  {
    g;
    q;
    r;
    class_of;
    ty_of_class = Array.of_list (List.rev !tys);
    classes = Hashtbl.length ids;
  }

let graph idx = idx.g
let class_count idx = idx.classes

let vertex_class idx v =
  if v < 0 || v >= Array.length idx.class_of then
    raise (Graph.Invalid_vertex v);
  idx.class_of.(v)

type answer = {
  hypothesis : Hypothesis.t;
  err : float;
}

let erm idx lam =
  (match Sample.arity lam with
  | Some 1 | None -> ()
  | Some k ->
      invalid_arg
        (Printf.sprintf "Preindex.erm: unary examples required, got arity %d" k));
  let pos = Array.make idx.classes 0 and neg = Array.make idx.classes 0 in
  List.iter
    (fun (v, label) ->
      let c = vertex_class idx v.(0) in
      if label then pos.(c) <- pos.(c) + 1 else neg.(c) <- neg.(c) + 1)
    lam;
  let chosen = ref [] and errs = ref 0 in
  for c = 0 to idx.classes - 1 do
    if pos.(c) > neg.(c) then begin
      chosen := idx.ty_of_class.(c) :: !chosen;
      errs := !errs + neg.(c)
    end
    else errs := !errs + pos.(c)
  done;
  let m = Sample.size lam in
  {
    hypothesis =
      Hypothesis.of_local_types idx.g ~k:1 ~q:idx.q ~r:idx.r ~types:!chosen
        ~params:[||];
    err = (if m = 0 then 0.0 else float_of_int !errs /. float_of_int m);
  }
