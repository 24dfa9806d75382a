open Cgraph
module Types = Modelcheck.Types

type violation = {
  left : Graph.Tuple.t;
  right : Graph.Tuple.t;
  local_type : Types.ty;
}

let violations g ~q ~r ~k =
  Obs.Span.with_ "locality.violations"
    ~args:
      [ ("q", string_of_int q); ("r", string_of_int r); ("k", string_of_int k) ]
  @@ fun () ->
  let ctx = Types.make_ctx g in
  let tuples = Graph.Tuple.all ~n:(Graph.order g) ~k in
  let local_classes = Types.partition_by_ltp ctx ~q ~r tuples in
  List.concat_map
    (fun (lt, members) ->
      (* within one local class, global types must coincide; report one
         witness pair per extra global class *)
      match Types.partition_by_tp ctx ~q members with
      | [] | [ _ ] -> []
      | (_, first :: _) :: rest ->
          List.filter_map
            (fun (_, members') ->
              match members' with
              | other :: _ -> Some { left = first; right = other; local_type = lt }
              | [] -> None)
            rest
      | ( _, [] ) :: _ -> [])
    local_classes

let fact5_holds g ~q ~r ~k = violations g ~q ~r ~k = []

let minimal_radius g ~q ~k ~max_r =
  let rec go r =
    if r > max_r then None
    else if fact5_holds g ~q ~r ~k then Some r
    else go (r + 1)
  in
  go 0
