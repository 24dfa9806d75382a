open Cgraph
module Types = Modelcheck.Types

(* realised local (q,r)-types of (1+ell)-tuples, as canonical types *)
let realised_types ?budget g ~ell ~q ~r =
  let ctx = Types.make_ctx ?budget g in
  Types.partition_by_ltp ctx ~q ~r
    (Graph.Tuple.all ~n:(Graph.order g) ~k:(1 + ell))
  |> List.map fst

(* the formula "ltp(x, y1..yell) ∈ {θ}": relativised Hintikka over the
   Algorithm 2 variable convention (x, y1, ..., yell) *)
let formula_of_types ?budget g ~ell ~q:_ ~r thetas =
  let colors = Graph.color_names g in
  let vars = Modelcheck.Hintikka.variables (1 + ell) in
  let rename =
    ("x1", "x")
    :: List.init ell (fun i ->
           (Printf.sprintf "x%d" (i + 2), Printf.sprintf "y%d" (i + 1)))
  in
  Fo.Formula.or_
    (List.map
       (fun theta ->
         Fo.Formula.substitute rename
           (Fo.Localize.relativize ~r ~around:vars
              (Modelcheck.Hintikka.of_type ?budget ~colors theta)))
       thetas)

(* enumerate subsets in order of increasing cardinality, skipping the
   empty set, stopping at [limit] — streamed so a budget checkpoint in
   the consumer can stop the walk before the subset lattice blows up *)
let iter_subsets_smallest_first items ~limit f =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let count = ref 0 in
  try
    for size = 1 to n do
      (* all index subsets of the given size *)
      let rec choose start acc len =
        if len = size then begin
          incr count;
          f (List.rev_map (fun i -> arr.(i)) acc);
          if !count >= limit then raise Exit
        end
        else
          for i = start to n - 1 do
            choose (i + 1) (i :: acc) (len + 1)
          done
      in
      choose 0 [] 0
    done
  with Exit -> ()

(* grows the catalogue into [acc] (newest first) so a budgeted caller
   can salvage the formulas built before a trip *)
let build ?budget g ~ell ~q ~r ~max_size acc =
  let types = realised_types ?budget g ~ell ~q ~r in
  let count = ref 0 in
  iter_subsets_smallest_first types ~limit:max_size (fun thetas ->
      incr count;
      Guard.note_catalogue budget !count;
      acc := formula_of_types ?budget g ~ell ~q ~r thetas :: !acc);
  List.rev !acc

let of_local_types g ~ell ~q ~r ?(max_size = 256) () =
  if ell < 0 then invalid_arg "Catalogue.of_local_types: negative ell";
  build g ~ell ~q ~r ~max_size (ref [])

let of_local_types_budgeted ?budget g ~ell ~q ~r ?(max_size = 256) () =
  if ell < 0 then invalid_arg "Catalogue.of_local_types: negative ell";
  let acc = ref [] in
  Guard.run ?budget
    ~salvage:(fun () ->
      match !acc with [] -> None | fs -> Some (List.rev fs))
    (fun () -> build ?budget g ~ell ~q ~r ~max_size acc)

let positive_types_only g ~ell ~q ~r =
  List.map
    (fun theta -> formula_of_types g ~ell ~q ~r [ theta ])
    (realised_types g ~ell ~q ~r)
