type cover = {
  centers : Graph.vertex list;
  radius : int;
  rounds : int;
}

(* Pairwise ball-disjointness: N_R(z) and N_R(z') are disjoint iff
   dist(z, z') > 2R. *)
let balls_disjoint ?budget g ~radius zs =
  let rec go = function
    | [] -> true
    | z :: rest ->
        let d = Bfs.distances ?budget g z in
        List.for_all (fun z' -> d.(z') > 2 * radius) rest && go rest
  in
  go zs

(* Inclusion-wise maximal subset of [zs] with pairwise-disjoint R-balls:
   greedily keep a vertex if its ball avoids all kept balls. *)
let maximal_disjoint ?budget g ~radius zs =
  List.fold_left
    (fun kept z ->
      let d = Bfs.distances ?budget g z in
      if List.for_all (fun z' -> d.(z') > 2 * radius) kept then z :: kept
      else kept)
    [] zs
  |> List.rev

let covered g ~r xs ~radius zs =
  (* N_r(X) ⊆ N_R(Z) *)
  let dz = Bfs.distances_multi g zs in
  List.for_all (fun v -> dz.(v) <= radius) (Bfs.ball g ~r xs)

let cover ?budget g ~r xs =
  if r < 1 then invalid_arg "Vitali.cover: need r >= 1";
  if xs = [] then invalid_arg "Vitali.cover: empty centre set";
  let xs = List.sort_uniq Int.compare xs in
  let rec go zs radius rounds =
    if balls_disjoint ?budget g ~radius zs then
      { centers = List.sort Int.compare zs; radius; rounds }
    else
      let zs' = maximal_disjoint ?budget g ~radius zs in
      go zs' (3 * radius) (rounds + 1)
  in
  go xs r 0

let check g ~r xs c =
  let xs = List.sort_uniq Int.compare xs in
  List.for_all (fun z -> List.mem z xs) c.centers
  && balls_disjoint g ~radius:c.radius c.centers
  && covered g ~r xs ~radius:c.radius c.centers
  && (let rec pow3 i = if i = 0 then 1 else 3 * pow3 (i - 1) in
      c.radius = r * pow3 c.rounds)
  && c.rounds <= List.length xs - 1
