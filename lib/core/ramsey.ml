(* Saturating arithmetic.  The old code only tested [x < 0] after a
   native multiplication, which misses products that wrap past min_int
   back into the positives — [R(2, s, 3)] bounds do exactly that for
   modest [s].  All quantities here are non-negative, so saturation is
   detected {e before} the operation. *)

type bound = Finite of int | Saturated

(* both operands must be >= 0 *)
let ( +! ) a b =
  match (a, b) with
  | Finite a, Finite b -> if a > max_int - b then Saturated else Finite (a + b)
  | _ -> Saturated

let ( *! ) a b =
  match (a, b) with
  | Finite a, Finite b ->
      if a <> 0 && b > max_int / a then Saturated else Finite (a * b)
  | _ -> Saturated

let to_exn name = function
  | Finite v -> v
  | Saturated -> invalid_arg (name ^ ": overflow")

let factorial_sat n =
  if n < 0 then invalid_arg "Ramsey.factorial: negative input";
  let rec go acc i = if i > n then acc else go (acc *! Finite i) (i + 1) in
  go (Finite 1) 1

let factorial n = to_exn "Ramsey.factorial" (factorial_sat n)

let binomial_sat n k =
  if k < 0 || k > n then Finite 0
  else begin
    let k = min k (n - k) in
    let rec go acc i =
      if i > k then acc
      else
        (* exact: acc holds C(n-k+i-1, i-1), and i consecutive integers
           ending at n-k+i contain a multiple of i *)
        match acc *! Finite (n - k + i) with
        | Saturated -> Saturated
        | Finite p -> go (Finite (p / i)) (i + 1)
    in
    go (Finite 1) 1
  end

let binomial n k = to_exn "Ramsey.binomial" (binomial_sat n k)

let triangle_bound_sat ~colors =
  if colors < 1 then invalid_arg "Ramsey.triangle_bound: need >= 1 colour";
  (* R_s(3) <= floor(s! * e) + 1 = 1 + sum_{i=0..s} s!/i!  (Greenwood-
     Gleason style bound) *)
  let s = colors in
  let total = ref (Finite 0) in
  let term = ref (Finite 1) in
  (* term = s! / i! computed downwards from i = s (term 1) to i = 0 *)
  for i = s downto 0 do
    total := !total +! !term;
    if i >= 1 then term := !term *! Finite i
  done;
  !total +! Finite 1

let triangle_bound ~colors =
  to_exn "Ramsey.triangle_bound" (triangle_bound_sat ~colors)

let ramsey_upper_sat ~colors ~clique =
  if colors < 1 || clique < 1 then
    invalid_arg "Ramsey.ramsey_upper: need colors, clique >= 1";
  let memo : (int list, bound) Hashtbl.t = Hashtbl.create 64 in
  (* args: multiset of clique targets, sorted *)
  let rec r args =
    match args with
    | [] -> Finite 1
    | _ when List.mem 1 args -> Finite 1
    | [ m ] -> Finite m (* one colour: K_m appears at n = m *)
    | _ when List.mem 2 args ->
        (* R(2, rest) = R(rest): either some pair takes the "2" colour,
           or the colouring never uses it *)
        let rec drop_one = function
          | 2 :: rest -> rest
          | x :: rest -> x :: drop_one rest
          | [] -> []
        in
        r (drop_one args)
    | _ -> (
        let args = List.sort compare args in
        match Hashtbl.find_opt memo args with
        | Some v -> v
        | None ->
            let s = List.length args in
            let sum =
              List.fold_left ( +! ) (Finite 0)
                (List.mapi
                   (fun i _ ->
                     r (List.mapi (fun j m -> if i = j then m - 1 else m) args))
                   args)
            in
            (* the recurrence's 2 - s correction; each child is >= 1 so
               the true total stays >= 2 and subtraction cannot wrap *)
            let total =
              match sum with
              | Saturated -> Saturated
              | Finite v -> Finite (v + 2 - s)
            in
            Hashtbl.replace memo args total;
            total)
  in
  r (List.init colors (fun _ -> clique))

let ramsey_upper ~colors ~clique =
  to_exn "Ramsey.ramsey_upper" (ramsey_upper_sat ~colors ~clique)

let monochromatic_triple ~color ~equal vs =
  let arr = Array.of_list (List.sort_uniq compare vs) in
  let n = Array.length arr in
  let found = ref None in
  (try
     for i = 0 to n - 1 do
       for j = i + 1 to n - 1 do
         let cij = color arr.(i) arr.(j) in
         for l = j + 1 to n - 1 do
           if
             equal cij (color arr.(i) arr.(l))
             && equal cij (color arr.(j) arr.(l))
           then begin
             found := Some (arr.(i), arr.(j), arr.(l));
             raise Exit
           end
         done
       done
     done
   with Exit -> ());
  !found

let eliminate_until_ramsey_free ~color ~equal vs =
  let rec go vs =
    match monochromatic_triple ~color ~equal vs with
    | None -> vs
    | Some (_, v2, _) -> go (List.filter (fun v -> v <> v2) vs)
  in
  go (List.sort_uniq compare vs)
