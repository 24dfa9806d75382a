open Cgraph
module Types = Modelcheck.Types

(* Dichotomies realised on S for one parameter tuple w̄: all labelings of
   S constant on the q-type classes of v̄·w̄.  Represented as bitmasks over
   the positions of S. *)
let dichotomies_for ctx ~q ~params s =
  let classes : (Types.ty, int) Hashtbl.t = Hashtbl.create 16 in
  let class_masks = ref [] in
  Types.with_candidate ctx ~q params (fun tp ->
      List.iteri
        (fun pos v ->
          let t = tp v in
          match Hashtbl.find_opt classes t with
          | Some idx ->
              class_masks :=
                List.mapi
                  (fun i m -> if i = idx then m lor (1 lsl pos) else m)
                  !class_masks
          | None ->
              Hashtbl.replace classes t (List.length !class_masks);
              class_masks := !class_masks @ [ 1 lsl pos ])
        s);
  (* all unions of a subset of class masks *)
  let masks = Array.of_list !class_masks in
  let c = Array.length masks in
  List.init (1 lsl c) (fun choice ->
      let acc = ref 0 in
      for i = 0 to c - 1 do
        if choice land (1 lsl i) <> 0 then acc := !acc lor masks.(i)
      done;
      !acc)

let all_dichotomies g ~k:_ ~ell ~q s =
  let ctx = Types.make_ctx g in
  let n = Graph.order g in
  let seen = Hashtbl.create 256 in
  List.iter
    (fun params ->
      List.iter
        (fun mask -> Hashtbl.replace seen mask ())
        (dichotomies_for ctx ~q ~params s))
    (Graph.Tuple.all ~n ~k:ell);
  seen

let dichotomy_count g ~k ~ell ~q s =
  if List.length s > 20 then invalid_arg "Vc.dichotomy_count: set too large";
  Hashtbl.length (all_dichotomies g ~k ~ell ~q s)

let is_shattered g ~k ~ell ~q s =
  dichotomy_count g ~k ~ell ~q s = 1 lsl List.length s

let lower_bound ?(seed = 7) ?(attempts = 40) g ~k ~ell ~q ~max_d =
  let st = Random.State.make [| seed; 0xc |] in
  let n = Graph.order g in
  if n = 0 then 0
  else begin
    let random_tuple () = Array.init k (fun _ -> Random.State.int st n) in
    let best = ref 0 in
    for _ = 1 to attempts do
      (* greedy growth: keep adding random tuples while still shattered *)
      let rec grow s size =
        if size >= max_d then size
        else begin
          let rec try_extend tries =
            if tries = 0 then None
            else begin
              let v = random_tuple () in
              if List.exists (fun u -> Graph.Tuple.equal u v) s then
                try_extend (tries - 1)
              else if is_shattered g ~k ~ell ~q (v :: s) then Some (v :: s)
              else try_extend (tries - 1)
            end
          in
          match try_extend 12 with
          | Some s' -> grow s' (size + 1)
          | None -> size
        end
      in
      best := max !best (grow [] 0)
    done;
    !best
  end

let exact_small g ~k ~ell ~q ~max_d =
  let tuples = Graph.Tuple.all ~n:(Graph.order g) ~k in
  let rec subsets_of_size d = function
    | _ when d = 0 -> [ [] ]
    | [] -> []
    | x :: rest ->
        List.map (fun s -> x :: s) (subsets_of_size (d - 1) rest)
        @ subsets_of_size d rest
  in
  let rec go d =
    if d > max_d then max_d
    else if
      List.exists
        (fun s -> is_shattered g ~k ~ell ~q s)
        (subsets_of_size (d + 1) tuples)
    then go (d + 1)
    else d
  in
  go 0
