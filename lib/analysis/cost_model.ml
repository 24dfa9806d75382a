module Count = struct
  type t = Finite of int | Saturated

  let zero = Finite 0
  let one = Finite 1
  let saturated = Saturated

  let of_int n = if n < 0 then invalid_arg "Count.of_int: negative" else Finite n

  let add a b =
    match (a, b) with
    | Saturated, _ | _, Saturated -> Saturated
    | Finite a, Finite b -> if a > max_int - b then Saturated else Finite (a + b)

  let mul a b =
    match (a, b) with
    | Finite 0, _ | _, Finite 0 -> Finite 0
    | Saturated, _ | _, Saturated -> Saturated
    | Finite a, Finite b -> if a > max_int / b then Saturated else Finite (a * b)

  let rec pow base e =
    if e < 0 then invalid_arg "Count.pow: negative exponent"
    else if e = 0 then one
    else mul base (pow base (e - 1))

  (* Sum_{j=0}^{upto} base^j — the row count of a rank-[upto] type-table
     chain over a [base]-element domain. *)
  let sum_powers ~base ~upto =
    let rec go j acc = if j > upto then acc else go (j + 1) (add acc (pow base j)) in
    if upto < 0 then zero else go 0 zero

  let min_cap t cap =
    match t with
    | Saturated -> Finite cap
    | Finite n -> Finite (min n cap)

  let to_int_opt = function Finite n -> Some n | Saturated -> None

  let leq a b =
    match (a, b) with
    | _, Saturated -> true
    | Saturated, Finite _ -> false
    | Finite a, Finite b -> a <= b

  (* Is the limit [limit] certainly insufficient / certainly sufficient
     for a quantity known to lie in an interval?  [Saturated] means
     "at least [max_int]", so a finite limit is below it. *)
  let exceeds_int t limit =
    match t with Saturated -> true | Finite n -> n > limit

  let to_json = function
    | Finite n -> Obs.Json.Int n
    | Saturated -> Obs.Json.String "saturated"

  let pp ppf = function
    | Finite n -> Format.pp_print_int ppf n
    | Saturated -> Format.pp_print_string ppf "saturated"
end

module Log2 = struct
  type t = Finite of float | Saturated

  let of_float f =
    if Float.is_finite f then Finite f
    else if f = Float.infinity then Saturated
    else invalid_arg "Log2.of_float: nan or -inf"

  let to_json = function
    | Finite f -> Obs.Json.Float f
    | Saturated -> Obs.Json.String "saturated"

  let pp ppf = function
    | Finite f -> Format.fprintf ppf "%g" f
    | Saturated -> Format.pp_print_string ppf "saturated"
end

module Env = struct
  type t = { lo : Count.t; hi : Count.t }

  let exact c = { lo = c; hi = c }
  let make ~lo ~hi = { lo; hi }
  let add a b = { lo = Count.add a.lo b.lo; hi = Count.add a.hi b.hi }
  let mul a b = { lo = Count.mul a.lo b.lo; hi = Count.mul a.hi b.hi }

  let to_json t =
    Obs.Json.Obj [ ("lo", Count.to_json t.lo); ("hi", Count.to_json t.hi) ]

  let pp ppf t = Format.fprintf ppf "[%a, %a]" Count.pp t.lo Count.pp t.hi
end

(* ------------------------------------------------------------------ *)
(* Paper bounds                                                        *)
(* ------------------------------------------------------------------ *)

let hintikka_log2 ~colors ~q ~k =
  let atoms k = float_of_int ((k * (k - 1)) + (k * colors)) in
  let rec log2_t q k =
    if q <= 0 then Log2.Finite (atoms k)
    else
      match log2_t (q - 1) (k + 1) with
      | Log2.Saturated -> Log2.Saturated
      | Log2.Finite sub ->
          if sub > 62.0 then Log2.Saturated
          else Log2.Finite (atoms k +. Float.exp2 sub)
  in
  log2_t q k

let ramsey_r233_log2 ~s_log2 =
  match s_log2 with
  | Log2.Saturated -> Log2.Saturated
  | Log2.Finite s_log2 ->
      if s_log2 > 62.0 then Log2.Saturated
      else begin
        let s = Float.exp2 s_log2 in
        if s < 2.0 then Log2.Finite (Float.log2 3.0)
        else
          let log2_e = Float.log2 (Float.exp 1.0) in
          Log2.of_float
            ((s *. (s_log2 -. log2_e))
            +. (0.5 *. Float.log2 (2.0 *. Float.pi *. s))
            +. log2_e)
      end

let gaifman_radius q =
  if q < 0 then invalid_arg "Cost_model.gaifman_radius: negative rank"
  else
    (* (7^q - 1) / 2, the radius from Gaifman's locality theorem *)
    let sevens = Count.pow (Count.of_int 7) q in
    match sevens with
    | Count.Saturated -> Count.Saturated
    | Count.Finite s -> Count.Finite ((s - 1) / 2)

let type_table_rows ~n ~q = Count.sum_powers ~base:(Count.of_int n) ~upto:q

let candidate_count ~n ~ell = Count.pow (Count.of_int n) ell

let local_candidate_count ~pool ~ell =
  Count.sum_powers ~base:(Count.of_int pool) ~upto:ell

let catalogue_cardinality ~types ~max_size =
  if types < 0 then invalid_arg "Cost_model.catalogue_cardinality: negative"
  else
    let all =
      if types >= Sys.int_size - 1 then Count.Saturated
      else Count.of_int ((1 lsl types) - 1)
    in
    Count.min_cap all max_size
