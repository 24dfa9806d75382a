type t = (string * Guard.Limits.t) list

let parse spec =
  match String.index_opt spec ':' with
  | None -> Error "tenant quota must be NAME:fuel=N,deadline=S,table=N,ball=N"
  | Some i -> (
      let name = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      if name = "" then Error "empty tenant name"
      else
        let parts =
          if rest = "" then [] else String.split_on_char ',' rest
        in
        let rec go (q : Guard.Limits.t) = function
          | [] -> Ok (name, q)
          | part :: tl -> (
              match String.index_opt part '=' with
              | None -> Error (Printf.sprintf "bad quota term %S" part)
              | Some j -> (
                  let key = String.sub part 0 j in
                  let v = String.sub part (j + 1) (String.length part - j - 1) in
                  let int_v () =
                    match int_of_string_opt v with
                    | Some n when n >= 0 -> Ok n
                    | _ -> Error (Printf.sprintf "bad quota value %S" part)
                  in
                  let ( let* ) = Result.bind in
                  match key with
                  | "fuel" ->
                      let* n = int_v () in
                      go { q with fuel = Some n } tl
                  | "deadline" -> (
                      match float_of_string_opt v with
                      | Some s when s >= 0.0 ->
                          go { q with deadline_s = Some s } tl
                      | _ -> Error (Printf.sprintf "bad quota value %S" part))
                  | "table" ->
                      let* n = int_v () in
                      go { q with max_table = Some n } tl
                  | "ball" ->
                      let* n = int_v () in
                      go { q with max_ball = Some n } tl
                  | _ -> Error (Printf.sprintf "unknown quota key %S" key)))
        in
        go Guard.Limits.none parts)

let make entries = entries

let quota_for t name =
  match List.assoc_opt name t with
  | Some q -> q
  | None -> Option.value ~default:Guard.Limits.none (List.assoc_opt "*" t)
