exception Format_error of string

let to_string g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "n %d\n" (Graph.order g));
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "e %d %d\n" u v))
    (Graph.edges g);
  List.iter
    (fun c ->
      match Graph.color_class g c with
      | [] -> Buffer.add_string buf (Printf.sprintf "c %s\n" c)
      | members ->
          Buffer.add_string buf
            (Printf.sprintf "c %s %s\n" c
               (String.concat " " (List.map string_of_int members))))
    (Graph.color_names g);
  Buffer.contents buf

let of_string text =
  let lines = String.split_on_char '\n' text in
  let n = ref None in
  let edges = ref [] in
  let colors : (string, int list ref) Hashtbl.t = Hashtbl.create 8 in
  let fail lineno msg =
    raise (Format_error (Printf.sprintf "line %d: %s" lineno msg))
  in
  let check_vertex n lineno v =
    if v < 0 || v >= n then
      fail lineno (Printf.sprintf "vertex %d out of range" v)
  in
  (* vertices named before the n line, with their lines, latest first:
     checked once the order is known *)
  let early = ref [] in
  let int_of lineno s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> fail lineno (Printf.sprintf "expected an integer, got %S" s)
  in
  let vertex lineno s =
    let v = int_of lineno s in
    (match !n with
    | Some n -> check_vertex n lineno v
    | None -> early := (lineno, v) :: !early);
    v
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line =
        match String.index_opt line '#' with
        | Some j -> String.sub line 0 j
        | None -> line
      in
      match
        String.split_on_char ' ' (String.trim line)
        |> List.filter (fun s -> s <> "")
      with
      | [] -> ()
      | "n" :: rest -> (
          match rest with
          | [ v ] ->
              if !n <> None then fail lineno "duplicate n line";
              let v = int_of lineno v in
              if v < 0 || v > Sys.max_array_length then
                fail lineno (Printf.sprintf "order %d out of range" v);
              n := Some v
          | _ -> fail lineno "n takes exactly one argument")
      | "e" :: rest -> (
          match rest with
          | [ u; v ] ->
              let u = vertex lineno u in
              let v = vertex lineno v in
              if u = v then fail lineno (Printf.sprintf "self-loop at %d" u);
              edges := (u, v) :: !edges
          | _ -> fail lineno "e takes exactly two arguments")
      | "c" :: name :: members ->
          let cell =
            match Hashtbl.find_opt colors name with
            | Some cell -> cell
            | None ->
                let cell = ref [] in
                Hashtbl.replace colors name cell;
                cell
          in
          cell := List.map (vertex lineno) members @ !cell
      | "c" :: [] -> fail lineno "c needs a colour name"
      | tok :: _ -> fail lineno (Printf.sprintf "unknown directive %S" tok))
    lines;
  match !n with
  | None -> raise (Format_error "missing n line")
  | Some n ->
      List.iter (fun (lineno, v) -> check_vertex n lineno v) (List.rev !early);
      let colors = Hashtbl.fold (fun name cell acc -> (name, !cell) :: acc) colors [] in
      Graph.create ~n ~edges:!edges ~colors

let save path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
