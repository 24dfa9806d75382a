(* Learning MSO-definable concepts on strings (related work [21]).

   The predecessor framework the paper builds on: the background
   structure is a string, hypotheses are MSO formulas with position
   parameters, and a preprocessing phase (here: a segment tree of
   composed transition functions) makes every hypothesis evaluation
   logarithmic in the string length.

   Run with:  dune exec examples/mso_strings.exe *)

module M = Mso.Formula
module W = Mso.Word
module L = Mso.Learner
module O = Mso.Oracle

let () =
  (* A log file as a string over the alphabet {o, w, e}:
     ok / warning / error events. *)
  let alphabet = "owe" in
  let log =
    "ooowoooeoowwooooeooooowoooooeeoooowooo"
  in
  let word = W.of_string ~alphabet log in
  let sigma = 3 in
  Format.printf "log = %s  (%d events)@.@." log (Array.length word);

  (* The hidden concept an operator has in mind: "this event happened
     after the first error".  Label some positions. *)
  let first_error =
    let rec find i = if word.(i) = 2 then i else find (i + 1) in
    find 0
  in
  let examples =
    List.map
      (fun p -> ([| p |], p > first_error))
      [ 0; 3; 5; 7; 9; 12; 16; 20; 25; 30; 37 ]
  in
  Format.printf "operator marked %d events (after-first-error?)@.@."
    (List.length examples);

  (* a catalogue of MSO hypothesis templates phi(x; y1) *)
  let catalogue =
    [
      {
        L.name = "x is an error";
        phi = M.Letter (2, "x");
        xvars = [ "x" ];
        yvars = [];
      };
      {
        L.name = "x is after the parameter position";
        phi = M.Less ("y1", "x");
        xvars = [ "x" ];
        yvars = [ "y1" ];
      };
      {
        L.name = "some error precedes x";
        phi =
          M.ExistsPos
            ("e", M.And [ M.Less ("e", "x"); M.Letter (2, "e") ]);
        xvars = [ "x" ];
        yvars = [];
      };
    ]
  in
  (match L.solve ~sigma ~word ~catalogue examples with
  | None -> Format.printf "no hypothesis found@."
  | Some r ->
      Format.printf
        "learned: %S with parameters %s (training error %.3f, %d-state \
         automaton, %d oracle evaluations)@."
        r.L.entry.L.name
        (String.concat ","
           (List.map string_of_int (Array.to_list r.L.params)))
        r.L.err r.L.states r.L.evaluations);

  (* the preprocessing pay-off: evaluation time per query, naive O(n)
     run vs the O(log n) segment-tree oracle *)
  Format.printf
    "@.preprocessing pay-off (concept: 'some error precedes x'):@.";
  Format.printf "%10s %14s %14s@." "n" "naive (us)" "oracle (us)";
  let phi =
    M.ExistsPos ("e", M.And [ M.Less ("e", "x"); M.Letter (2, "e") ])
  in
  let scope = [ ("x", M.Pos) ] in
  let dfa = M.compile ~sigma ~scope phi in
  List.iter
    (fun n ->
      let w = W.random ~seed:n ~sigma ~len:n in
      let oracle = O.make ~sigma dfa w in
      let queries = List.init 200 (fun i -> (i * 7919) mod n) in
      let t_naive = Unix.gettimeofday () in
      List.iter
        (fun p -> ignore (O.eval_naive oracle ~marks:[ (p, 1) ]))
        queries;
      let t_mid = Unix.gettimeofday () in
      List.iter
        (fun p -> ignore (O.eval_with_marks oracle ~marks:[ (p, 1) ]))
        queries;
      let t_end = Unix.gettimeofday () in
      Format.printf "%10d %14.2f %14.2f@." n
        ((t_mid -. t_naive) *. 1e6 /. 200.0)
        ((t_end -. t_mid) *. 1e6 /. 200.0))
    [ 1000; 10_000; 100_000; 1_000_000 ];
  Format.printf
    "@.naive evaluation scales linearly with the string; the segment-tree@.\
     oracle stays logarithmic - the preprocessing regime of [21].@."
