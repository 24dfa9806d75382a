(* Process-local origin: subtracting it before converting to ns keeps
   the magnitude small enough that float precision is not the limiting
   factor (the wall clock itself only resolves ~1us). *)
let origin = Unix.gettimeofday ()

let last = Atomic.make 0L

let now_ns () =
  let raw = Int64.of_float ((Unix.gettimeofday () -. origin) *. 1e9) in
  (* Clamp non-decreasing: if the wall clock stepped backwards, freeze
     at the highest value seen so far instead of going back in time. *)
  let rec fix () =
    let prev = Atomic.get last in
    if Int64.compare raw prev <= 0 then prev
    else if Atomic.compare_and_set last prev raw then raw
    else fix ()
  in
  fix ()

let elapsed_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9
