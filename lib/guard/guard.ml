type checkpoint =
  | Solver_loop
  | Hintikka_build
  | Bfs_frontier
  | Catalogue_growth
  | Eval_step

type reason =
  | Out_of_fuel
  | Deadline
  | Table_cap
  | Ball_cap
  | Injected_fault
  | Interrupted

let checkpoint_to_string = function
  | Solver_loop -> "solver_loop"
  | Hintikka_build -> "hintikka_build"
  | Bfs_frontier -> "bfs_frontier"
  | Catalogue_growth -> "catalogue_growth"
  | Eval_step -> "eval_step"

let reason_to_string = function
  | Out_of_fuel -> "out_of_fuel"
  | Deadline -> "deadline"
  | Table_cap -> "table_cap"
  | Ball_cap -> "ball_cap"
  | Injected_fault -> "injected_fault"
  | Interrupted -> "interrupted"

let all_checkpoints =
  [ Solver_loop; Hintikka_build; Bfs_frontier; Catalogue_growth; Eval_step ]

let checkpoint_index = function
  | Solver_loop -> 0
  | Hintikka_build -> 1
  | Bfs_frontier -> 2
  | Catalogue_growth -> 3
  | Eval_step -> 4

type spent = {
  fuel : int;
  elapsed_ns : int64;
  table_rows : int;
  ball_peak : int;
  catalogue_entries : int;
}

let spent_to_json s =
  Obs.Json.Obj
    [
      ("fuel", Obs.Json.Int s.fuel);
      ("elapsed_ns", Obs.Json.Float (Int64.to_float s.elapsed_ns));
      ("table_rows", Obs.Json.Int s.table_rows);
      ("ball_peak", Obs.Json.Int s.ball_peak);
      ("catalogue_entries", Obs.Json.Int s.catalogue_entries);
    ]

module Faults = struct
  (* A plan is a pure predicate over (checkpoint class, 1-based hit
     count), so a failing run replays exactly. *)
  type t = checkpoint -> int -> bool

  let none _ _ = false
  let trip_at cp ~n cp' n' = cp = cp' && n = n'

  (* SplitMix-style finaliser: decorrelates (seed, checkpoint, count)
     without any mutable state. *)
  let mix seed cp n =
    let z = seed lxor ((checkpoint_index cp + 1) * 0x9e3779b9) lxor (n * 0x85ebca6b) in
    let z = (z lxor (z lsr 16)) * 0x45d9f3b land max_int in
    let z = (z lxor (z lsr 16)) * 0x45d9f3b land max_int in
    z lxor (z lsr 16)

  let seeded ~seed ~rate cp n =
    rate > 0.
    && float_of_int (mix seed cp n land 0xFFFFFF) /. 16777216. < rate

  let fires (t : t) cp n = t cp n
end

module Limits = struct
  type t = {
    fuel : int option;
    deadline_s : float option;
    max_table : int option;
    max_ball : int option;
  }

  let none =
    { fuel = None; deadline_s = None; max_table = None; max_ball = None }

  let is_none l = l = none

  let min_opt a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (min a b)

  let meet a b =
    {
      fuel = min_opt a.fuel b.fuel;
      deadline_s = min_opt a.deadline_s b.deadline_s;
      max_table = min_opt a.max_table b.max_table;
      max_ball = min_opt a.max_ball b.max_ball;
    }

  let to_fields l =
    let opt f = function None -> Obs.Json.Null | Some v -> f v in
    let int = opt (fun n -> Obs.Json.Int n) in
    [
      ("fuel", int l.fuel);
      ("deadline_s", opt (fun s -> Obs.Json.Float s) l.deadline_s);
      ("max_table", int l.max_table);
      ("max_ball", int l.max_ball);
    ]

  let of_json j =
    let get conv name = Option.bind (Obs.Json.member name j) conv in
    let int = get Obs.Json.to_int_opt in
    {
      fuel = int "fuel";
      deadline_s = get Obs.Json.to_float_opt "deadline_s";
      max_table = int "max_table";
      max_ball = int "max_ball";
    }
end

(* The live state behind a budget.  One budget can govern a whole [Par]
   pool, so its totals are [Atomic] cells: fuel is a fetch-and-add
   total, peaks are CAS-max cells, and [tripped] is a write-once cell —
   the first tripping worker records (reason, checkpoint); every other
   worker observes it at its next refill and unwinds cooperatively.

   A tick touches none of them.  Each domain keeps a [meter] in
   domain-local storage that draws fuel from [fuel_used] in slabs of at
   most [deadline_stride] ticks, and a tick only takes one from the
   slab.  A tick that finds the slab empty refills it, and the refill
   does all of the shared work: the trip cell, the interrupt flag, the
   fuel charge and its limit, the fault plan and the deadline.  A slab
   never exceeds the fuel left, so on one domain an [Out_of_fuel] trip
   lands on the tick that exceeds the limit.  Drawn but unspent fuel is
   not spent: [Budget.spent] subtracts the slabs of the meters
   registered with the budget, and a meter hands its slab back before
   it moves to another budget.  Under a fault plan every slab is empty,
   so every tick counts its per-class hit on the shared cells and the
   plan fires on the same hit whichever domain lands on it. *)
type state = {
  limits : Limits.t;  (* [deadline_s] as given, or derived from [deadline_ns] *)
  deadline_ns : int64 option;  (* absolute, on the obs monotonic clock *)
  faults : Faults.t;
  born_ns : int64;
  fuel_used : int Atomic.t;  (* ticks charged plus slabs drawn *)
  table_rows : int Atomic.t;  (* peak, as published by the meters *)
  ball_peak : int Atomic.t;
  catalogue_entries : int Atomic.t;  (* peak *)
  tripped : (reason * checkpoint) option Atomic.t;
  hits : int Atomic.t array;  (* per checkpoint class, under a fault plan *)
  meters : meter list Atomic.t;  (* the meters that have charged it *)
}

(* One domain's account with the budget it charged last.  Only that
   domain writes the fields; [Budget.spent] reads them from any domain
   and is exact once the work that wrote them has been joined. *)
and meter = {
  mutable owner : state;
  mutable left : int;  (* unspent ticks of the current slab *)
  mutable drawn : int;  (* size of the current slab *)
  mutable clock : int;  (* ticks to go before the next deadline read *)
  mutable rows : int;  (* peak table rows reported on this domain *)
}

let fresh_state limits deadline_ns faults born_ns =
  {
    limits;
    deadline_ns;
    faults;
    born_ns;
    fuel_used = Atomic.make 0;
    table_rows = Atomic.make 0;
    ball_peak = Atomic.make 0;
    catalogue_entries = Atomic.make 0;
    tripped = Atomic.make None;
    hits = Array.init 5 (fun _ -> Atomic.make 0);
    meters = Atomic.make [];
  }

module Budget = struct
  type t = state

  let make ?fuel ?timeout_s ?deadline_ns ?max_table ?max_ball
      ?(faults = Faults.none) () =
    let born_ns = Obs.Clock.now_ns () in
    let relative_ns =
      Option.map
        (fun s -> Int64.add born_ns (Int64.of_float (s *. 1e9)))
        timeout_s
    in
    (* an absolute deadline composes with a relative timeout by taking
       whichever lands first: a server clamps a client's timeout to the
       tenant's wall-clock allowance this way *)
    let deadline_ns =
      match (relative_ns, deadline_ns) with
      | None, d -> d
      | r, None -> r
      | Some r, Some d -> Some (if Int64.compare r d <= 0 then r else d)
    in
    (* [limits] must keep reflecting the wall-clock cap so static
       admission ([Analysis.Plan]) can reason about it *)
    let deadline_s =
      match (timeout_s, deadline_ns) with
      | Some _, _ | _, None -> timeout_s
      | None, Some d ->
          Some (Int64.to_float (Int64.sub d born_ns) /. 1e9)
    in
    fresh_state { fuel; deadline_s; max_table; max_ball } deadline_ns faults
      born_ns

  let of_limits ?deadline_ns (l : Limits.t) =
    if Limits.is_none l then None
    else
      Some
        (make ?fuel:l.fuel ?timeout_s:l.deadline_s ?deadline_ns
           ?max_table:l.max_table ?max_ball:l.max_ball ())

  let unlimited () = make ()
  let limits t = t.limits

  (* the fuel ticks have used: drawn fuel less the unspent slabs *)
  let fuel_spent t =
    let used = Atomic.get t.fuel_used in
    List.fold_left
      (fun used m -> if m.owner == t then used - m.left else used)
      used (Atomic.get t.meters)

  let spent t =
    {
      fuel = fuel_spent t;
      elapsed_ns = Int64.sub (Obs.Clock.now_ns ()) t.born_ns;
      table_rows =
        List.fold_left
          (fun rows m -> if m.owner == t then max rows m.rows else rows)
          (Atomic.get t.table_rows) (Atomic.get t.meters);
      ball_peak = Atomic.get t.ball_peak;
      catalogue_entries = Atomic.get t.catalogue_entries;
    }

  let for_stage t = fresh_state t.limits t.deadline_ns t.faults t.born_ns
end

(* The one exception of the subsystem, naming the budget that tripped.
   It is not exported: the only handler is [run], which catches its own
   budget's trips alone, so exhaustion cannot escape to callers. *)
exception Stop of state

(* Process-wide interrupt request (SIGINT/SIGTERM from the CLI's signal
   handler, which must stay async-signal-safe: it only sets this flag).
   The refill path converts it into an [Interrupted] trip, so a signal
   unwinds exactly like exhaustion — cooperatively, with salvage. *)
let interrupt_flag = Atomic.make false
let interrupt () = Atomic.set interrupt_flag true
let interrupt_requested () = Atomic.get interrupt_flag
let clear_interrupt () = Atomic.set interrupt_flag false

(* The largest slab, and so the most ticks between two refills of one
   domain: the latency of a deadline, an interrupt or another worker's
   trip.  A clock read is a syscall-order cost; 32 checkpoints of real
   solver work dwarf it. *)
let deadline_stride = 32

let exhausted_total = Obs.Metric.counter "guard.exhausted"

let exhausted_counter reason =
  Obs.Metric.counter ("guard.exhausted." ^ reason_to_string reason)

let trip st reason cp =
  (* write-once: under parallelism the first tripper wins, every later
     (or concurrent) tripper just joins the unwind *)
  if Atomic.compare_and_set st.tripped None (Some (reason, cp)) then
    Obs.Event.record ~kind:"guard"
      ~args:
        [
          ("reason", reason_to_string reason);
          ("checkpoint", checkpoint_to_string cp);
          ("fuel", string_of_int (Budget.fuel_spent st));
        ]
      "guard.trip";
  raise (Stop st)

(* CAS-max: lock-free peak tracking *)
let rec store_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then store_max cell v

let meter_key =
  let nobody = Budget.unlimited () in
  Domain.DLS.new_key (fun () ->
      { owner = nobody; left = 0; drawn = 0; clock = 0; rows = 0 })

(* Move meter [m] to budget [st]: its old budget gets the unspent slab
   and the row peak back, and [st] learns of [m] for [Budget.spent].

   The order of the writes here, in [refill], [draw] and [release] lets
   a concurrent [Budget.fuel_spent] under-count but never over-count,
   so no domain trips [Out_of_fuel] on fuel another domain still holds:
   a meter's [left] grows before [fuel_used] does, and shrinks after
   [fuel_used] gives the slab back or before it charges the tick. *)
let adopt m st =
  let old = m.owner in
  if m.left > 0 then ignore (Atomic.fetch_and_add old.fuel_used (-m.left));
  store_max old.table_rows m.rows;
  m.owner <- st;
  m.left <- 0;
  m.drawn <- 0;
  m.clock <- 0;
  m.rows <- 0;
  let rec register () =
    let ms = Atomic.get st.meters in
    if
      (not (List.memq m ms))
      && not (Atomic.compare_and_set st.meters ms (m :: ms))
    then register ()
  in
  register ()

let[@inline] meter st =
  let m = Domain.DLS.get meter_key in
  if m.owner != st then adopt m st;
  m

(* Fill the empty slab of [m]: [deadline_stride] ticks, never more than
   the fuel left, and none under a fault plan, whose every tick must
   refill. *)
let draw st m =
  let set n =
    m.left <- n;
    m.drawn <- n
  in
  if st.faults == Faults.none then
    match st.limits.fuel with
    | None ->
        set deadline_stride;
        ignore (Atomic.fetch_and_add st.fuel_used deadline_stride)
    | Some limit ->
        let rec go () =
          let used = Atomic.get st.fuel_used in
          let n = max 0 (min deadline_stride (limit - used)) in
          set n;
          if n > 0 && not (Atomic.compare_and_set st.fuel_used used (used + n))
          then go ()
        in
        go ()

(* [consumed] ticks since the last deadline read on this domain *)
let check_deadline st m consumed cp =
  match st.deadline_ns with
  | None -> ()
  | Some deadline ->
      m.clock <- m.clock - consumed;
      if m.clock < 0 then begin
        m.clock <- deadline_stride;
        if Int64.compare (Obs.Clock.now_ns ()) deadline >= 0 then
          trip st Deadline cp
      end

(* A tick that the slab of [m] (owned by [st]) cannot pay for. *)
let refill st m cost cp =
  (* cooperative cancellation: once any worker trips, every other
     worker unwinds at its next refill *)
  if Option.is_some (Atomic.get st.tripped) then raise (Stop st);
  if Atomic.get interrupt_flag then trip st Interrupted cp;
  (* the slab's remainder pays for part of this tick; charge the rest *)
  let consumed = m.drawn - m.left + cost and charge = cost - m.left in
  m.left <- 0;
  m.drawn <- 0;
  let fuel = Atomic.fetch_and_add st.fuel_used charge + charge in
  if st.faults != Faults.none then begin
    let hit = Atomic.fetch_and_add st.hits.(checkpoint_index cp) 1 + 1 in
    if Faults.fires st.faults cp hit then trip st Injected_fault cp
  end;
  (* past the limit only while other domains hold no unspent slab *)
  (match st.limits.fuel with
  | Some limit when fuel > limit && Budget.fuel_spent st > limit ->
      trip st Out_of_fuel cp
  | _ -> ());
  check_deadline st m consumed cp;
  draw st m

let[@inline] charge st m cost cp =
  if m.left >= cost then m.left <- m.left - cost else refill st m cost cp

let tick ?(cost = 1) budget cp =
  match budget with None -> () | Some st -> charge st (meter st) cost cp

let note_table_row budget rows =
  match budget with
  | None -> ()
  | Some st ->
      (match st.limits.max_table with
      | Some cap when rows > cap ->
          store_max st.table_rows rows;
          trip st Table_cap Hintikka_build
      | _ -> ());
      let m = meter st in
      if rows > m.rows then m.rows <- rows;
      charge st m 1 Hintikka_build

(* The rows a slab pays for are taken at once: nothing between two
   refills reads [rows] or the meter, so only the refills and the trip
   need to see the row they land on.  Under a fault plan every slab is
   empty, so every row refills. *)
let note_table_rows budget rows count =
  match budget with
  | None -> rows := !rows + count
  | Some st ->
      let stop = !rows + count in
      let last =
        match st.limits.max_table with
        | Some cap when cap < stop -> max !rows cap
        | _ -> stop
      in
      if !rows < last then begin
        let m = meter st in
        while !rows < last do
          let paid = min m.left (last - !rows) in
          if paid > 0 then m.left <- m.left - paid;
          rows := !rows + max paid 1;
          if !rows > m.rows then m.rows <- !rows;
          if paid = 0 then refill st m 1 Hintikka_build
        done
      end;
      if stop > last then begin
        incr rows;
        store_max st.table_rows !rows;
        trip st Table_cap Hintikka_build
      end

let note_ball budget size =
  match budget with
  | None -> ()
  | Some st ->
      store_max st.ball_peak size;
      (match st.limits.max_ball with
      | Some cap when size > cap -> trip st Ball_cap Bfs_frontier
      | _ -> ());
      charge st (meter st) 1 Bfs_frontier

let note_catalogue budget entries =
  match budget with
  | None -> ()
  | Some st ->
      store_max st.catalogue_entries entries;
      charge st (meter st) 1 Catalogue_growth

(* Hand this domain's unspent slab of [st] back, so that the next
   charge to [st] here takes the refill path. *)
let release st =
  let m = Domain.DLS.get meter_key in
  if m.owner == st && m.left > 0 then begin
    let left = m.left in
    ignore (Atomic.fetch_and_add st.fuel_used (-left));
    m.drawn <- m.drawn - left;
    m.left <- 0
  end

type 'a outcome =
  | Complete of 'a
  | Exhausted of {
      best_so_far : 'a option;
      reason : reason;
      checkpoint : checkpoint;
      spent : spent;
      refused : string option;
    }

let run ?budget ~salvage f =
  match budget with
  | None -> Complete (f ())
  | Some b -> (
      match f () with
      | v -> Complete v
      | exception Stop st when st == b ->
          (* [trip] records before it raises, and a cancelled worker
             raises only once the record is there *)
          let reason, checkpoint = Option.get (Atomic.get b.tripped) in
          (* a slab left on this domain would let [salvage] charge [b]
             without unwinding *)
          release b;
          let best = try salvage () with _ -> None in
          Obs.Metric.incr exhausted_total;
          Obs.Metric.incr (exhausted_counter reason);
          Obs.Event.record ~kind:"guard"
            ~args:
              [
                ("reason", reason_to_string reason);
                ("checkpoint", checkpoint_to_string checkpoint);
                ("salvaged", string_of_bool (Option.is_some best));
              ]
            "guard.exhausted";
          Exhausted
            {
              best_so_far = best;
              reason;
              checkpoint;
              spent = Budget.spent b;
              refused = None;
            })

let outcome_map f = function
  | Complete v -> Complete (f v)
  | Exhausted e -> Exhausted { e with best_so_far = Option.map f e.best_so_far }
