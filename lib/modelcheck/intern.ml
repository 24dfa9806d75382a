(* Sharded hash-consing registry.

   The old design funnelled every [intern] — hit or miss — through one
   global mutex.  Under [Par] the ERM solvers intern the same handful
   of keys millions of times from every domain, so the lock became a
   convoy: domains queued behind each other to re-discover ids they had
   already seen.

   The sharded design keeps the global table as the single authority
   for id {e allocation} (ids stay dense and stable for the registry's
   life; which key gets which id depends on the order domains meet
   them, and no output depends on it), but gives every domain a private
   read shard:

   - Hit path: a domain-local hashtable lookup.  No lock, no atomics.
   - Local miss, globally known: the shard catches up by replaying the
     published suffix of the global entry array — a {e lock-free merge}
     (two atomic loads and plain array reads of immutable-once-published
     slots), counted on [<prefix>.shard_merges].
   - Genuinely new key: the mutex path allocates the id, exactly as
     before.  Publication order is slot write, then [Atomic.set]
     on the entries array, then [Atomic.set] on the published
     watermark, so any reader that observes the watermark also
     observes the filled slots below it.

   Shards are [Domain.DLS] values validated against a global epoch so
   that {!reset} (below) invalidates them without coordination. *)

(* Keys are hashed whole by [C.hash].  The polymorphic [Hashtbl.hash]
   stops after ten meaningful values, breadth first, which for a type key
   is the arity, a few colour slots and the first child ids: keys that
   differ deeper all land in one bucket.  [mix] is the fold step the key
   hashes are built from. *)
let mix h x =
  let h = (h lxor x) * 0x100000001b3 in
  (h lxor (h lsr 29)) land max_int

module Make (C : sig
  type key

  val dummy : key
  val hash : key -> int
  val prefix : string
end) =
struct
  type key = C.key

  module Tbl = Hashtbl.Make (struct
    type t = key

    let equal = ( = )
    let hash = C.hash
  end)

  type entry = { key : key; entry_rank : int }

  let shard_merges = Obs.Metric.counter (C.prefix ^ ".shard_merges")
  let table_bytes_g = Obs.Metric.gauge (C.prefix ^ ".table_bytes")

  let dummy_entry = { key = C.dummy; entry_rank = -1 }
  let table : int Tbl.t = Tbl.create 4096
  let table_mutex = Mutex.create ()
  let entries : entry array Atomic.t = Atomic.make (Array.make 1024 dummy_entry)
  let published = Atomic.make 0
  let next_id = ref 0
  let epoch = Atomic.make 0

  (* Rough live-heap estimate, updated under the mutex: per id one
     entry record + one table binding (key is shared between them).
     The constant is words-per-id incl. hashtable overhead; exactness
     does not matter — the gauge exists to show unbounded growth and to
     drop to ~0 after {!reset}. *)
  let approx_bytes n = n * 24 * (Sys.word_size / 8)

  type shard = {
    mutable shard_epoch : int;
    mutable watermark : int;
    tbl : int Tbl.t;
  }

  let shard_key =
    Domain.DLS.new_key (fun () ->
        { shard_epoch = -1; watermark = 0; tbl = Tbl.create 1024 })

  let my_shard () =
    let s = Domain.DLS.get shard_key in
    let e = Atomic.get epoch in
    if s.shard_epoch <> e then begin
      Tbl.reset s.tbl;
      s.watermark <- 0;
      s.shard_epoch <- e
    end;
    s

  (* Replay ids [s.watermark, hi) into the shard.  Lock-free: [hi] was
     read from [published], so the entry array published alongside it
     has those slots filled, and published slots are never mutated. *)
  let merge s hi =
    let arr = Atomic.get entries in
    for id = s.watermark to hi - 1 do
      Tbl.replace s.tbl arr.(id).key id
    done;
    s.watermark <- hi;
    Obs.Metric.incr shard_merges

  let intern_global s key entry_rank =
    Mutex.lock table_mutex;
    let id =
      match Tbl.find_opt table key with
      | Some id -> id
      | None ->
          let id = !next_id in
          incr next_id;
          let arr = Atomic.get entries in
          let arr =
            if id >= Array.length arr then begin
              let bigger = Array.make (2 * Array.length arr) dummy_entry in
              Array.blit arr 0 bigger 0 (Array.length arr);
              bigger
            end
            else arr
          in
          arr.(id) <- { key; entry_rank };
          Atomic.set entries arr;
          Atomic.set published (id + 1);
          Tbl.replace table key id;
          if Obs.Sink.enabled () then
            Obs.Metric.set table_bytes_g (float_of_int (approx_bytes !next_id));
          id
    in
    Mutex.unlock table_mutex;
    Tbl.replace s.tbl key id;
    id

  let intern key entry_rank =
    let s = my_shard () in
    match Tbl.find_opt s.tbl key with
    | Some id -> id
    | None ->
        let hi = Atomic.get published in
        if s.watermark < hi then begin
          merge s hi;
          match Tbl.find_opt s.tbl key with
          | Some id -> id
          | None -> intern_global s key entry_rank
        end
        else intern_global s key entry_rank

  let entry (id : int) =
    let arr = Atomic.get entries in
    if id < 0 || id >= Atomic.get published || arr.(id).entry_rank < 0 then
      invalid_arg (C.prefix ^ ": stale or unknown type id")
    else arr.(id)

  let rank id = (entry id).entry_rank
  let key id = (entry id).key

  type stats = { live : int; bytes : int }

  let stats () =
    Mutex.lock table_mutex;
    let live = !next_id in
    Mutex.unlock table_mutex;
    { live; bytes = approx_bytes live }

  let reset () =
    Mutex.lock table_mutex;
    Tbl.reset table;
    next_id := 0;
    Atomic.set entries (Array.make 1024 dummy_entry);
    Atomic.set published 0;
    Atomic.incr epoch;
    Obs.Metric.set table_bytes_g 0.0;
    Mutex.unlock table_mutex
end
