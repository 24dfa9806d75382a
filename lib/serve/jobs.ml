module J = Obs.Json

type status = Queued | Running | Done | Shed

type job = {
  j_id : string;
  j_tenant : string;
  j_solver : string;
  j_params : J.t;
  j_limits : Guard.Limits.t;
  j_status : status;
  j_code : int;
  j_stdout : string;
  j_stderr : string;
  j_spent : J.t;
  j_mismatch : Resil.Snapshot.mismatch option;
}

type t = {
  dir : string;
  mu : Mutex.t;
  tbl : (string, job) Hashtbl.t;
}

let status_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Shed -> "shed"

let status_of_string = function
  | "running" -> Running  (* re-loaded as pending work on restart *)
  | "done" -> Done
  | "shed" -> Shed
  | _ -> Queued

let json_of_job j =
  let base =
    [
      ("id", J.String j.j_id);
      ("tenant", J.String j.j_tenant);
      ("solver", J.String j.j_solver);
      ("params", j.j_params);
    ]
    (* a job has no deadline, so it has no deadline_s member *)
    @ List.filter
        (fun (k, _) -> k <> "deadline_s")
        (Guard.Limits.to_fields j.j_limits)
    @ [
        ("status", J.String (status_string j.j_status));
        ("code", J.Int j.j_code);
        ("stdout", J.String j.j_stdout);
        ("stderr", J.String j.j_stderr);
        ("spent", j.j_spent);
      ]
  in
  let mm =
    match j.j_mismatch with
    | None -> []
    | Some m ->
        [
          ( "mismatch",
            J.Obj
              [
                ("field", J.String m.Resil.Snapshot.field);
                ("expected", J.String m.expected);
                ("found", J.String m.found);
              ] );
        ]
  in
  J.Obj (base @ mm)

let job_of_json j =
  let str k = Option.bind (J.member k j) J.to_string_opt in
  let int k = Option.bind (J.member k j) J.to_int_opt in
  match str "id" with
  | None -> None
  | Some id ->
      let mismatch =
        match J.member "mismatch" j with
        | Some m -> (
            match (Option.bind (J.member "field" m) J.to_string_opt,
                   Option.bind (J.member "expected" m) J.to_string_opt,
                   Option.bind (J.member "found" m) J.to_string_opt)
            with
            | Some field, Some expected, Some found ->
                Some { Resil.Snapshot.field; expected; found }
            | _ -> None)
        | None -> None
      in
      Some
        {
          j_id = id;
          j_tenant = Option.value (str "tenant") ~default:"anon";
          j_solver = Option.value (str "solver") ~default:"brute";
          j_params = Option.value (J.member "params" j) ~default:(J.Obj []);
          j_limits = Guard.Limits.of_json j;
          j_status =
            status_of_string (Option.value (str "status") ~default:"queued");
          j_code = Option.value (int "code") ~default:0;
          j_stdout = Option.value (str "stdout") ~default:"";
          j_stderr = Option.value (str "stderr") ~default:"";
          j_spent = Option.value (J.member "spent" j) ~default:J.Null;
          j_mismatch = mismatch;
        }

let table_path t = Filename.concat t.dir "jobs.json"
let snap_path t id = Filename.concat t.dir (Printf.sprintf "job-%s.snap" id)

(* call with the lock held *)
let persist t =
  let jobs = Hashtbl.fold (fun _ j acc -> j :: acc) t.tbl [] in
  let jobs = List.sort (fun a b -> compare a.j_id b.j_id) jobs in
  let doc =
    J.Obj [ ("schema_version", J.Int 1);
            ("jobs", J.List (List.map json_of_job jobs)) ]
  in
  Resil.atomic_write ~path:(table_path t) (J.to_string doc ^ "\n")

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let load ~dir =
  mkdir_p dir;
  let t = { dir; mu = Mutex.create (); tbl = Hashtbl.create 16 } in
  (match
     if Sys.file_exists (table_path t) then
       let ic = open_in_bin (table_path t) in
       let n = in_channel_length ic in
       let s = really_input_string ic n in
       close_in ic;
       J.of_string s |> Result.to_option
     else None
   with
  | Some doc -> (
      match Option.bind (J.member "jobs" doc) J.to_list_opt with
      | Some l ->
          List.iter
            (fun j ->
              match job_of_json j with
              | Some job -> Hashtbl.replace t.tbl job.j_id job
              | None -> ())
            l
      | None -> ())
  | None -> ());
  t

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let submit t ~id ~tenant ~solver ~params ~limits =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl id with
      | Some j -> `Existing j
      | None ->
          let j =
            {
              j_id = id;
              j_tenant = tenant;
              j_solver = solver;
              j_params = params;
              j_limits = { limits with Guard.Limits.deadline_s = None };
              j_status = Queued;
              j_code = 0;
              j_stdout = "";
              j_stderr = "";
              j_spent = J.Null;
              j_mismatch = None;
            }
          in
          Hashtbl.replace t.tbl id j;
          persist t;
          `New j)

let get t id = locked t (fun () -> Hashtbl.find_opt t.tbl id)

let pending t =
  locked t (fun () ->
      Hashtbl.fold
        (fun _ j acc ->
          match j.j_status with Queued | Running -> j :: acc | _ -> acc)
        t.tbl []
      |> List.sort (fun a b -> compare a.j_id b.j_id))

let update t id f =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl id with
      | None -> ()
      | Some j ->
          Hashtbl.replace t.tbl id (f j);
          persist t)

let mark_running t id = update t id (fun j -> { j with j_status = Running })
let mark_shed t id = update t id (fun j -> { j with j_status = Shed })

let mark_done t id ~code ~stdout ~stderr ~spent =
  update t id (fun j ->
      {
        j with
        j_status = Done;
        j_code = code;
        j_stdout = stdout;
        j_stderr = stderr;
        j_spent = spent;
      })

let mark_mismatch t id m = update t id (fun j -> { j with j_mismatch = Some m })

let resume_snapshot t job =
  match
    Resil.Snapshot.load_for ~run_id:job.j_id ~solver:job.j_solver
      (snap_path t job.j_id)
  with
  | Ok s -> Some s
  | Error `Not_found -> None
  | Error (`Corrupt _) -> None
  | Error (`Mismatch m) ->
      mark_mismatch t job.j_id m;
      None
