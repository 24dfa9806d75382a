module J = Obs.Json

let schema_version = 1

let no_budget = Guard.Limits.none

type request = {
  tenant : string;
  op : string;
  budget : Guard.Limits.t;
  params : J.t;
}

let request_to_json r =
  J.Obj
    ([
       ("schema_version", J.Int schema_version);
       ("op", J.String r.op);
       ("tenant", J.String r.tenant);
     ]
    @ Guard.Limits.to_fields r.budget
    @ [ ("params", r.params) ])

let request_of_json j =
  let mem name = J.member name j in
  match J.int_field "schema_version" j with
  | Error _ as e -> e
  | Ok v when v <> schema_version ->
      Error (Printf.sprintf "unsupported schema_version %d" v)
  | Ok _ -> (
      match J.string_field "op" j with
      | Error _ as e -> e
      | Ok op ->
          let tenant =
            Option.value ~default:"anon"
              (Option.bind (mem "tenant") J.to_string_opt)
          in
          let params = Option.value ~default:(J.Obj []) (mem "params") in
          Ok { tenant; op; budget = Guard.Limits.of_json j; params })

(* -- statuses ------------------------------------------------------ *)

let exit_retry = 75

let status_of_code = function
  | 0 -> "complete"
  | 3 -> "degraded"
  | 4 -> "exhausted"
  | _ -> "usage"

let code_of_status = function
  | "complete" | "accepted" | "queued" | "running" -> 0
  | "degraded" -> 3
  | "exhausted" | "rejected" -> 4
  | "overloaded" | "draining" -> exit_retry
  | _ -> 2

let response ?(stdout = "") ?(stderr = "") ?spent ?(extra = []) ~status ~code
    () =
  J.Obj
    ([
       ("schema_version", J.Int schema_version);
       ("status", J.String status);
       ("code", J.Int code);
       ("stdout", J.String stdout);
       ("stderr", J.String stderr);
       ( "spent",
         match spent with None -> J.Null | Some s -> Guard.spent_to_json s );
     ]
    @ extra)

let rejected ~stdout ~resource ~message ~spent =
  response ~stdout ~status:"rejected" ~code:4 ~spent
    ~stderr:(Printf.sprintf "folearn serve: %s\n" message)
    ~extra:
      [
        ( "error",
          J.Obj
            [
              ("reason", J.String "would_exhaust");
              ("resource", J.String resource);
              ("message", J.String message);
            ] );
      ]
    ()

let overloaded ~message =
  response ~status:"overloaded" ~code:exit_retry
    ~extra:[ ("error", J.Obj [ ("reason", J.String "overloaded");
                               ("message", J.String message) ]) ]
    ()

let draining () =
  response ~status:"draining" ~code:exit_retry
    ~extra:
      [
        ( "error",
          J.Obj
            [
              ("reason", J.String "draining");
              ("message", J.String "server is draining; retry elsewhere");
            ] );
      ]
    ()

let error ~message =
  response ~status:"error" ~code:2
    ~extra:[ ("error", J.Obj [ ("reason", J.String "error");
                               ("message", J.String message) ]) ]
    ()

let job_mismatch ~field ~expected ~found =
  response ~status:"job_mismatch" ~code:2
    ~extra:
      [
        ( "error",
          J.Obj
            [
              ("reason", J.String "job_mismatch");
              ("field", J.String field);
              ("expected", J.String expected);
              ("found", J.String found);
              ( "hint",
                J.String
                  "that job belongs to another invocation; submit afresh to \
                   start over" );
            ] );
      ]
    ()

(* -- client-side accessors ----------------------------------------- *)

let str_field name j =
  Option.value ~default:"" (Option.bind (J.member name j) J.to_string_opt)

let resp_status = str_field "status"
let resp_stdout = str_field "stdout"
let resp_stderr = str_field "stderr"

let resp_code j =
  Option.value ~default:2 (Option.bind (J.member "code" j) J.to_int_opt)
