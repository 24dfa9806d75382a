(* The framing suite of [Resil.Framed], the one codec behind the four
   CRC-framed formats.  Every property runs once per magic:

   - round-trip: decode . encode = id;
   - every strict prefix of a frame is rejected;
   - every single flipped byte of the body or its terminator is
     rejected;
   - a frame of any other format is rejected (a lease never decodes as
     a snapshot);
   - the size cap: a body of exactly [max_len] bytes decodes, one more
     byte is refused;
   - malformed header lines (signs, [0x] and other prefixes, huge
     numbers, wrong widths, missing or extra fields) are rejected, and
     no input at all makes [decode] raise. *)

module J = Obs.Json
module F = Resil.Framed

(* the wire magics, pinned here on purpose: a change to one is a
   format change *)
let magics = [ "FOLEARNSNAP1"; "FOLEARNLEASE1"; "FOLEARNFDR1"; "FOLEARNRPC1" ]

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) int;
        map (fun s -> J.String s) (string_size ~gen:char (0 -- 16));
      ]
  in
  let key = string_size ~gen:printable (0 -- 6) in
  let node self depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (2, scalar);
          (1, map (fun l -> J.List l) (list_size (0 -- 4) (self (depth - 1))));
          ( 1,
            map (fun kvs -> J.Obj kvs)
              (list_size (0 -- 4) (pair key (self (depth - 1)))) );
        ]
  in
  fix node 3

let json_arb = QCheck.make ~print:J.to_string json_gen

(* [decode] must answer, never raise *)
let decode_safely ~magic ?max_len data =
  match F.decode ~magic ?max_len data with
  | r -> r
  | exception e ->
      QCheck.Test.fail_reportf "decode raised %s on %S" (Printexc.to_string e)
        data

let rejects ~magic ?max_len data =
  Result.is_error (decode_safely ~magic ?max_len data)

let roundtrip magic =
  QCheck.Test.make ~count:200
    ~name:(magic ^ ": decode . encode = id")
    json_arb
    (fun j -> decode_safely ~magic (F.encode ~magic j) = Ok j)

let prefixes magic =
  QCheck.Test.make ~count:50
    ~name:(magic ^ ": every strict prefix is rejected")
    json_arb
    (fun j ->
      let frame = F.encode ~magic j in
      List.for_all
        (fun len -> rejects ~magic (String.sub frame 0 len))
        (List.init (String.length frame) Fun.id))

let flips magic =
  QCheck.Test.make ~count:50
    ~name:(magic ^ ": every flipped body or terminator byte is rejected")
    QCheck.(pair json_arb (int_range 1 255))
    (fun (j, mask) ->
      let frame = F.encode ~magic j in
      let body_at = String.index frame '\n' + 1 in
      let body_len = String.length frame - body_at - 1 in
      List.for_all
        (fun i ->
          let b = Bytes.of_string frame in
          let at = body_at + i in
          Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor mask));
          rejects ~magic (Bytes.to_string b))
        (List.init (body_len + 1) Fun.id))

let foreign magic =
  QCheck.Test.make ~count:50
    ~name:(magic ^ ": every other format's frame is rejected")
    json_arb
    (fun j ->
      List.for_all
        (fun other -> other = magic || rejects ~magic (F.encode ~magic:other j))
        magics)

let cap magic =
  QCheck.Test.make ~count:100
    ~name:(magic ^ ": the size cap admits max_len, refuses max_len + 1")
    json_arb
    (fun j ->
      let frame = F.encode ~magic j in
      let len = String.length (J.to_string j) in
      decode_safely ~magic ~max_len:len frame = Ok j
      && rejects ~magic ~max_len:(len - 1) frame)

(* Header lines that must never pass, whatever follows them.  [crc] and
   [len] are the true values, so only the malformation can reject. *)
let bad_headers ~magic ~crc ~len =
  let n = string_of_int len in
  let hdr c l = String.concat " " [ magic; c; l ] in
  [
    (* signs and radix prefixes on the length *)
    hdr crc ("+" ^ n);
    hdr crc ("-" ^ n);
    hdr crc "-1";
    hdr crc (Printf.sprintf "0x%x" len);
    hdr crc (Printf.sprintf "0o%o" len);
    hdr crc ("0b" ^ n);
    hdr crc (n ^ "_");
    hdr crc (" " ^ n);
    hdr crc "";
    (* huge lengths *)
    hdr crc "4611686018427387903";
    hdr crc "9223372036854775807";
    hdr crc "99999999999999999999999999";
    hdr crc "999999999999999999";
    (* the CRC field *)
    hdr ("0x" ^ crc) n;
    hdr ("-" ^ crc) n;
    hdr ("+" ^ crc) n;
    hdr (String.sub crc 1 7) n;
    hdr (crc ^ "0") n;
    hdr "zzzzzzzz" n;
    hdr "" n;
    hdr ("0000" ^ crc) n;
    (* missing and extra fields *)
    "";
    magic;
    magic ^ " " ^ crc;
    magic ^ " " ^ n;
    hdr crc n ^ " 0";
    String.concat "\t" [ magic; crc; n ];
    " " ^ hdr crc n;
  ]

let header_arb =
  QCheck.make
    ~print:(fun (j, extra) -> J.to_string j ^ " + " ^ String.escaped extra)
    QCheck.Gen.(pair json_gen (string_size ~gen:char (0 -- 24)))

let headers magic =
  QCheck.Test.make ~count:100
    ~name:(magic ^ ": malformed header lines are rejected, never raise")
    header_arb
    (fun (j, noise) ->
      let body = J.to_string j in
      let crc = Resil.Crc32.to_hex (Resil.Crc32.string body) in
      let len = String.length body in
      List.for_all
        (fun h -> rejects ~magic (h ^ "\n" ^ body ^ "\n"))
        (bad_headers ~magic ~crc ~len)
      (* arbitrary bytes, with and without a plausible header *)
      && (ignore (decode_safely ~magic noise);
          ignore (decode_safely ~magic (magic ^ " " ^ noise));
          ignore (decode_safely ~magic (magic ^ " " ^ crc ^ " " ^ noise));
          true))

let suite =
  List.concat_map
    (fun magic ->
      List.map
        (fun t -> QCheck_alcotest.to_alcotest t)
        [
          roundtrip magic;
          prefixes magic;
          flips magic;
          foreign magic;
          cap magic;
          headers magic;
        ])
    magics
