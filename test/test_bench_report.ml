(* Report-pipeline tests: JSON codec round-trips and the stats JSON
   emitters. *)

module Json = Bench_report.Json

(* --- JSON codec --------------------------------------------------------- *)

let sample_json =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.Bool true);
      ("int", Json.Int (-42));
      ("float", Json.Float 3.141592653589793);
      ("text", Json.String "line\nbreak \"quoted\" back\\slash\ttab");
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
      ( "nested",
        Json.List
          [ Json.Int 1; Json.List [ Json.Bool false ]; Json.Obj [ ("k", Json.Null) ] ]
      );
    ]

let test_json_roundtrip () =
  let compact = Json.to_string sample_json in
  let pretty = Json.to_string ~indent:2 sample_json in
  (match Json.of_string compact with
  | Ok v -> Alcotest.(check bool) "compact round-trip" true (v = sample_json)
  | Error e -> Alcotest.fail e);
  match Json.of_string pretty with
  | Ok v -> Alcotest.(check bool) "pretty round-trip" true (v = sample_json)
  | Error e -> Alcotest.fail e

let test_json_float_fidelity () =
  let values = [ 0.; 1.5; -2.25; 1e-9; 6.02e23; 127720.30301951288 ] in
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok v ->
          Alcotest.(check (float 0.)) (Printf.sprintf "%h survives" f) f
            (Option.get (Json.to_float v))
      | Error e -> Alcotest.fail e)
    values;
  (* JSON has no non-finite numbers: they print as null and read as nan *)
  match Json.of_string (Json.to_string (Json.Float nan)) with
  | Ok v -> Alcotest.(check bool) "nan -> null -> nan" true
              (Float.is_nan (Option.get (Json.to_float v)))
  | Error e -> Alcotest.fail e

let test_json_parse_errors () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON %S" s
      | Error _ -> ())
    bad

let test_json_unicode_escape () =
  match Json.of_string {|"aé😀b"|} with
  | Ok (Json.String s) -> Alcotest.(check string) "utf-8" "a\xc3\xa9\xf0\x9f\x98\x80b" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.fail e

(* --- stats JSON emitters ------------------------------------------------- *)

let test_online_to_json () =
  let acc = Stats.Online.create () in
  List.iter (Stats.Online.add acc) [ 1.; 2.; 3. ];
  match Json.of_string (Stats.Online.to_json_string acc) with
  | Error e -> Alcotest.fail e
  | Ok j ->
      Alcotest.(check (option int)) "count" (Some 3)
        (Option.bind (Json.member "count" j) Json.to_int);
      Alcotest.(check (float 1e-9)) "mean" 2.
        (Option.get (Option.bind (Json.member "mean" j) Json.to_float));
      Alcotest.(check (float 1e-9)) "sum" 6.
        (Option.get (Option.bind (Json.member "sum" j) Json.to_float))

let test_online_empty_to_json () =
  (* empty accumulator: mean is nan, min/max infinite -> all null in JSON *)
  match Json.of_string (Stats.Online.to_json_string (Stats.Online.create ())) with
  | Error e -> Alcotest.fail e
  | Ok j ->
      Alcotest.(check bool) "mean null" true (Json.member "mean" j = Some Json.Null);
      Alcotest.(check bool) "min null" true (Json.member "min" j = Some Json.Null)

let suite =
  [
    Alcotest.test_case "json: round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: float fidelity" `Quick test_json_float_fidelity;
    Alcotest.test_case "json: parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json: unicode escapes" `Quick test_json_unicode_escape;
    Alcotest.test_case "stats: Online.to_json_string" `Quick test_online_to_json;
    Alcotest.test_case "stats: empty Online emits nulls" `Quick
      test_online_empty_to_json;
  ]
