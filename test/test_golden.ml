(* The golden registry (Experiments.Golden): every entry regenerates its
   files, still shows the outcome its golden pins, produces traces that
   pass the schema, and matches the checked-in bytes; and test/data
   holds exactly the files the registry produces, so a golden cannot
   land without its recipe. `lams_dlc_cli golden regen` rewrites the
   files from the same entries. The corrupt, feedback and channel-model
   suites check their own golden through [check_entry]. *)

module G = Experiments.Golden

(* dune runtest runs in _build/default/test where the deps glob places
   data/; fall back to the source tree for dune exec from the root *)
let data_dir = if Sys.file_exists "data" then "data" else "test/data"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* each entry runs at most once per test run, whichever test asks first *)
let generated =
  List.map (fun (e : G.entry) -> (e.name, lazy (e.generate ()))) G.entries

(* Regenerates the entry [entry], fails unless its outcome checks pass,
   its traces validate with more than 100 events and each file matches
   test/data byte for byte; returns the files as (name, contents). *)
let check_entry entry =
  let o =
    match List.assoc_opt entry generated with
    | Some o -> Lazy.force o
    | None -> Alcotest.failf "%s has no golden registry entry" entry
  in
  Alcotest.(check (list string)) (entry ^ ": outcome checks") [] o.failures;
  List.iter
    (fun (name, contents) ->
      (if Filename.check_suffix name ".jsonl" then
         match Trace.Schema.validate_file (Filename.concat data_dir name) with
         | Ok n -> Alcotest.(check bool) (name ^ ": events") true (n > 100)
         | Error e -> Alcotest.failf "%s breaks the trace schema: %s" name e);
      Alcotest.(check string)
        (name ^ " is byte-identical to the checked-in file")
        (read_file (Filename.concat data_dir name))
        contents)
    o.files;
  o.files

let test_regenerated_byte_for_byte () =
  List.iter (fun (name, _) -> ignore (check_entry name)) generated

let test_registry_covers_test_data () =
  let produced =
    List.concat_map
      (fun (_, o) -> List.map fst (Lazy.force o : G.output).files)
      generated
  in
  Alcotest.(check (list string))
    "test/data holds exactly the files the registry produces"
    (List.sort compare produced)
    (List.sort compare (Array.to_list (Sys.readdir data_dir)))

let suite =
  [
    Alcotest.test_case "every entry regenerates its files byte for byte"
      `Quick test_regenerated_byte_for_byte;
    Alcotest.test_case "test/data holds exactly the registry's files" `Quick
      test_registry_covers_test_data;
  ]
