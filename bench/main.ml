(* Benchmark harness.

   Three halves:

   1. Experiment regeneration — prints the table behind every evaluation
      result of the paper (E1..E20; see DESIGN.md for the index). This is
      the "regenerate every table and figure" harness: run
        dune exec bench/main.exe              (full sweeps)
        dune exec bench/main.exe -- quick     (small sweeps)
        dune exec bench/main.exe -- quick e5  (one experiment)

   2. Bechamel micro-benchmarks — one Test.make per experiment family
      plus the substrate hot paths (event engine, CRC, codec, Viterbi,
      channel model, full protocol sessions, and the headline traced
      LAMS-DLC session whose frames/s is the line-rate scorecard).
      Skipped when the first argument is "tables"; run alone with
      "micro". Micro subjects are defined as plain (name, fn) thunks so
      the same closure feeds both bechamel (timing) and a direct
      Gc.minor_words delta loop (allocation per run).

   3. The machine-readable pipeline (Bench_report):
        dune exec bench/main.exe -- json [-quota S] [-limit N] OUT.json
      writes the micro-benchmark results (which include per-experiment
      quick-table regeneration subjects) as schema-stable JSON,
        dune exec bench/main.exe -- compare [-threshold PCT] [-min-r2 R] OLD NEW
      diffs two such files, exiting 1 when any subject regressed beyond
      the threshold (default 20%) in time or allocation — subjects whose
      OLS fit has r² below -min-r2 are reported as noisy and excluded
      from the gate instead of failing it on an untrustworthy estimate —
      and
        dune exec bench/main.exe -- alloc-gate REPORT.json
      asserts that the subjects expected to run allocation-free really
      did. CI runs compare against the checked-in BENCH_seed.json; see
      README "Benchmarking". *)

open Bechamel
open Toolkit

(* --- micro-benchmark subjects ------------------------------------------- *)

let bench_engine_events_fn () =
  let e = Sim.Engine.create () in
  for i = 0 to 9_999 do
    ignore
      (Sim.Engine.schedule e ~delay:(float_of_int (i land 63) *. 1e-6)
         (fun () -> ())
        : Sim.Engine.event_id)
  done;
  Sim.Engine.run e

(* Steady-state scheduling through the arena + timer wheel: one
   persistent engine, one pre-allocated [int -> unit] callback, delays
   spanning all three tiers of the event index (near heap, wheel
   buckets, overflow heap — 80 ms is past the wheel horizon). After the
   arena has grown to its working size this must not allocate at all
   (gated by alloc-gate): no closure per schedule, no record per event.
   The delay constants are captured once so no float is boxed per call. *)
let bench_engine_schedule_fn =
  let e = Sim.Engine.create () in
  let noop _ = () in
  let d0 = 5e-7 and d1 = 6.1e-5 and d2 = 9.7e-4 and d3 = 8e-2 in
  fun () ->
    for i = 0 to 2_499 do
      let d =
        match i land 3 with 0 -> d0 | 1 -> d1 | 2 -> d2 | _ -> d3
      in
      ignore
        (Sim.Engine.schedule_fn e ~delay:d ~fn:noop ~arg:i
          : Sim.Engine.event_id)
    done;
    Sim.Engine.run e

let bench_rng_fn =
  (* int draws: unlike [unit_float], the result is immediate, so the
     subject exercises the generator itself rather than float boxing at
     the cross-module return (non-flambda builds cannot unbox that) *)
  let rng = Sim.Rng.create ~seed:1 in
  fun () ->
    for _ = 1 to 10_000 do
      ignore (Sim.Rng.int rng 1_000_000 : int)
    done

let payload_1k = String.make 1024 'x'

let payload_desc = Frame.Payload.of_string payload_1k

let bench_crc32_fn =
  let b = Bytes.of_string payload_1k in
  fun () -> ignore (Frame.Crc.crc32 b ~pos:0 ~len:1024 : int32)

let bench_crc16_fn =
  let b = Bytes.of_string payload_1k in
  fun () -> ignore (Frame.Crc.crc16 b ~pos:0 ~len:1024 : int)

let bench_codec_roundtrip_fn =
  let frame = Frame.Wire.Data (Frame.Iframe.create ~seq:7 ~payload:payload_desc) in
  fun () ->
    match Frame.Codec.decode (Frame.Codec.encode frame) with
    | Ok _ -> ()
    | Error _ -> assert false

let bench_codec_scratch_fn =
  let frame = Frame.Wire.Data (Frame.Iframe.create ~seq:7 ~payload:payload_desc) in
  let scratch = Frame.Codec.create_scratch () in
  fun () ->
    let buf, len = Frame.Codec.encode_scratch scratch frame in
    match Frame.Codec.decode ~pos:0 ~len buf with
    | Ok _ -> ()
    | Error _ -> assert false

(* encode only, via the length-returning entry point: the steady-state
   scratch path that must not allocate at all (gated by alloc-gate) *)
let bench_codec_scratch_encode_fn =
  let frame = Frame.Wire.Data (Frame.Iframe.create ~seq:7 ~payload:payload_desc) in
  let scratch = Frame.Codec.create_scratch () in
  fun () -> ignore (Frame.Codec.encode_scratch_into scratch frame : int)

let bench_viterbi_fn =
  let cc = Fec.Conv_code.default in
  let src = Fec.Bitbuf.of_string (String.make 32 'v') in
  let coded = Fec.Conv_code.encode cc src in
  fun () -> ignore (Fec.Conv_code.decode cc coded ~data_bits:256 : Fec.Bitbuf.t)

(* the pre-rewrite decoder, kept as a subject so the trajectory records
   the table-driven path's speedup against it permanently *)
let bench_viterbi_reference_fn =
  let cc = Fec.Conv_code.default in
  let src = Fec.Bitbuf.of_string (String.make 32 'v') in
  let coded = Fec.Conv_code.encode cc src in
  fun () ->
    ignore (Fec.Conv_code.decode_reference cc coded ~data_bits:256 : Fec.Bitbuf.t)

let ge_model () =
  Channel.Error_model.gilbert_elliott ~ber_good:1e-7 ~ber_bad:1e-3
    ~mean_burst_bits:1e5 ~mean_gap_bits:1e6 ()

let bench_ge_model_fn =
  let model = ge_model () in
  let rng = Sim.Rng.create ~seed:3 in
  fun () ->
    for _ = 1 to 1_000 do
      ignore
        (Channel.Error_model.fate model rng ~header_bits:104 ~payload_bits:8192
          : Channel.Error_model.fate)
    done

(* same draw count through the batched entry point: the delta against
   bench_ge_model is the per-frame call + sojourn-sampling overhead *)
let bench_ge_batch_fn =
  let model = ge_model () in
  let rng = Sim.Rng.create ~seed:4 in
  let dst = Array.make 1_000 Channel.Error_model.Clean in
  fun () ->
    Channel.Error_model.fates_into model rng ~header_bits:104
      ~payload_bits:8192 dst ~n:1_000

(* Full bit-level pass — scratch encode, FEC (identity: in-place),
   exact bit flips from the uniform model, allocation-free verify — per
   frame. The steady-state decode-side counterpart of the scratch
   encode subject; gated by alloc-gate. *)
let bench_coded_path_status_fn =
  let rng = Sim.Rng.create ~seed:11 in
  let path =
    Channel.Coded_path.create ~rng ~iframe_code:Fec.Code.identity
      ~cframe_code:Fec.Code.identity
      ~error_model:(Channel.Error_model.uniform ~ber:1e-4 ())
  in
  let frame = Frame.Wire.Data (Frame.Iframe.create ~seq:3 ~payload:payload_desc) in
  fun () ->
    ignore (Channel.Coded_path.transmit_status path frame : Channel.Link.status)

let run_session protocol =
  let cfg = { Experiments.Scenario.default with Experiments.Scenario.n_frames = 500 } in
  ignore (Experiments.Scenario.run cfg protocol : Experiments.Scenario.result)

let bench_lams_session_fn () =
  run_session
    (Experiments.Scenario.Lams
       (Experiments.Scenario.default_lams_params Experiments.Scenario.default))

let bench_hdlc_session_fn () =
  run_session
    (Experiments.Scenario.Hdlc
       (Experiments.Scenario.default_hdlc_params Experiments.Scenario.default))

(* same transfer with a flight recorder subscribed: the delta against
   bench_lams_session is the cost of always-on tracing *)
let traced_lams_session n_frames =
  let recorder = Trace.Recorder.create ~name:"bench" () in
  let cfg =
    { Experiments.Scenario.default with Experiments.Scenario.n_frames }
  in
  ignore
    (Experiments.Scenario.run ~recorder cfg
       (Experiments.Scenario.Lams
          (Experiments.Scenario.default_lams_params Experiments.Scenario.default))
      : Experiments.Scenario.result)

let bench_lams_session_traced_fn () = traced_lams_session 500

(* The headline subject: a full LAMS-DLC transfer with the flight
   recorder attached — protocol machines, channel model, event engine
   and tracing all on the clock. ns_per_run / headline_frames is the
   per-frame cost the ROADMAP's "paper line rate" goal is scored on. *)
let headline_frames = 2_000

let headline_name =
  Printf.sprintf "headline: traced LAMS-DLC session, %d frames" headline_frames

let bench_headline_fn () = traced_lams_session headline_frames

(* Subjects as plain thunks: bechamel times them, and a separate
   Gc.minor_words loop measures per-run allocation for the same closure
   (bechamel's own measurement wrappers would pollute the counter). *)
let micro_fns =
  [
    ("sim: 10k scheduled events", bench_engine_events_fn);
    ("sim: steady-state engine schedule+run", bench_engine_schedule_fn);
    ("sim: 10k rng draws", bench_rng_fn);
    ("frame: crc16 of 1 kB", bench_crc16_fn);
    ("frame: crc32 of 1 kB", bench_crc32_fn);
    ("frame: encode+decode 1 kB I-frame", bench_codec_roundtrip_fn);
    ("frame: scratch encode+decode 1 kB I-frame", bench_codec_scratch_fn);
    ("frame: scratch encode 1 kB I-frame", bench_codec_scratch_encode_fn);
    ("fec: viterbi decode 256 bits", bench_viterbi_fn);
    ("fec: viterbi decode 256 bits (reference)", bench_viterbi_reference_fn);
    ("channel: 1k Gilbert-Elliott frame fates", bench_ge_model_fn);
    ("channel: 1k Gilbert-Elliott frame fates, batched", bench_ge_batch_fn);
    ("channel: coded-path status, identity code, 1 kB", bench_coded_path_status_fn);
    ("protocol: LAMS-DLC 500-frame session", bench_lams_session_fn);
    ("protocol: SR-HDLC 500-frame session", bench_hdlc_session_fn);
    ("trace: LAMS-DLC 500-frame session, recorded", bench_lams_session_traced_fn);
    (headline_name, bench_headline_fn);
  ]

(* Subjects that must not allocate a single minor word per run in steady
   state; alloc-gate fails if a report shows otherwise. The slack covers
   the measurement harness's own boxed Gc counters. *)
let zero_alloc_subjects =
  [
    "lams-dlc sim: 10k rng draws";
    "lams-dlc sim: steady-state engine schedule+run";
    "lams-dlc frame: scratch encode 1 kB I-frame";
    "lams-dlc channel: coded-path status, identity code, 1 kB";
  ]

let zero_alloc_slack_words = 8.

(* one Test.make per experiment table: the cost of regenerating it.
   Tables allocate by design (formatting, result records), so they are
   timed but not allocation-measured. *)
let bench_experiments =
  List.map
    (fun e ->
      Test.make ~name:(Printf.sprintf "table %s" e.Experiments.All.id)
        (Staged.stage (fun () ->
             let buf = Buffer.create 4096 in
             let ppf = Format.formatter_of_buffer buf in
             e.Experiments.All.run ~quick:true ppf;
             Format.pp_print_flush ppf ())))
    Experiments.All.all

let micro_tests =
  List.map (fun (name, fn) -> Test.make ~name (Staged.stage fn)) micro_fns
  @ bench_experiments

(* --- allocation counters ------------------------------------------------- *)

(* Mean minor words allocated per run. Gc.minor_words reads the
   allocation pointer directly, so the delta over a loop of runs is
   near-exact; a couple of warmup runs first let scratch buffers and
   memo caches reach steady state, which is the regime the zero-alloc
   gate is about. Run counts scale inversely with the subject's cost so
   the pass stays cheap. *)
let measure_minor_words ~ns_per_run fn =
  fn ();
  fn ();
  let runs =
    if Float.is_nan ns_per_run || ns_per_run <= 0. then 8
    else max 4 (min 200 (int_of_float (3e7 /. ns_per_run)))
  in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    fn ()
  done;
  let after = Gc.minor_words () in
  (after -. before) /. float_of_int runs

(* --- bechamel driver ----------------------------------------------------- *)

let default_quota = 0.25

let default_limit = 200

(* Run every subject and fold the raw measurements into report subjects:
   OLS ns/run estimate with r², per-sample mean/stddev, and (for the
   micro thunks) minor words per run. Bechamel groups subjects under a
   "lams-dlc " name prefix; the allocation pass matches on that. *)
let measure ~quota ~limit =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let clock = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) ~kde:None () in
  let raw =
    Benchmark.all cfg [ clock ]
      (Test.make_grouped ~name:"lams-dlc" ~fmt:"%s %s" micro_tests)
  in
  let estimates = Analyze.all ols clock raw in
  let label = Measure.label clock in
  let subjects =
    Hashtbl.fold
      (fun name bench acc ->
        let ns_per_run, r_square =
          match Hashtbl.find_opt estimates name with
          | None -> (nan, nan)
          | Some o ->
              ( (match Analyze.OLS.estimates o with
                | Some (est :: _) -> est
                | Some [] | None -> nan),
                match Analyze.OLS.r_square o with Some r -> r | None -> nan )
        in
        let ns_samples =
          Array.to_list bench.Benchmark.lr
          |> List.filter_map (fun m ->
                 let runs = Measurement_raw.run m in
                 if runs > 0. then Some (Measurement_raw.get ~label m /. runs)
                 else None)
        in
        let minor_words_per_run =
          match
            List.find_opt (fun (n, _) -> "lams-dlc " ^ n = name) micro_fns
          with
          | Some (_, fn) -> measure_minor_words ~ns_per_run fn
          | None -> nan
        in
        Bench_report.Report.subject_of_samples ~minor_words_per_run ~name
          ~ns_per_run ~r_square ~ns_samples ()
        :: acc)
      raw []
  in
  List.sort
    (fun a b -> compare a.Bench_report.Report.name b.Bench_report.Report.name)
    subjects

let pp_headline ppf subjects =
  match
    List.find_opt
      (fun s -> s.Bench_report.Report.name = "lams-dlc " ^ headline_name)
      subjects
  with
  | Some s when s.Bench_report.Report.ns_per_run > 0. ->
      Format.fprintf ppf "headline: %.0f frames/s (%.0f ns/frame)@."
        (float_of_int headline_frames
        /. (s.Bench_report.Report.ns_per_run *. 1e-9))
        (s.Bench_report.Report.ns_per_run /. float_of_int headline_frames)
  | _ -> ()

let run_micro () =
  let subjects = measure ~quota:default_quota ~limit:default_limit in
  Format.printf "@.=== micro-benchmarks (monotonic clock, ns/run) ===@.";
  List.iter
    (fun s ->
      let alloc =
        if Float.is_nan s.Bench_report.Report.minor_words_per_run then ""
        else
          Printf.sprintf ", %.1f w/run"
            s.Bench_report.Report.minor_words_per_run
      in
      Format.printf "%-55s %12.1f  (r²=%.4f, n=%d%s)@."
        s.Bench_report.Report.name s.Bench_report.Report.ns_per_run
        s.Bench_report.Report.r_square s.Bench_report.Report.samples alloc)
    subjects;
  pp_headline Format.std_formatter subjects

(* --- json / compare / alloc-gate modes ----------------------------------- *)

let run_json ~quota ~limit out =
  let subjects = measure ~quota ~limit in
  let meta = Bench_report.Report.collect_meta ~quota_s:quota ~limit in
  let report =
    {
      Bench_report.Report.schema_version = Bench_report.Report.schema_version;
      meta;
      subjects;
    }
  in
  Bench_report.Report.write out report;
  Format.printf "wrote %d subjects to %s@." (List.length subjects) out;
  pp_headline Format.std_formatter subjects

let read_report path =
  match Bench_report.Report.read path with
  | Ok r -> r
  | Error msg ->
      Format.eprintf "%s: %s@." path msg;
      exit 2

let run_compare ~threshold ~min_r_square baseline current =
  let baseline = read_report baseline and current = read_report current in
  let verdict =
    Bench_report.Compare.run ~threshold_pct:threshold ?min_r_square ~baseline
      ~current ()
  in
  Format.printf "%a" Bench_report.Compare.pp verdict;
  if Bench_report.Compare.failed verdict then exit 1

(* Assert the zero-allocation contract on an existing report: every
   subject in [zero_alloc_subjects] must be present, measured, and
   within slack of zero minor words per run. *)
let run_alloc_gate path =
  let report = read_report path in
  let failures =
    List.filter_map
      (fun name ->
        match Bench_report.Report.find report name with
        | None -> Some (name, "missing from report")
        | Some s ->
            let w = s.Bench_report.Report.minor_words_per_run in
            if Float.is_nan w then Some (name, "allocation not measured")
            else if w > zero_alloc_slack_words then
              Some (name, Printf.sprintf "%.1f minor words/run" w)
            else None)
      zero_alloc_subjects
  in
  List.iter
    (fun name ->
      match Bench_report.Report.find report name with
      | Some s when not (Float.is_nan s.Bench_report.Report.minor_words_per_run)
        ->
          Format.printf "%-55s %8.1f w/run@." name
            s.Bench_report.Report.minor_words_per_run
      | _ -> ())
    zero_alloc_subjects;
  match failures with
  | [] -> Format.printf "alloc-gate: %d subjects allocation-free — ok@."
            (List.length zero_alloc_subjects)
  | fs ->
      List.iter
        (fun (name, why) -> Format.eprintf "ALLOC %s: %s@." name why)
        fs;
      exit 1

(* --- entry point --------------------------------------------------------- *)

let usage () =
  Format.eprintf
    "usage: main.exe [quick|tables|micro] [EXPERIMENT_ID...]@.\
    \       main.exe json [-quota SECONDS] [-limit N] OUT.json@.\
    \       main.exe compare [-threshold PCT] [-min-r2 R] BASELINE.json \
     CURRENT.json@.\
    \       main.exe alloc-gate REPORT.json@.\
     valid experiment ids: %s@."
    (String.concat ", "
       (List.map (fun e -> e.Experiments.All.id) Experiments.All.all));
  exit 2

let float_arg name v =
  match float_of_string_opt v with
  | Some f when f > 0. -> f
  | _ ->
      Format.eprintf "%s: expected a positive number, got %S@." name v;
      usage ()

let int_arg name v =
  match int_of_string_opt v with
  | Some i when i > 0 -> i
  | _ ->
      Format.eprintf "%s: expected a positive integer, got %S@." name v;
      usage ()

let rec parse_json_args ~quota ~limit = function
  | [ out ] -> (quota, limit, out)
  | "-quota" :: v :: rest ->
      parse_json_args ~quota:(float_arg "-quota" v) ~limit rest
  | "-limit" :: v :: rest ->
      parse_json_args ~quota ~limit:(int_arg "-limit" v) rest
  | _ -> usage ()

let rec parse_compare_args ~threshold ~min_r_square = function
  | [ baseline; current ] -> (threshold, min_r_square, baseline, current)
  | "-threshold" :: v :: rest ->
      parse_compare_args ~threshold:(float_arg "-threshold" v) ~min_r_square
        rest
  | "-min-r2" :: v :: rest ->
      let r = float_arg "-min-r2" v in
      if r > 1. then begin
        Format.eprintf "-min-r2: expected a value in (0,1], got %S@." v;
        usage ()
      end;
      parse_compare_args ~threshold ~min_r_square:(Some r) rest
  | _ -> usage ()

let run_tables ~quick ids =
  Format.printf "=== experiment tables (paper evaluation reproduction) ===@.";
  let selected =
    if ids = [] then Experiments.All.all
    else
      List.map
        (fun id ->
          match Experiments.All.find id with
          | Some e -> e
          | None ->
              Format.eprintf "unknown experiment id %S@." id;
              usage ())
        ids
  in
  List.iter (fun e -> e.Experiments.All.run ~quick Format.std_formatter) selected

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "json" :: rest ->
      let quota, limit, out =
        parse_json_args ~quota:default_quota ~limit:default_limit rest
      in
      run_json ~quota ~limit out
  | "compare" :: rest ->
      let threshold, min_r_square, baseline, current =
        parse_compare_args ~threshold:20. ~min_r_square:None rest
      in
      run_compare ~threshold ~min_r_square baseline current
  | [ "alloc-gate"; path ] -> run_alloc_gate path
  | "alloc-gate" :: _ -> usage ()
  | args ->
      let quick = List.mem "quick" args in
      let micro_only = List.mem "micro" args in
      let tables_only = List.mem "tables" args in
      let ids =
        List.filter (fun a -> not (List.mem a [ "quick"; "micro"; "tables" ])) args
      in
      List.iter
        (fun id ->
          if String.length id > 0 && id.[0] = '-' then begin
            Format.eprintf "unknown option %S@." id;
            usage ()
          end)
        ids;
      if not micro_only then run_tables ~quick ids;
      if not tables_only then run_micro ()
