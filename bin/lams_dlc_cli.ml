(* Command-line front end for the reproduction experiments.

   Usage:
     lams_dlc_cli experiments list [--quick]
     lams_dlc_cli experiments run [e1 e5 ... | --all] [--quick] [--jobs N]
       [--replicates R] [--json]
     lams_dlc_cli sim -p lams|sr|nbdt ...
     lams_dlc_cli handover|corrupt|feedback run|soak ...
     lams_dlc_cli golden regen *)

open Cmdliner

(* Every command's exit codes: parse errors and [`Error]s are usage errors. *)
let exits =
  Cmd.Exit.
    [
      info 0 ~doc:"on success.";
      info 1 ~doc:"when a run breaks its safety rule or a check fails.";
      info 2 ~doc:"on a usage error: a bad flag, name or input file.";
      info 125 ~doc:"on an unexpected internal error (a bug).";
    ]

(* The --trace DIR flag of the matrix commands (`experiments run` and the
   soaks): point-in-time process config consumed by the runs'
   auto-capture (content-addressed per-replicate files). *)
let trace_dir_arg =
  let doc =
    "Capture a JSONL trace of every simulated run into $(docv) \
     (content-addressed file names; plus a .metrics.json summary per \
     run and a .flight.jsonl dump on any oracle violation)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"DIR" ~doc)

(* Shared --trace FILE flag of the single-run commands (`sim`, `handover
   run`, `corrupt run`, `feedback run`), published by [file_capture]. *)
let trace_file_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write the run's JSONL event trace to $(docv) (plus \
                 $(docv).metrics.json).")

(* Reject a flag whose value is out of range before anything runs: a
   usage error, exit code 2. *)
let require ok ~flag ~range =
  if not ok then begin
    Format.eprintf "%s must be %s@." flag range;
    exit 2
  end

let require_ber ~flag ber =
  require (ber >= 0. && ber <= 1.) ~flag ~range:"in [0, 1]"

let require_frames frames =
  require (frames >= 1) ~flag:"--frames" ~range:">= 1"

let require_payload payload =
  require (payload >= 0) ~flag:"--payload" ~range:">= 0"

(* Shared --json flag; [doc] says what is printed. *)
let json_arg ~doc = Arg.(value & flag & info [ "json" ] ~doc)

let run_json_arg =
  json_arg
    ~doc:"Print the run's metrics, the ones its matrix cell records, as one \
          JSON object."

(* The VARIANT names of `corrupt run` and `feedback run`. *)
let variant_enum =
  List.map
    (fun v -> (Experiments.E22_corruption.variant_tag v, v))
    Experiments.E22_corruption.variants

(* Shared --channel-trace flag (`sim`, `experiments run`): replay
   a recorded channel trace on the I-frame channel of every scenario run
   in this process. *)
let channel_trace_arg =
  let doc =
    "Replay the recorded channel trace in $(docv) (lams-dlc-channel-trace \
     v1 format) on the I-frame channel instead of the synthetic BER \
     models; replicates replay seed-selected windows of the trace and \
     results stay byte-identical for any --jobs."
  in
  Arg.(value & opt (some string) None
       & info [ "channel-trace" ] ~docv:"FILE" ~doc)

let load_channel_trace path =
  match Channel.Trace_model.load path with
  | data -> data
  | exception Channel.Trace_model.Parse_error e ->
      Format.eprintf "%s: %s@." path e;
      exit 2
  | exception Sys_error e ->
      Format.eprintf "%s@." e;
      exit 2

let set_channel_trace path =
  Experiments.Scenario.set_default_channel_trace
    (Option.map load_channel_trace path)

(* The --contact-plan flag of `handover run`. *)
let contact_plan_arg =
  let doc =
    "Contact plan file: '#' comments, an optional 'retarget <seconds>' \
     line, then one 'window <start> <end>' line per contact (seconds, \
     ordered, non-overlapping). Default: E21's scripted three-window \
     plan."
  in
  Arg.(value & opt (some string) None
       & info [ "contact-plan" ] ~docv:"FILE" ~doc)

(* The --corrupt-script flag of `corrupt run`. *)
let corrupt_script_arg =
  let doc =
    "State-corruption script: '#' comments, then either one rule per \
     line ('at T [every P] [copies N] CLASS [k=v ...]') or a single \
     'adversary seed=S start=A stop=B mean-gap=G classes=c1,c2' line. \
     Classes: seq-scramble-send, seq-scramble-recv, nak-poison, \
     nak-truncate, buffer-duplicate, carryover-stale, reverse-replay."
  in
  Arg.(value & opt (some string) None
       & info [ "corrupt-script" ] ~docv:"FILE" ~doc)

let load_corrupt_script path =
  match Dlc.Corrupt.load path with
  | Ok spec -> spec
  | Error e ->
      Format.eprintf "%s: %s@." path e;
      exit 2

(* Flags of `experiments run`. *)
let ids_arg =
  Arg.(value & pos_all string []
       & info [] ~docv:"ID" ~doc:"Experiment ids (e1 .. e24). Default: all.")

let all_arg =
  Arg.(value & flag
       & info [ "all" ] ~doc:"Run every experiment (same as passing no ids).")

let quick_arg =
  Arg.(value & flag
       & info [ "quick" ] ~doc:"Smaller sweeps for a fast smoke run.")

(* Shared by `experiments run` and the soaks. *)
let jobs_arg =
  let doc =
    "Worker count; the output is identical for any value. Needs OCaml >= 5 \
     to run in parallel (on 4.14 everything runs sequentially). Default: \
     one per core."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let select_experiments ids all =
  if all || ids = [] then Experiments.All.all
  else
    List.map
      (fun id ->
        match Experiments.All.find id with
        | Some e -> e
        | None ->
            Format.eprintf "unknown experiment %S (try 'experiments list')@." id;
            exit 2)
      ids

(* --- experiments: the replicated matrix runner ------------------------- *)

(* The flags every matrix command shares (`experiments run` and the
   soaks), resolved: --trace is applied and the worker count fixed. *)
type matrix_opts = {
  jobs : int;
  root_seed : int;
  json : bool;
  out : string option;
  no_meta : bool;
}

let matrix_opts =
  let root_seed =
    Arg.(value & opt int 1
         & info [ "root-seed" ] ~docv:"SEED"
             ~doc:"Root seed every task seed derives from.")
  in
  let json = json_arg ~doc:"Print the matrix report as JSON on stdout." in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Also write the JSON to $(docv).")
  in
  let no_meta =
    Arg.(value & flag
         & info [ "no-meta" ]
             ~doc:"Omit run metadata (host, timestamp, jobs) from the JSON so \
                   two runs diff byte-for-byte.")
  in
  let make jobs root_seed json out no_meta trace_dir =
    Trace.Config.set (Option.map (fun dir -> { Trace.Config.dir }) trace_dir);
    let jobs =
      max 1 (match jobs with Some j -> j | None -> Runner.Pool.default_jobs ())
    in
    { jobs; root_seed; json; out; no_meta }
  in
  Term.(
    const make $ jobs_arg $ root_seed $ json $ out $ no_meta $ trace_dir_arg)

(* Attach run metadata (unless --no-meta), write --out, then print the
   report as JSON or, through [text], as text tables. *)
let print_matrix ~text o report =
  let with_meta = not o.no_meta in
  let report =
    if with_meta then
      {
        report with
        Bench_report.Matrix_report.meta =
          Some (Bench_report.Matrix_report.collect_meta ~jobs:o.jobs);
      }
    else report
  in
  Option.iter
    (fun path -> Bench_report.Matrix_report.write ~with_meta path report)
    o.out;
  if o.json then
    print_endline
      (Bench_report.Json.to_string ~indent:2
         (Bench_report.Matrix_report.to_json ~with_meta report))
  else text Format.std_formatter report

let experiments_list_cmd =
  let doc = "List experiments with their matrix point counts." in
  let quick =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"Count the reduced quick-mode points.")
  in
  let run quick =
    List.iter
      (fun e ->
        Format.printf "%-4s %3d points  %s@." e.Experiments.All.id
          (List.length (e.Experiments.All.points ~quick))
          e.Experiments.All.name)
      Experiments.All.all
  in
  Cmd.v (Cmd.info "list" ~doc ~exits) Term.(const run $ quick)

let experiments_run_cmd =
  let doc =
    "Run the replicated experiment matrix: every parameter point of the \
     selected experiments, $(b,--replicates) times each with an \
     independent derived seed, in parallel across $(b,--jobs) workers. \
     Results (mean / stddev / 95% CI per metric) are identical for any \
     job count. The text output is each experiment's paper-vs-simulation \
     report, its simulated cells read from the matrix (with their CI \
     when $(b,--replicates) is above 1); $(b,--json) gives every metric."
  in
  let replicates =
    Arg.(value & opt int 1
         & info [ "r"; "replicates" ] ~docv:"R"
             ~doc:"Independent replicates per parameter point.")
  in
  let run ids all quick replicates channel_trace o =
    set_channel_trace channel_trace;
    require (replicates >= 1) ~flag:"--replicates" ~range:">= 1";
    let experiments =
      Experiments.All.matrix ~quick (select_experiments ids all)
    in
    print_matrix ~text:(Experiments.All.report ~quick) o
      (Runner.run ~jobs:o.jobs ~root_seed:o.root_seed ~replicates experiments)
  in
  Cmd.v (Cmd.info "run" ~doc ~exits)
    Term.(
      const run $ ids_arg $ all_arg $ quick_arg $ replicates $ channel_trace_arg
      $ matrix_opts)

let experiments_cmd =
  let doc = "Replicated experiment-matrix runner (deterministic seeds)." in
  Cmd.group (Cmd.info "experiments" ~doc ~exits)
    [ experiments_list_cmd; experiments_run_cmd ]

(* A JSON object of [(key, printed value)] fields, hand-rolled so float
   formatting matches the benchmark pipeline. *)
let json_obj fields =
  let buf = Buffer.create 512 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Printf.bprintf buf "%s: %s" (Stats.Jsonstr.escape k) v)
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* Machine-readable metrics for ad-hoc runs, mirroring [Dlc.Metrics.pp].
   Built on the [Stats] JSON emitters so the shape of the [Online]
   accumulators matches the benchmark pipeline's output. *)
let metrics_json ~protocol ~extra (m : Dlc.Metrics.t) =
  let int k v = (k, string_of_int v) in
  let online k v = (k, Stats.Online.to_json_string v) in
  json_obj
    ([
       ("protocol", Stats.Jsonstr.escape protocol);
       int "offered" m.Dlc.Metrics.offered;
       int "refused" m.Dlc.Metrics.refused;
       int "iframes_sent" m.Dlc.Metrics.iframes_sent;
       int "retransmissions" m.Dlc.Metrics.retransmissions;
       int "control_sent" m.Dlc.Metrics.control_sent;
       int "naks_sent" m.Dlc.Metrics.naks_sent;
       int "delivered" m.Dlc.Metrics.delivered;
       int "duplicates" m.Dlc.Metrics.duplicates;
       int "unique_delivered" (Dlc.Metrics.unique_delivered m);
       int "loss" (Dlc.Metrics.loss m);
       int "payload_bytes_delivered" m.Dlc.Metrics.payload_bytes_delivered;
       int "failures_detected" m.Dlc.Metrics.failures_detected;
       int "send_buffer_peak" m.Dlc.Metrics.send_buffer_peak;
       int "recv_buffer_peak" m.Dlc.Metrics.recv_buffer_peak;
       ("elapsed_s", Stats.Jsonstr.float_repr (Dlc.Metrics.elapsed m));
       online "holding_time" m.Dlc.Metrics.holding_time;
       online "delivery_delay" m.Dlc.Metrics.delivery_delay;
       online "send_buffer" m.Dlc.Metrics.send_buffer;
       online "recv_buffer" m.Dlc.Metrics.recv_buffer;
     ]
    @ extra)

(* --trace FILE for single runs: the recorder to run with, and the step
   that publishes FILE, FILE.metrics.json and (on violation)
   FILE.flight.jsonl afterwards. *)
let file_capture = function
  | None -> (None, fun () -> ())
  | Some path ->
      let c = Trace.Capture.create () in
      (Some (Trace.Capture.recorder c), fun () -> Trace.Capture.write c ~path)

let sim_cmd =
  let doc =
    "Run a single ad-hoc scenario (protocol, link and channel from flags) \
     and print its metrics."
  in
  let json =
    json_arg ~doc:"Print the metrics as a single JSON object instead of text."
  in
  let protocol =
    let doc = "Protocol: lams, sr-hdlc, gbn-hdlc, sr-st, gbn-st, nbdt, \
               nbdt-multiphase." in
    Arg.(value & opt string "lams" & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc)
  in
  let frames =
    Arg.(value & opt int 2000 & info [ "n"; "frames" ] ~docv:"N"
           ~doc:"Frames to transfer.")
  in
  let ber =
    Arg.(value & opt float 1e-5 & info [ "ber" ] ~docv:"BER"
           ~doc:"Channel bit error rate (I-frames).")
  in
  let cber =
    Arg.(value & opt float 1e-8 & info [ "control-ber" ] ~docv:"BER"
           ~doc:"Channel bit error rate for control frames (stronger FEC).")
  in
  let distance_km =
    Arg.(value & opt float 4000. & info [ "distance" ] ~docv:"KM"
           ~doc:"Link distance, kilometres.")
  in
  let rate_mbps =
    Arg.(value & opt float 300. & info [ "rate" ] ~docv:"MBPS"
           ~doc:"Line rate, Mbit/s.")
  in
  let payload =
    Arg.(value & opt int 1024 & info [ "payload" ] ~docv:"BYTES"
           ~doc:"I-frame payload size.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let run protocol frames ber cber distance_km rate_mbps payload seed json
      trace_file channel_trace =
    require_frames frames;
    require_ber ~flag:"--ber" ber;
    require_ber ~flag:"--control-ber" cber;
    require
      (Float.is_finite distance_km && distance_km >= 0.)
      ~flag:"--distance" ~range:"finite and >= 0";
    require
      (Float.is_finite rate_mbps && rate_mbps > 0.)
      ~flag:"--rate" ~range:"finite and > 0";
    require_payload payload;
    let cfg =
      {
        Experiments.Scenario.default with
        Experiments.Scenario.seed;
        n_frames = frames;
        ber;
        cframe_ber = cber;
        distance_m = 1000. *. distance_km;
        data_rate_bps = 1e6 *. rate_mbps;
        payload_bytes = payload;
        channel_trace = Option.map load_channel_trace channel_trace;
      }
    in
    let recorder, finish = file_capture trace_file in
    let hdlc mode stutter =
      `Hdlc
        {
          (Experiments.Scenario.default_hdlc_params cfg) with
          Hdlc.Params.mode;
          stutter;
        }
    in
    let nbdt mode = `Nbdt { Nbdt.Params.default with Nbdt.Params.mode } in
    let session =
      match String.lowercase_ascii protocol with
      | "lams" -> Some (`Lams (Experiments.Scenario.default_lams_params cfg))
      | "sr-hdlc" | "sr" -> Some (hdlc Hdlc.Params.Selective_repeat false)
      | "gbn-hdlc" | "gbn" -> Some (hdlc Hdlc.Params.Go_back_n false)
      | "sr-st" -> Some (hdlc Hdlc.Params.Selective_repeat true)
      | "gbn-st" -> Some (hdlc Hdlc.Params.Go_back_n true)
      | "nbdt" | "nbdt-continuous" -> Some (nbdt Nbdt.Params.Continuous)
      | "nbdt-multiphase" -> Some (nbdt Nbdt.Params.Multiphase)
      | _ -> None
    in
    match session with
    | Some session ->
        let r, _ = Experiments.Scenario.run_session ?recorder cfg session in
        finish ();
        (* NBDT runs report their bare metrics, without the run summary *)
        let summary = match session with `Nbdt _ -> false | _ -> true in
        if json then
          print_endline
            (metrics_json ~protocol
               ~extra:
                 (if not summary then []
                  else
                    [
                      ( "wall_elapsed_s",
                        Stats.Jsonstr.float_repr r.Experiments.Scenario.elapsed );
                      ( "efficiency",
                        Stats.Jsonstr.float_repr
                          r.Experiments.Scenario.efficiency );
                      ( "completed",
                        string_of_bool r.Experiments.Scenario.completed );
                      ( "sender_backlog",
                        string_of_int r.Experiments.Scenario.sender_backlog );
                    ])
               r.Experiments.Scenario.metrics)
        else begin
          Format.printf "protocol: %s@." protocol;
          Format.printf "%a@." Dlc.Metrics.pp r.Experiments.Scenario.metrics;
          if summary then
            Format.printf
              "elapsed: %.4f s   efficiency: %.4f   completed: %b   backlog: %d@."
              r.Experiments.Scenario.elapsed r.Experiments.Scenario.efficiency
              r.Experiments.Scenario.completed
              r.Experiments.Scenario.sender_backlog
        end;
        `Ok ()
    | None ->
        `Error
          ( false,
            Printf.sprintf
              "unknown protocol %S (try lams, sr-hdlc, gbn-hdlc, sr-st, gbn-st, \
               nbdt, nbdt-multiphase)"
              (String.lowercase_ascii protocol) )
  in
  Cmd.v (Cmd.info "sim" ~doc ~exits)
    Term.(
      ret
        (const run $ protocol $ frames $ ber $ cber $ distance_km $ rate_mbps
       $ payload $ seed $ json $ trace_file_arg $ channel_trace_arg))

(* --- trace: capture, validate and summarise JSONL traces --------------- *)

let trace_run_cmd =
  let doc =
    "Run one deterministic traced scenario and write its JSONL trace. \
     Default: a clean-channel LAMS-DLC transfer with a scripted drop \
     of two I-frames and one checkpoint (recoverable; exercises \
     retransmission and NAK events). With $(b,--disaster): a \
     misconfigured receiver silently loses a frame, the oracle trips, \
     and the flight recorder publishes FILE.flight.jsonl."
  in
  let out =
    Arg.(value & opt string "trace.jsonl"
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output trace path.")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let frames =
    Arg.(value & opt int 24 & info [ "n"; "frames" ] ~docv:"N"
           ~doc:"Frames to transfer.")
  in
  let disaster =
    Arg.(value & flag
         & info [ "disaster" ]
             ~doc:"Induce a guaranteed oracle violation (broken receiver \
                   with an empty NAK-cumulation window + one scripted \
                   drop) and dump the flight recorder.")
  in
  let run out seed frames disaster =
    require_frames frames;
    let capture = Trace.Capture.create () in
    let recorder = Trace.Capture.recorder capture in
    let violations =
      if disaster then
        (Experiments.Disaster.run ~seed ~frames ~recorder ()).Experiments.Disaster.violations
      else Experiments.Golden.scripted_transfer ~seed ~frames ~recorder
    in
    Trace.Capture.write capture ~path:out;
    Format.printf "%s: %d events, %d violation(s)%s@." out
      (Trace.Recorder.events_recorded recorder)
      (List.length violations)
      (if Trace.Recorder.flight recorder <> None then
         Printf.sprintf "; flight dump in %s.flight.jsonl" out
       else "");
    List.iter
      (fun v -> Format.printf "  %a@." Oracle.pp_violation v)
      violations
  in
  Cmd.v (Cmd.info "run" ~doc ~exits)
    Term.(const run $ out $ seed $ frames $ disaster)

let trace_validate_cmd =
  let doc = "Validate a JSONL trace against the event schema." in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Trace file.")
  in
  let run file =
    match Trace.Schema.validate_file file with
    | Ok n ->
        Format.printf "%s: ok, %d event(s)@." file n;
        `Ok ()
    | Error e -> `Error (false, Printf.sprintf "%s: %s" file e)
  in
  Cmd.v (Cmd.info "validate" ~doc ~exits) Term.(ret (const run $ file))

let trace_summary_cmd =
  let doc =
    "Recompute the counters and timing distributions of a JSONL trace \
     and print them as JSON (same shape as the .metrics.json sidecar)."
  in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Trace file.")
  in
  let run file =
    let metrics = Trace.Metrics.create () in
    match
      Trace.Schema.fold_file file ~init:() (fun () ev ->
          Trace.Metrics.observe metrics ev)
    with
    | Error e -> `Error (false, Printf.sprintf "%s: %s" file e)
    | Ok () ->
        print_endline
          (Bench_report.Json.to_string ~indent:2 (Trace.Metrics.to_json metrics));
        `Ok ()
  in
  Cmd.v (Cmd.info "summary" ~doc ~exits) Term.(ret (const run $ file))

let trace_cmd =
  let doc = "Trace capture, validation and summarisation." in
  Cmd.group (Cmd.info "trace" ~doc ~exits)
    [ trace_run_cmd; trace_validate_cmd; trace_summary_cmd ]

(* --- single runs, soaks and the safety gate ------------------------------ *)

(* The one printer of [X run]: the run's metrics, which its matrix cell
   and its soak schedule record. --json prints them as one object; text
   prints one [name value] line per metric, then each oracle violation.
   Then exit 1 when the run breaks its harness's safety rule, the rule
   the harness's soak applies to every schedule. *)
let report_run (h : Experiments.Soak.harness) ~json
    (run : Experiments.Scenario.checked) =
  let metrics =
    List.map
      (fun (k, v) -> (k, Stats.Jsonstr.float_repr v))
      run.Experiments.Scenario.metrics
  in
  if json then print_endline (json_obj metrics)
  else begin
    List.iter (fun (k, v) -> Format.printf "%s %s@." k v) metrics;
    List.iter
      (fun v -> Format.printf "  %a@." Oracle.pp_violation v)
      run.Experiments.Scenario.violations
  end;
  if not (h.safe run.Experiments.Scenario.metrics) then exit 1

let soak_cmd ~doc (h : Experiments.Soak.harness) =
  let schedules =
    Arg.(value & opt int 50
         & info [ "schedules" ] ~docv:"N"
             ~doc:(Printf.sprintf "Random %s schedules to sweep." h.schedules))
  in
  let run schedules o =
    require (schedules >= 1) ~flag:"--schedules" ~range:">= 1";
    let report =
      Experiments.Soak.run ~jobs:o.jobs ~root_seed:o.root_seed ~schedules h
    in
    print_matrix ~text:Experiments.Report.matrix o report;
    match Experiments.Soak.unsafe_points h report with
    | [] -> ()
    | labels ->
        Format.eprintf "%s in %d schedule(s): %s@." h.violation
          (List.length labels) (String.concat ", " labels);
        exit 1
  in
  Cmd.v (Cmd.info "soak" ~doc ~exits) Term.(const run $ schedules $ matrix_opts)

(* --- handover: contact-window session migration ------------------------ *)

let handover_run_cmd =
  let doc =
    "Run one multi-contact transfer (experiment E21's scenario): a \
     handover manager migrates LAMS-DLC sessions across the contact \
     plan's windows while the cross-handover oracle checks that no \
     payload is lost, and none duplicated beyond its Suspicious budget. \
     Exits non-zero on any oracle violation. To drive a corruption \
     script into a transfer, use $(b,corrupt run handover \
     --corrupt-script)."
  in
  let seed =
    Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let messages =
    Arg.(value & opt int 10
         & info [ "n"; "messages" ] ~docv:"N" ~doc:"Messages to transfer.")
  in
  let cut =
    let phase =
      Arg.enum
        [
          ("none", `None);
          ("first-tx", `First_tx);
          ("first-nak", `First_nak);
          ("recovery", `Recovery);
        ]
    in
    Arg.(value & opt phase `None
         & info [ "cut" ] ~docv:"PHASE"
             ~doc:"Cut the link once at an adversarial protocol phase: \
                   $(b,first-tx) (mid-serialisation of the first frame), \
                   $(b,first-nak) (between a NAK-bearing checkpoint and \
                   its arrival) or $(b,recovery) (during enforced \
                   recovery).")
  in
  let run plan_file seed messages cut json trace_file =
    require (messages >= 1) ~flag:"--messages" ~range:">= 1";
    let plan =
      match plan_file with
      | None -> Ok None
      | Some path -> Result.map Option.some (Handover.Plan.load path)
    in
    match plan with
    | Error e -> `Error (false, e)
    | Ok plan ->
        let base = Experiments.E21_handover.default_setup in
        let setup =
          {
            base with
            Experiments.E21_handover.plan =
              Option.value plan ~default:base.Experiments.E21_handover.plan;
            n_messages = messages;
            cut;
          }
        in
        let recorder, finish = file_capture trace_file in
        let run, _ =
          Experiments.E21_handover.transfer ?recorder ~seed setup
        in
        finish ();
        report_run Experiments.Soak.handover ~json run;
        `Ok ()
  in
  Cmd.v (Cmd.info "run" ~doc ~exits)
    Term.(
      ret
        (const run $ contact_plan_arg $ seed $ messages $ cut $ run_json_arg
       $ trace_file_arg))

let handover_cmd =
  let doc =
    "Contact-window handover: session migration across link lifetimes."
  in
  let soak_doc =
    "Seed-pinned chaos soak: sweep random blackout schedules over E21's \
     contact plan through the replicated matrix runner, the \
     cross-handover oracle watching every run. Results (and any \
     captured traces) are byte-identical for any $(b,--jobs) value. \
     Exits non-zero when any schedule trips the oracle."
  in
  Cmd.group (Cmd.info "handover" ~doc ~exits)
    [ handover_run_cmd; soak_cmd ~doc:soak_doc Experiments.Soak.handover ]

(* --- corrupt: self-stabilisation under live-state corruption ----------- *)

let corrupt_run_cmd =
  let doc =
    "Run one session (or one multi-contact handover transfer) under a \
     state-corruption schedule with the convergence-mode oracle \
     attached: every injection opens a bounded suspect window, and all \
     invariants must be re-established within the variant's checkpoint \
     budget. Exits non-zero when the oracle reports a real violation \
     (including failure to reconverge)."
  in
  let variant =
    let v =
      Arg.enum
        (List.map (fun (tag, v) -> (tag, `Single v)) variant_enum
        @ [ ("handover", `Handover) ])
    in
    Arg.(value & pos 0 v (`Single Experiments.E22_corruption.Lams)
         & info [] ~docv:"VARIANT"
             ~doc:"Protocol variant: $(b,lams), $(b,sr-hdlc), $(b,nbdt), \
                   or $(b,handover) (E21's multi-window transfer with \
                   carryover corruption and the cross-handover oracle).")
  in
  let klass =
    let doc =
      Printf.sprintf
        "Corruption class, injected once mid-stream with canonical \
         arguments. One of: %s. Default: seq-scramble-send \
         (carryover-stale for the handover variant)."
        (String.concat ", "
           (List.map fst Experiments.E22_corruption.classes))
    in
    Arg.(value & opt (some string) None & info [ "class" ] ~docv:"CLASS" ~doc)
  in
  let seed =
    Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let frames =
    Arg.(value & opt (some int) None
         & info [ "n"; "frames" ] ~docv:"N"
             ~doc:"Frames to transfer (single-session variants only; \
                   default: E22's canonical stream length).")
  in
  let run variant klass script seed frames json trace_file =
    Option.iter
      (fun n ->
        require (variant <> `Handover) ~flag:"--frames"
          ~range:"omitted for the handover variant";
        require_frames n)
      frames;
    let spec =
      match (script, klass) with
      | Some _, Some _ ->
          `Error (false, "--class and --corrupt-script are exclusive")
      | Some path, None -> `Ok (load_corrupt_script path)
      | None, Some tag -> (
          match List.assoc_opt tag Experiments.E22_corruption.classes with
          | Some k -> `Ok (Experiments.E22_corruption.spec_of k)
          | None ->
              `Error
                ( false,
                  Printf.sprintf "unknown corruption class %S (one of: %s)"
                    tag
                    (String.concat ", "
                       (List.map fst Experiments.E22_corruption.classes)) ))
      | None, None ->
          `Ok
            (match variant with
            | `Handover -> Experiments.E22_corruption.carryover_spec
            | _ ->
                Experiments.E22_corruption.spec_of
                  (snd (List.hd Experiments.E22_corruption.classes)))
    in
    match spec with
    | `Error _ as e -> e
    | `Ok spec ->
        let recorder, finish = file_capture trace_file in
        let run =
          match variant with
          | `Handover ->
              (* casualties and sessions follow the cell's metrics: the
                 E22 handover cell does not hold them *)
              let run, counts =
                Experiments.E22_corruption.run_handover ?recorder ~seed spec
              in
              {
                run with
                Experiments.Scenario.metrics =
                  run.Experiments.Scenario.metrics @ counts;
              }
          | `Single v ->
              Experiments.E22_corruption.run_one ?recorder ?frames ~seed v spec
        in
        finish ();
        report_run Experiments.Soak.corrupt ~json run;
        `Ok ()
  in
  Cmd.v (Cmd.info "run" ~doc ~exits)
    Term.(
      ret
        (const run $ variant $ klass $ corrupt_script_arg $ seed $ frames
       $ run_json_arg $ trace_file_arg))

let corrupt_cmd =
  let doc =
    "Self-stabilisation: state-corruption injection and convergence."
  in
  let soak_doc =
    "Seed-pinned corruption soak: sweep random adversary corruption \
     schedules over E21's mid-handover transfer through the replicated \
     matrix runner, the cross-handover oracle in convergence mode \
     watching every run. Results are byte-identical for any $(b,--jobs) \
     value. Exits non-zero when any schedule trips the oracle (fails \
     to reconverge or loses unledgered payloads)."
  in
  Cmd.group (Cmd.info "corrupt" ~doc ~exits)
    [ corrupt_run_cmd; soak_cmd ~doc:soak_doc Experiments.Soak.corrupt ]

(* --- feedback: Byzantine reverse-channel lies and the plausibility guard - *)

let feedback_run_cmd =
  let doc =
    "Run one session with a lying reverse channel and the feedback \
     oracle attached: scripted forward I-frame drops provide NAK \
     material, the chosen lie class tampers with the feedback, and \
     (with the guard on) the $(b,Dlc.Guard) plausibility layer \
     quarantines implausible checkpoints and escalates to forced \
     resynchronisation. Exits non-zero on a wrongful release or an \
     undeclared stall."
  in
  let variant =
    Arg.(value & pos 0 (enum variant_enum) Experiments.E22_corruption.Lams
         & info [] ~docv:"VARIANT"
             ~doc:"Protocol variant: $(b,lams), $(b,sr-hdlc) or $(b,nbdt).")
  in
  let lie =
    let doc =
      Printf.sprintf "Lie class for the reverse channel. One of: %s."
        (String.concat ", "
           (List.map Experiments.E24_feedback.lie_tag
              Experiments.E24_feedback.lies))
    in
    Arg.(value & opt (some string) None & info [ "lie" ] ~docv:"CLASS" ~doc)
  in
  let lie_script =
    Arg.(value & opt (some string) None
         & info [ "lie-script" ] ~docv:"FILE"
             ~doc:"Fault script for the reverse channel (the \
                   $(b,Channel.Fault) text format: drop, corrupt-*, \
                   forge-ack, rewrite-cp-seq, inject-stale-cp, blackout, \
                   adversary). Exclusive with --lie.")
  in
  let no_guard =
    Arg.(value & flag
         & info [ "no-guard" ]
             ~doc:"Run the bare paper protocol without the plausibility \
                   guard.")
  in
  let seed =
    Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let frames =
    Arg.(value & opt (some int) None
         & info [ "n"; "frames" ] ~docv:"N"
             ~doc:"Frames to transfer (default: E24's canonical stream \
                   length).")
  in
  let run variant lie lie_script no_guard seed frames json trace_file =
    Option.iter require_frames frames;
    let module E = Experiments.E24_feedback in
    let lie_of_tag tag =
      List.find_opt (fun l -> E.lie_tag l = tag) E.lies
    in
    let choice =
      match (lie, lie_script) with
      | Some _, Some _ -> `Error (false, "--lie and --lie-script are exclusive")
      | None, Some path -> (
          match Channel.Fault.load path with
          | Ok spec -> `Script spec
          | Error e ->
              Format.eprintf "%s: %s@." path e;
              exit 2)
      | Some tag, None -> (
          match lie_of_tag tag with
          | Some l -> `Lie l
          | None ->
              `Error
                ( false,
                  Printf.sprintf "unknown lie class %S (one of: %s)" tag
                    (String.concat ", " (List.map E.lie_tag E.lies)) ))
      | None, None -> `Lie E.Forge
    in
    match choice with
    | `Error _ as e -> e
    | (`Lie _ | `Script _) as choice ->
        let recorder, finish = file_capture trace_file in
        let run =
          match choice with
          | `Lie l ->
              E.run_one ?recorder ?frames ~guard_on:(not no_guard) ~seed
                variant l
          | `Script spec ->
              E.run_scripted ?recorder ?frames ~guard_on:(not no_guard) ~seed
                variant spec
        in
        finish ();
        report_run Experiments.Soak.feedback ~json run;
        `Ok ()
  in
  Cmd.v (Cmd.info "run" ~doc ~exits)
    Term.(
      ret
        (const run $ variant $ lie $ lie_script $ no_guard $ seed $ frames
       $ run_json_arg $ trace_file_arg))

let feedback_cmd =
  let doc =
    "Byzantine feedback: reverse-channel lie injection and the \
     checkpoint-plausibility guard."
  in
  let soak_doc =
    "Seed-pinned lying-feedback soak: sweep random reverse-channel lie \
     schedules (forged ACKs, checkpoint rewrites, stale replays, mixed \
     with drops) over all three variants with the guard on, through the \
     replicated matrix runner. Results are byte-identical for any \
     $(b,--jobs) value. Exits non-zero when any schedule wrongly \
     releases data or stalls without declaring failure."
  in
  Cmd.group (Cmd.info "feedback" ~doc ~exits)
    [ feedback_run_cmd; soak_cmd ~doc:soak_doc Experiments.Soak.feedback ]

(* --- channel: trace generation, calibration and live capture ----------- *)

let channel_gen_cmd =
  let doc =
    "Generate a scripted channel-trace file: $(b,storm) (periodic \
     beam-mispointing storms) or $(b,eclipse) (sinusoidal thermal BER \
     cycle). Deterministic in --seed."
  in
  let kind =
    Arg.(required & pos 0 (some (enum [ ("storm", `Storm); ("eclipse", `Eclipse) ])) None
         & info [] ~docv:"KIND" ~doc:"storm or eclipse.")
  in
  let out =
    Arg.(value & opt string "channel.trace"
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output trace path.")
  in
  let frames =
    Arg.(value & opt int 8000
         & info [ "n"; "frames" ] ~docv:"N" ~doc:"Trace length in frames.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let payload =
    Arg.(value & opt int 1024
         & info [ "payload" ] ~docv:"BYTES" ~doc:"I-frame payload size.")
  in
  let run kind out frames seed payload =
    require_frames frames;
    require_payload payload;
    let comment, data =
      Channel.Trace_model.generate kind ~frames ~seed ~payload_bytes:payload
    in
    Channel.Trace_model.save ~comment out data;
    Format.printf "%s: %d frames, error rate %.4f@." out frames
      (Channel.Trace_model.error_rate data)
  in
  Cmd.v (Cmd.info "gen" ~doc ~exits)
    Term.(const run $ kind $ out $ frames $ seed $ payload)

let channel_calibrate_cmd =
  let doc =
    "Fit Gilbert-Elliott parameters to a channel-trace file by burst/gap \
     run-length moment matching and report the fit and its residuals. \
     Exits 1 if the trace is degenerate (all-clean, all-bad, too few \
     bursts)."
  in
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Trace file to calibrate against.")
  in
  let payload =
    Arg.(value & opt int 1024
         & info [ "payload" ] ~docv:"BYTES"
             ~doc:"I-frame payload size assumed when scaling frames to bits.")
  in
  let close_gap =
    Arg.(value & opt int 2
         & info [ "burst-close-gap" ] ~docv:"FRAMES"
             ~doc:"Merge bursts separated by clean runs of at most $(docv) \
                   frames.")
  in
  let run file payload close_gap =
    match Channel.Trace_model.load file with
    | exception Channel.Trace_model.Parse_error e ->
        Format.eprintf "%s: %s@." file e;
        exit 2
    | exception Sys_error e ->
        Format.eprintf "%s@." e;
        exit 2
    | data -> (
        let frame_bits = 8 * (payload + Frame.Wire.iframe_overhead_bytes) in
        match
          Channel.Calibrate.fit ~burst_close_gap:close_gap ~frame_bits data
        with
        | Ok fit -> Format.printf "%s@." (Channel.Calibrate.describe fit)
        | Error e ->
            Format.eprintf "%s@." e;
            exit 1)
  in
  Cmd.v (Cmd.info "calibrate" ~doc ~exits)
    Term.(const run $ file $ payload $ close_gap)

let channel_record_cmd =
  let doc =
    "Run a LAMS session over a synthetic channel and record the live \
     I-frame fates (from the forward link) into a replayable \
     channel-trace file — the record half of the record/replay/calibrate \
     loop."
  in
  let out =
    Arg.(value & opt string "recorded.trace"
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output trace path.")
  in
  let frames =
    Arg.(value & opt int 2000
         & info [ "n"; "frames" ] ~docv:"N" ~doc:"Frames to transfer.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let ber =
    Arg.(value & opt float 1e-5
         & info [ "ber" ] ~docv:"BER" ~doc:"I-frame channel bit error rate.")
  in
  let burst_bits =
    Arg.(value & opt (some float) None
         & info [ "burst-bits" ] ~docv:"BITS"
             ~doc:"Use a Gilbert-Elliott channel with this mean burst \
                   sojourn (with --gap-bits and --ber-bad) instead of a \
                   uniform one.")
  in
  let gap_bits =
    Arg.(value & opt float 1e6
         & info [ "gap-bits" ] ~docv:"BITS"
             ~doc:"Mean good-state sojourn for --burst-bits.")
  in
  let ber_bad =
    Arg.(value & opt float 0.5
         & info [ "ber-bad" ] ~docv:"BER"
             ~doc:"Bad-state BER for --burst-bits.")
  in
  let payload =
    Arg.(value & opt int 1024
         & info [ "payload" ] ~docv:"BYTES" ~doc:"I-frame payload size.")
  in
  let run out frames seed ber burst_bits gap_bits ber_bad payload =
    require_frames frames;
    require_ber ~flag:"--ber" ber;
    require_payload payload;
    Option.iter
      (fun bits -> require (bits >= 1.) ~flag:"--burst-bits" ~range:">= 1")
      burst_bits;
    require (gap_bits >= 1.) ~flag:"--gap-bits" ~range:">= 1";
    require_ber ~flag:"--ber-bad" ber_bad;
    let cfg =
      {
        Experiments.Scenario.default with
        Experiments.Scenario.seed;
        n_frames = frames;
        payload_bytes = payload;
        horizon = 120.;
        ber;
        burst =
          Option.map
            (fun mean_burst_bits ->
              {
                Experiments.Scenario.ber_good = ber;
                ber_bad;
                mean_burst_bits;
                mean_gap_bits = gap_bits;
              })
            burst_bits;
      }
    in
    let fates = Trace.Fates.create () in
    let r, _ =
      Experiments.Scenario.run_session
        ~setup:(fun _ duplex _ ->
          Trace.Fates.attach fates duplex.Channel.Duplex.forward)
        cfg
        (`Lams (Experiments.Scenario.default_lams_params cfg))
    in
    let comment =
      Printf.sprintf
        "recorded: lams forward-link I-frame fates seed=%d frames=%d %s" seed
        frames
        (Channel.Model.describe (Experiments.Scenario.iframe_error cfg))
    in
    Trace.Fates.save ~comment fates out;
    Format.printf "%s: %d fates captured (%d unique deliveries)@." out
      (Trace.Fates.length fates)
      (Dlc.Metrics.unique_delivered r.Experiments.Scenario.metrics)
  in
  Cmd.v (Cmd.info "record" ~doc ~exits)
    Term.(
      const run $ out $ frames $ seed $ ber $ burst_bits $ gap_bits $ ber_bad
      $ payload)

let channel_cmd =
  let doc =
    "Channel traces: generate scripted scenarios, calibrate synthetic \
     twins, record live fates."
  in
  Cmd.group (Cmd.info "channel" ~doc ~exits)
    [ channel_gen_cmd; channel_calibrate_cmd; channel_record_cmd ]

(* --- golden: the checked-in golden files -------------------------------- *)

let golden_regen_cmd =
  let doc =
    "Rewrite every golden file in ./test/data from the registry of \
     scenarios that produce them (the files $(b,dune runtest) compares \
     byte for byte). Run it from the repository root. Exits 1 when a \
     scenario no longer shows the outcome its golden pins, and 2 when \
     ./test/data is missing."
  in
  let run () =
    let dir = Filename.concat "test" "data" in
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      Format.eprintf "%s: no such directory (run from the repository root)@."
        dir;
      exit 2
    end;
    let failed = ref false in
    List.iter
      (fun (e : Experiments.Golden.entry) ->
        let o = e.generate () in
        List.iter
          (fun (name, contents) ->
            let path = Filename.concat dir name in
            Trace.Config.write_atomic ~path contents;
            Format.printf "%s: %d bytes@." path (String.length contents))
          o.files;
        List.iter
          (fun f ->
            Format.eprintf "%s: outcome check failed: %s@." e.name f;
            failed := true)
          o.failures)
      Experiments.Golden.entries;
    if !failed then exit 1
  in
  Cmd.v (Cmd.info "regen" ~doc ~exits) Term.(const run $ const ())

let golden_cmd =
  let doc = "Golden files: regenerate test/data from its registry." in
  Cmd.group (Cmd.info "golden" ~doc ~exits) [ golden_regen_cmd ]

let () =
  let doc = "LAMS-DLC ARQ protocol reproduction (Ward & Choi, 1991)" in
  let info = Cmd.info "lams_dlc_cli" ~version:"1.0.0" ~doc ~exits in
  let cmd =
    Cmd.group info
      [
        sim_cmd;
        experiments_cmd;
        trace_cmd;
        handover_cmd;
        corrupt_cmd;
        feedback_cmd;
        channel_cmd;
        golden_cmd;
      ]
  in
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok () | `Version | `Help) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 125)
