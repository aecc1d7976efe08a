(* One run of one workload: set-up, the timed tasks, the output checks,
   and with [~trace:true] the traced pass and its attribution. *)

module Scenario = Experiments.Scenario

type options = {
  seed : int;
  seconds : int;
  trace : bool;
  entry_ns : int;  (** the program's entry, where the first set-up starts *)
  record_pinned : bool;
}

(* Both relative to the working directory, the root of a checkout. *)
let pinned_dir = "perfbench/pinned"
let spans_dir = ".bench_out"

let ms ns = ns /. 1e6
let sum_int = Array.fold_left ( + ) 0
let sum_float = Array.fold_left ( +. ) 0.
let fi = float_of_int
let ratio = Report.ratio

(* Set up [reps] times and keep the last; each set-up ends with its
   untimed warm-up and is followed by a calibration that scales it. The
   first is timed from the program's entry. Returns the raw and the
   scaled durations. *)
let set_up ~reps ~entry_ns f =
  let raw = Array.make reps 0. and scaled = Array.make reps 0. in
  let result = ref None in
  for k = 0 to reps - 1 do
    let t0 = if k = 0 then entry_ns else Clock.now_ns () in
    result := Some (f k);
    raw.(k) <- Clock.seconds_of_ns (Clock.now_ns () - t0);
    let c = Calib.measure () in
    scaled.(k) <- raw.(k) *. Calib.factor c c
  done;
  (Option.get !result, (raw, scaled))

let setup_metric (raw, scaled) =
  Report.metric "setup_s" "s" (Quantile.median scaled)
    ~note:
      (Printf.sprintf "median of %d set-ups, unscaled: %s" (Array.length raw)
         (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") raw))))

let timing_metrics ~task_ns =
  let task_ms = Array.map ms task_ns in
  let tail = Quantile.tail task_ms in
  [
    Report.metric "task_ms_p50" "ms" (Quantile.median task_ms)
      ~note:(Printf.sprintf "%d tasks" (Array.length task_ms));
    Report.metric "task_ms_tail" "ms" tail.value
      ~note:
        (Printf.sprintf "p%.2f of %d samples, %d beyond it" tail.percentile
           tail.samples tail.beyond);
  ]

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let pinned_check opts name entries =
  if opts.seed <> Report.pinned_seed then
    ([], Printf.sprintf "pinned digests: not checked (seed %d, pinned seed is %d)"
           opts.seed Report.pinned_seed)
  else if opts.record_pinned then begin
    Report.write_pinned ~dir:pinned_dir name
      ~header:
        [
          Printf.sprintf "%s --seed %d --seconds %d: digest of each task's simulated statistics"
            name opts.seed opts.seconds;
          "written by: main.exe --workload " ^ name ^ " --seed 1 --seconds "
          ^ string_of_int opts.seconds ^ " --trace 0 --record-pinned";
        ]
      entries;
    ([], "pinned digests: recorded to " ^ Report.pinned_file ~dir:pinned_dir name)
  end
  else Report.check_pinned ~dir:pinned_dir name entries

(* --- session workloads --------------------------------------------------- *)

let attribution sp ~wall_ns =
  let top = Spans.top_ns sp in
  let self_total = ref 0 in
  let rows =
    List.init Spans.n_kinds (fun k ->
        let self = Spans.self_ns sp k and calls = Spans.calls sp k in
        self_total := !self_total + self;
        if calls = 0 then None
        else
          Some
            (Printf.sprintf "  %-20s %-9s %12d %12.3f %10.1f %7.2f%%"
               Spans.kind_names.(k) (Spans.layer_of_kind k) calls
               (ms (fi self)) (ratio (fi self) (fi calls))
               (100. *. ratio (fi self) (fi wall_ns))))
    |> List.filter_map Fun.id
  in
  let remainder = wall_ns - top in
  let closes = !self_total = top && remainder >= 0 in
  let lines =
    [
      Printf.sprintf "  %-20s %-9s %12s %12s %10s %8s" "span" "layer" "calls" "self_ms"
        "ns/call" "share";
    ]
    @ rows
    @ [
        Printf.sprintf "  %-20s %-9s %12s %12.3f %10s %7.2f%%" "unattributed" "-" "-"
          (ms (fi remainder)) "-"
          (100. *. ratio (fi remainder) (fi wall_ns));
        Printf.sprintf "  %-20s %-9s %12s %12.3f" "traced wall" "-" "-" (ms (fi wall_ns));
        Printf.sprintf
          "attribution %s: sum of self times %d ns + unattributed %d ns = traced wall %d ns"
          (if closes then "closes" else "DOES NOT CLOSE")
          !self_total remainder (!self_total + remainder);
      ]
  in
  (lines, closes)

let session_layers (s : Workloads.session) sp (c : Sessions.counters)
    (u : Sessions.pass) ~frames ~overhead =
  let frames = fi frames in
  let self k = fi (Spans.self_ns sp k) and calls k = fi (Spans.calls sp k) in
  let per_call k = ratio (self k) (calls k) in
  let events = fi c.events in
  let proto, rx, feedback =
    match s.proto with
    | Workloads.Lams -> ("lams_dlc", Spans.lams_rx, Spans.lams_feedback)
    | Workloads.Hdlc -> ("hdlc", Spans.hdlc_rx, Spans.hdlc_feedback)
  in
  [
    ("sim.events_per_frame", ratio events frames);
    ("sim.self_ns_per_event", ratio (self Spans.sim_event) events);
    ("sim.pending_peak", fi c.pending_peak);
    ("channel.fate_calls_per_frame", ratio (calls Spans.channel_fate) frames);
    ( "channel.fate_ns",
      ratio
        (self Spans.channel_fate +. self Spans.channel_advance
        +. self Spans.channel_other)
        (calls Spans.channel_fate) );
    ("channel.damaged_frac", ratio (fi c.forward_damaged) (fi c.forward_sent));
    ("channel.link_queue_peak", fi c.queue_peak);
    ("workload.payload_ns", per_call Spans.workload_payload);
    ( "workload.payload_words",
      ratio c.payload_words.(0) (calls Spans.workload_payload) );
    ("workload.payloads_per_frame", ratio (calls Spans.workload_payload) frames);
    ("workload.offer_ns", per_call Spans.workload_offer);
    (proto ^ ".rx_ns", per_call rx);
    (proto ^ ".feedback_ns", per_call feedback);
    (proto ^ ".feedback_per_frame", ratio (calls feedback) frames);
    (proto ^ ".retx_per_frame", ratio (fi c.retransmissions) frames);
    ("dlc.probe_events_per_frame", ratio (fi c.probe_events) frames);
    ("trace.recorder_ns_per_event", per_call Spans.trace_record);
    ("oracle.ns_per_event", per_call Spans.oracle_check);
    (* the gc deltas come from every task of the untraced pass *)
    ("gc.promoted_words_per_frame", ratio u.promoted_words (fi (sum_int u.frames)));
    ("gc.major_per_task", ratio (fi u.major_collections) (fi (Array.length u.frames)));
    ("tracing.overhead_frac", overhead);
  ]
  @
  match s.proto with
  | Workloads.Lams -> [ ("lams_dlc.nak_cp_frac", ratio (fi c.naks_sent) (fi c.control_sent)) ]
  | Workloads.Hdlc -> []

(* The sweep-level metrics shared by every workload: [sweep_s] is the
   median sweep wall, [frames_per_s] the median over sweeps of the
   sweep's unique frames / its wall. *)
let sweep_metrics ~walls ~frames ~note =
  let sweep_s = Quantile.median walls /. 1e9 in
  [
    Report.metric "frames_per_s" "frames/s"
      (Quantile.median (Array.mapi (fun k wall -> ratio frames.(k) (wall /. 1e9)) walls))
      ~note;
    Report.metric "sweep_s" "s" sweep_s
      ~note:(Printf.sprintf "median of %d sweeps" (Array.length walls));
  ]

(* What the run measured before scaling, for the text output. *)
let unscaled_line ~walls ~frames ~task_ns ~cal =
  let tail = Quantile.tail (Array.map ms task_ns) in
  let sweep_s = Quantile.median walls /. 1e9 in
  Printf.sprintf
    "unscaled wall times: frames_per_s %.0f, sweep_s %.4f, task_ms_p50 %.4f, task_ms_tail \
     %.4f; calibration %.2f ms median (%.2f-%.2f) over %d samples, reference %.2f ms"
    (Quantile.median (Array.mapi (fun k wall -> ratio frames.(k) (wall /. 1e9)) walls))
    sweep_s
    (ms (Quantile.median task_ns))
    tail.value
    (ms (Quantile.median cal))
    (ms (Array.fold_left Float.min infinity cal))
    (ms (Array.fold_left Float.max 0. cal))
    (Array.length cal) (ms Calib.reference_ns)

let run_session opts (w : Workloads.t) (s : Workloads.session) =
  let per_sweep = s.per_sweep and sweeps = Workloads.sweeps w ~seconds:opts.seconds in
  let n = per_sweep * sweeps in
  let task_of seed =
    let cfg = Workloads.config s ~seed in
    { Sessions.cfg; proto = Workloads.protocol s cfg }
  in
  let tasks, setups =
    set_up ~reps:9 ~entry_ns:opts.entry_ns (fun k ->
        let tasks = Array.init n (fun i -> task_of (Workloads.task_seed w ~seed:opts.seed i)) in
        ignore
          (Sessions.run_untraced s ~name:w.name
             (task_of (Workloads.warmup_seed w ~seed:opts.seed k)));
        tasks)
  in
  let u = Sessions.untraced_pass s ~name:w.name ~gc:opts.trace ~per_sweep tasks in
  let frames = sum_int u.frames in
  let sweep_frames =
    Array.init sweeps (fun k -> fi (sum_int (Array.sub u.frames (k * per_sweep) per_sweep)))
  in
  let f = Calib.factors u.calib_ns in
  let walls = Array.mapi (fun k wall -> wall *. f.(k)) u.sweep_ns in
  let task_ns = Array.mapi (fun i t -> t *. f.(i / per_sweep)) u.task_ns in
  let e2e =
    sweep_metrics ~walls ~frames:sweep_frames
      ~note:
        (Printf.sprintf "%d unique frames in %d sessions of %d" frames n s.frames)
    @ timing_metrics ~task_ns
    @ [
        Report.metric "minor_words_per_frame" "words" (ratio u.words (fi frames));
        Report.metric "peak_rss_mb" "MB" (Report.peak_rss_mb ()) ~note:"VmHWM";
        setup_metric setups;
      ]
  in
  let pin_problems, pin_line =
    pinned_check opts w.name
      (Array.to_list (Array.mapi (fun i d -> (string_of_int i, d)) u.digests))
  in
  let unsafe =
    Array.to_list u.task_causes
    |> List.concat_map (List.filter (fun c -> List.mem c Sessions.unsafe))
    |> List.map (fun c -> "a task failed the " ^ c ^ " check")
    |> List.sort_uniq compare
  in
  let base =
    {
      Report.e2e;
      layers = [];
      lines =
        [
          Printf.sprintf "%d sweeps of %d sessions of %d frames" sweeps per_sweep s.frames;
          unscaled_line ~walls:u.sweep_ns ~frames:sweep_frames ~task_ns:u.task_ns
            ~cal:u.calib_ns;
          pin_line;
        ];
      attempted = Array.length u.task_causes;
      failed = Report.failed_tasks u.task_causes;
      causes = Report.count_causes u.task_causes;
      problems = pin_problems @ unsafe;
    }
  in
  if not opts.trace then base
  else begin
    let sp = Spans.create () and c = Sessions.counters () in
    (* the first sweep again, traced: the same tasks as [u]'s first sweep *)
    let t = Sessions.traced_pass sp c s ~name:w.name (Array.sub tasks 0 per_sweep) in
    let fidelity =
      List.filter_map Fun.id
        (List.init per_sweep (fun i ->
             if t.digests.(i) = u.digests.(i) then None
             else
               Some
                 (Printf.sprintf "traced task %d: digest %s, untraced %s" i t.digests.(i)
                    u.digests.(i))))
    in
    let traced_ns = int_of_float t.sweep_ns.(0) and untraced_ns = u.sweep_ns.(0) in
    let traced_frames = sum_int t.frames in
    (* both sweeps at the reference speed *)
    let overhead =
      ratio (fi traced_ns *. (Calib.factors t.calib_ns).(0)) (untraced_ns *. f.(0)) -. 1.
    in
    let table, closes = attribution sp ~wall_ns:traced_ns in
    ensure_dir spans_dir;
    let dump =
      Filename.concat spans_dir
        (Printf.sprintf "spans-%s-seed%d.tsv" w.name opts.seed)
    in
    Spans.dump sp dump;
    let lines =
      base.lines
      @ [
          Printf.sprintf "traced sweep: %d of %d task digests equal the untraced pass's"
            (per_sweep - List.length fidelity) per_sweep;
          Printf.sprintf "attribution over the traced sweep (%d tasks, %d spans):" per_sweep
            (Spans.spans sp);
        ]
      @ table
      @ [
          Printf.sprintf
            "tracing overhead: traced %.3f s vs untraced %.3f s for the first sweep's \
             tasks, unscaled (%+.1f%% at the reference speed); frames_per_s %.0f traced vs \
             %.0f untraced, unscaled"
            (Clock.seconds_of_ns traced_ns) (untraced_ns /. 1e9) (100. *. overhead)
            (ratio (fi traced_frames) (Clock.seconds_of_ns traced_ns))
            (ratio (fi traced_frames) (untraced_ns /. 1e9));
          Printf.sprintf "spans written to %s" dump;
        ]
    in
    {
      base with
      layers = session_layers s sp c u ~frames:traced_frames ~overhead;
      lines;
      problems =
        base.problems @ fidelity
        @ if closes then [] else [ "traced attribution does not close" ];
    }
  end

(* --- matrix-quick -------------------------------------------------------- *)

(* A matrix task's time over the run is the median of its sweeps, so one
   slow sweep moves no task; p50 and tail are taken over those 99 times.
   Sweep [k]'s times are multiplied by [f.(k)]. *)
let matrix_task_ns (sweeps : Matrix_bench.sweep list) f =
  let n = Array.length (List.hd sweeps).task_ns in
  Array.init n (fun i ->
      List.concat
        (List.mapi
           (fun k (sw : Matrix_bench.sweep) ->
             if sw.task_causes.(i) = [] then [ sw.task_ns.(i) *. f.(k) ] else [])
           sweeps)
      |> Array.of_list |> Quantile.median)
  |> Array.to_list |> List.filter Float.is_finite |> Array.of_list

let matrix_e2e (sweeps : Matrix_bench.sweep list) ~cal ~setups =
  let f = Calib.factors cal in
  let total f = List.fold_left (fun acc sw -> acc +. f sw) 0. sweeps in
  let frames = total (fun sw -> fi (sum_int sw.task_frames)) in
  let words = total (fun sw -> sum_float sw.task_words) in
  let walls = Array.of_list (List.map (fun (sw : Matrix_bench.sweep) -> fi sw.wall_ns) sweeps) in
  let sweep_frames =
    Array.of_list (List.map (fun (sw : Matrix_bench.sweep) -> fi (sum_int sw.task_frames)) sweeps)
  in
  let metrics =
    sweep_metrics ~walls:(Array.mapi (fun k wall -> wall *. f.(k)) walls) ~frames:sweep_frames
      ~note:"the delivered metric of a sweep's tasks, summed"
    @ timing_metrics ~task_ns:(matrix_task_ns sweeps f)
    @ [
        Report.metric "minor_words_per_frame" "words" (ratio words frames)
          ~note:"each task's words read in its own domain";
        Report.metric "peak_rss_mb" "MB" (Report.peak_rss_mb ()) ~note:"VmHWM";
        setup_metric setups;
      ]
  in
  let unscaled =
    unscaled_line ~walls ~frames:sweep_frames
      ~task_ns:(matrix_task_ns sweeps (Array.map (fun _ -> 1.) f))
      ~cal
  in
  (metrics, unscaled)

let matrix_layers (sweeps : Matrix_bench.sweep list) experiment ~overhead =
  let count = fi (List.length sweeps) in
  let busy (sw : Matrix_bench.sweep) = sum_float sw.task_ns in
  let slots (sw : Matrix_bench.sweep) = fi (Matrix_bench.jobs * sw.wall_ns) in
  let sum f = List.fold_left (fun acc sw -> acc +. f sw) 0. sweeps in
  let critical =
    Array.of_list
      (List.map (fun (sw : Matrix_bench.sweep) -> Array.fold_left Float.max 0. sw.task_ns) sweeps)
  in
  let per_experiment id =
    sum (fun sw ->
        let total = ref 0. in
        Array.iteri
          (fun i ns -> if experiment.(i) = id then total := !total +. ns)
          sw.task_ns;
        !total)
  in
  let frames = sum (fun sw -> fi (sum_int sw.task_frames)) in
  let tasks = sum (fun sw -> fi (Array.length sw.task_ns)) in
  [
    ("runner.busy_frac", ratio (sum busy) (sum slots));
    ("runner.idle_ms", ms (ratio (sum slots -. sum busy) count));
    ("runner.critical_task_ms", ms (Quantile.median critical));
  ]
  @ List.map
      (fun id ->
        (Printf.sprintf "experiments.%s.task_ms" id, ms (ratio (per_experiment id) count)))
      Report.experiment_ids
  @ [
      ("gc.promoted_words_per_frame", ratio (sum (fun sw -> sw.promoted_words)) frames);
      ("gc.major_per_task", ratio (sum (fun sw -> fi sw.major_collections)) tasks);
      ("tracing.overhead_frac", overhead);
    ]

(* Worker time is [jobs] times the wall: each task's span is busy time of
   its experiment, the rest is the runner's idle time. Each domain must
   run one task at a time, and a sweep may use at most [jobs] domains. *)
let matrix_attribution (sweeps : Matrix_bench.sweep list) (sl : Matrix_bench.slots) =
  let ids = Report.experiment_ids in
  let busy = Hashtbl.create 32 in
  let slots = ref 0 and idle = ref 0 and overlaps = ref 0 and domains_ok = ref true in
  List.iter
    (fun (sw : Matrix_bench.sweep) ->
      slots := !slots + (Matrix_bench.jobs * sw.wall_ns);
      let total = ref 0 in
      Array.iteri
        (fun i ns ->
          let ns = int_of_float ns in
          total := !total + ns;
          let id = sl.experiment.(i) in
          Hashtbl.replace busy id (ns + Option.value ~default:0 (Hashtbl.find_opt busy id)))
        sw.task_ns;
      idle := !idle + ((Matrix_bench.jobs * sw.wall_ns) - !total);
      let domains = List.sort_uniq compare (Array.to_list sw.task_domain) in
      if List.length domains > Matrix_bench.jobs then domains_ok := false)
    sweeps;
  (* tasks of one domain must not overlap: checked on the last sweep's
     slots, which still hold its start and end times *)
  let n = Array.length sl.start_ns in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b -> compare (sl.domain.(a), sl.start_ns.(a)) (sl.domain.(b), sl.start_ns.(b)))
    order;
  for k = 1 to n - 1 do
    let a = order.(k - 1) and b = order.(k) in
    if sl.domain.(a) = sl.domain.(b) && sl.start_ns.(b) < sl.stop_ns.(a) then incr overlaps
  done;
  let busy_total = Hashtbl.fold (fun _ v acc -> acc + v) busy 0 in
  let closes =
    busy_total + !idle = !slots && !idle >= 0 && !overlaps = 0 && !domains_ok
  in
  let row id =
    let v = Option.value ~default:0 (Hashtbl.find_opt busy id) in
    Printf.sprintf "  %-16s %12.3f %7.2f%%" ("experiments." ^ id) (ms (fi v))
      (100. *. ratio (fi v) (fi !slots))
  in
  ( [ Printf.sprintf "  %-16s %12s %8s" "layer" "busy_ms" "share" ]
    @ List.map row ids
    @ [
        Printf.sprintf "  %-16s %12.3f %7.2f%%" "runner idle" (ms (fi !idle))
          (100. *. ratio (fi !idle) (fi !slots));
        Printf.sprintf "  %-16s %12.3f" "worker time" (ms (fi !slots));
        Printf.sprintf
          "attribution %s: task time %d ns + runner idle %d ns = %d workers x traced wall %d ns \
           (%d overlapping tasks within a domain)"
          (if closes then "closes" else "DOES NOT CLOSE")
          busy_total !idle Matrix_bench.jobs (!slots / Matrix_bench.jobs) !overlaps;
      ],
    closes )

let dump_matrix_spans path (sweeps : Matrix_bench.sweep list) (sl : Matrix_bench.slots) =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "sweep\ttask\tname\tdomain\tduration_ns\tminor_words\n";
      List.iteri
        (fun k (sw : Matrix_bench.sweep) ->
          Array.iteri
            (fun i ns ->
              Printf.fprintf oc "%d\t%d\texperiments.%s\t%d\t%.0f\t%.0f\n" k i
                sl.experiment.(i) sw.task_domain.(i) ns sw.task_words.(i))
            sw.task_ns)
        sweeps)

let run_matrix opts (w : Workloads.t) =
  let n = Workloads.sweeps w ~seconds:opts.seconds in
  let built, setups =
    set_up ~reps:3 ~entry_ns:opts.entry_ns (fun _ ->
        let built = Matrix_bench.build () in
        ignore (Matrix_bench.sweep built ~seed:opts.seed ~gc:false : Matrix_bench.sweep);
        built)
  in
  let sweeps, cal = Calib.around n (fun _ -> Matrix_bench.sweep built ~seed:opts.seed ~gc:false) in
  let e2e, unscaled = matrix_e2e sweeps ~cal ~setups in
  let _, sl = built in
  let tasks_per_sweep = Array.length sl.stop_ns in
  let all_causes =
    Array.concat (List.map (fun (sw : Matrix_bench.sweep) -> sw.task_causes) sweeps)
  in
  let digests =
    List.sort_uniq compare (List.map (fun (sw : Matrix_bench.sweep) -> sw.digest) sweeps)
  in
  let pin_problems, pin_line =
    pinned_check opts w.name [ ("sweep", (List.hd sweeps).digest) ]
  in
  let repeat_problems =
    match digests with
    | [ d ] when d <> "" -> []
    | _ -> [ Printf.sprintf "sweeps gave %d distinct report digests" (List.length digests) ]
  in
  let base =
    {
      Report.e2e;
      layers = [];
      lines =
        [
          Printf.sprintf "%d sweeps of %d tasks at --jobs %d" n tasks_per_sweep
            Matrix_bench.jobs;
          unscaled;
          pin_line;
        ];
      attempted = Array.length all_causes;
      failed = Report.failed_tasks all_causes;
      causes = Report.count_causes all_causes;
      problems = pin_problems @ repeat_problems;
    }
  in
  if not opts.trace then base
  else begin
    let traced, traced_cal =
      Calib.around n (fun _ -> Matrix_bench.sweep built ~seed:opts.seed ~gc:true)
    in
    let wall l = List.fold_left (fun acc (sw : Matrix_bench.sweep) -> acc + sw.wall_ns) 0 l in
    (* both passes at the reference speed *)
    let scaled l cal =
      List.fold_left2
        (fun acc (sw : Matrix_bench.sweep) f -> acc +. (fi sw.wall_ns *. f))
        0. l
        (Array.to_list (Calib.factors cal))
    in
    let overhead = ratio (scaled traced traced_cal) (scaled sweeps cal) -. 1. in
    let same =
      List.for_all (fun (sw : Matrix_bench.sweep) -> [ sw.digest ] = digests) traced
    in
    let table, closes = matrix_attribution traced sl in
    ensure_dir spans_dir;
    let dump =
      Filename.concat spans_dir
        (Printf.sprintf "spans-%s-seed%d.tsv" w.name opts.seed)
    in
    dump_matrix_spans dump traced sl;
    {
      base with
      layers = matrix_layers traced sl.experiment ~overhead;
      lines =
        base.lines
        @ [
            Printf.sprintf "traced sweeps: report digests %s the untraced sweeps'"
              (if same then "equal" else "DIFFER FROM");
            Printf.sprintf "attribution over %d traced sweeps:" n;
          ]
        @ table
        @ [
            Printf.sprintf
              "tracing overhead: traced %.3f s vs untraced %.3f s of sweeps, unscaled \
               (%+.1f%% at the reference speed)"
              (Clock.seconds_of_ns (wall traced))
              (Clock.seconds_of_ns (wall sweeps))
              (100. *. overhead);
            Printf.sprintf "task spans written to %s" dump;
          ];
      problems =
        base.problems
        @ (if same then [] else [ "traced sweeps' report digests differ" ])
        @ if closes then [] else [ "traced attribution does not close" ];
    }
  end

(* --- the two known defects ---------------------------------------------- *)

(* Sessions outside the workloads that reproduce the two defects the
   failure count must surface, counted by the same checks. *)
let defects ~seed =
  let lams cfg = Scenario.Lams (Scenario.default_lams_params cfg) in
  let guarded cfg =
    Scenario.Lams
      {
        (Scenario.default_lams_params cfg) with
        Lams_dlc.Params.guard = Some Dlc.Guard.default_config;
      }
  in
  let derive label i = Sim.Rng.derive_seed ~root:seed [ "defects"; label; string_of_int i ] in
  let sessions label n make =
    let outcomes =
      Array.init n (fun i ->
          let cfg, proto = make (derive label i) in
          let r = Scenario.run cfg proto in
          let m = r.Scenario.metrics in
          ( Sessions.causes r ~violations:0,
            (r.Scenario.sender_backlog, m.Dlc.Metrics.enforced_recoveries,
             m.Dlc.Metrics.failures_detected) ))
    in
    let causes = Array.map fst outcomes in
    Printf.printf "%s: %d of %d sessions failed; by cause: %s\n" label
      (Report.failed_tasks causes) n
      (String.concat " "
         (List.map (fun (c, k) -> Printf.sprintf "%s=%d" c k) (Report.count_causes causes)));
    if n = 1 then begin
      let backlog, enforced, declared = snd outcomes.(0) in
      Printf.printf
        "  sender backlog %d, enforced_recoveries %d, failures_detected %d\n" backlog
        enforced declared
    end
  in
  sessions "(a) halted-sender livelock: Scenario.default, 80000 frames, seed 41" 1
    (fun _ ->
      let cfg = { Scenario.default with seed = 41; n_frames = 80_000 } in
      (cfg, lams cfg));
  sessions "(a) halted-sender livelock: 5000 frames at ber = cframe_ber = 1e-4" 40
    (fun seed ->
      let cfg =
        { Scenario.default with seed; n_frames = 5_000; ber = 1e-4; cframe_ber = 1e-4 }
      in
      (cfg, lams cfg));
  sessions "(b) Dlc.Guard.default_config, lie-free GE bursts (the storm channel), 5000 frames"
    10 (fun seed ->
      let cfg =
        { Scenario.default with seed; n_frames = 5_000; burst = Some Workloads.storm }
      in
      (cfg, guarded cfg));
  sessions "(b) Dlc.Guard.default_config, lie-free uniform BER 1e-5, 20000 frames" 10
    (fun seed ->
      let cfg = { Scenario.default with seed; n_frames = 20_000 } in
      (cfg, guarded cfg))
