(* The three session workloads: lams-bulk, lams-storm-checked, hdlc-bulk.

   A run is a fixed list of sessions, each with its own derived seed,
   taken a fixed number of sessions to a sweep. The untraced pass runs
   each through [Scenario.run] (or [run_checked] with a recorder, for the
   checked workload) exactly as a user would, with the clock and
   [Gc.minor_words] read right around the call. The traced pass rebuilds
   the first sweep's sessions from public calls, mirroring
   [Scenario.run_watched] step by step, with every layer boundary of
   README.md wrapped in a span. *)

module Scenario = Experiments.Scenario

type task = { cfg : Scenario.config; proto : Scenario.protocol }

(* --- output checks ------------------------------------------------------- *)

(* MD5 of [Scenario.matrix_metrics], every float in exact hex form. *)
let digest (r : Scenario.result) =
  Scenario.matrix_metrics r
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v)
  |> String.concat ";" |> Digest.string |> Digest.to_hex

let causes (r : Scenario.result) ~violations =
  let m = r.Scenario.metrics in
  List.filter_map
    (fun (cause, failed) -> if failed then Some cause else None)
    [
      ("incomplete", not r.Scenario.completed);
      ("loss", Dlc.Metrics.loss m > 0);
      ("duplicates", m.Dlc.Metrics.duplicates > 0);
      ("oracle", violations > 0);
      ("failure-declared", m.Dlc.Metrics.failures_detected > 0);
    ]

(* Causes that mean a wrong output rather than a failed operation. *)
let unsafe = [ "duplicates"; "oracle" ]

(* --- untraced ------------------------------------------------------------ *)

let run_untraced (s : Workloads.session) ~name { cfg; proto } =
  if s.checked then
    let recorder = Trace.Recorder.create ~name () in
    let r, violations = Scenario.run_checked ~recorder cfg proto in
    (r, List.length violations)
  else (Scenario.run cfg proto, 0)

type measured = {
  value : (Scenario.result * int, exn) result;
  start_ns : int;
  stop_ns : int;
  words : float;
}

(* The clock and the minor-word counter bracket [f ()] and nothing else. *)
let measure f =
  let start_ns = Clock.now_ns () in
  let w0 = Gc.minor_words () in
  match f () with
  | v ->
      let w1 = Gc.minor_words () in
      let stop_ns = Clock.now_ns () in
      { value = Ok v; start_ns; stop_ns; words = w1 -. w0 }
  | exception e ->
      let w1 = Gc.minor_words () in
      let stop_ns = Clock.now_ns () in
      { value = Error e; start_ns; stop_ns; words = w1 -. w0 }

(* A pass runs the task list in order, [per_sweep] tasks to a sweep, with
   a host calibration before each sweep and after the last. *)
type pass = {
  sweep_ns : float array;  (** each sweep's first task start to its last task end *)
  calib_ns : float array;  (** [Calib.measure] before sweep [k], and after the last *)
  task_ns : float array;
  words : float;  (** minor words over every task *)
  frames : int array;  (** unique deliveries per task *)
  digests : string array;
  task_causes : string list array;
  promoted_words : float;  (** [Gc.quick_stat] deltas, when asked for *)
  major_collections : int;
}

let outcome i = function
  | Ok ((r : Scenario.result), violations) ->
      (Dlc.Metrics.unique_delivered r.Scenario.metrics, digest r, causes r ~violations)
  | Error e ->
      Printf.printf "task %d raised %s\n" i (Printexc.to_string e);
      (0, "exception", [ "exception" ])

let run_sweeps ~per_sweep ~gc tasks run =
  let n = Array.length tasks in
  let sweeps = n / per_sweep in
  let sweep_ns = Array.make sweeps 0. and task_ns = Array.make n 0. in
  let frames = Array.make n 0 and digests = Array.make n "" in
  let task_causes = Array.make n [] in
  let calib_ns = Array.make (sweeps + 1) 0. in
  let words = ref 0. and promoted = ref 0. and majors = ref 0 and first = ref 0 in
  for i = 0 to n - 1 do
    if i mod per_sweep = 0 then calib_ns.(i / per_sweep) <- Calib.measure ();
    let q0 = if gc then Some (Gc.quick_stat ()) else None in
    let m = measure (fun () -> run i tasks.(i)) in
    (match q0 with
    | Some q0 ->
        let q1 = Gc.quick_stat () in
        promoted := !promoted +. (q1.Gc.promoted_words -. q0.Gc.promoted_words);
        majors := !majors + (q1.Gc.major_collections - q0.Gc.major_collections)
    | None -> ());
    if i mod per_sweep = 0 then first := m.start_ns;
    if i mod per_sweep = per_sweep - 1 then
      sweep_ns.(i / per_sweep) <- float_of_int (m.stop_ns - !first);
    task_ns.(i) <- float_of_int (m.stop_ns - m.start_ns);
    words := !words +. m.words;
    let f, d, c = outcome i m.value in
    frames.(i) <- f;
    digests.(i) <- d;
    task_causes.(i) <- c
  done;
  calib_ns.(sweeps) <- Calib.measure ();
  {
    sweep_ns;
    calib_ns;
    task_ns;
    words = !words;
    frames;
    digests;
    task_causes;
    promoted_words = !promoted;
    major_collections = !majors;
  }

let untraced_pass s ~name ~gc ~per_sweep tasks =
  run_sweeps ~per_sweep ~gc tasks (fun _ task -> run_untraced s ~name task)

(* --- traced -------------------------------------------------------------- *)

(* A copy of [m] whose closures run inside channel spans. The wrappers
   forward every argument, the generator included, so the wrapped model
   draws exactly the stream the bare one does; [m_copy] returns a
   wrapped copy, so both directions of a duplex stay traced. Each span is
   opened and closed inline, so a call allocates nothing of its own. *)
let wrap_model sp (m : Channel.Model.t) =
  let rec wrap (m : Channel.Model.t) : Channel.Model.t =
    {
      m with
      m_fate =
        (fun rng ~header_bits ~payload_bits ->
          Spans.enter sp Spans.channel_fate;
          match m.m_fate rng ~header_bits ~payload_bits with
          | fate ->
              Spans.leave sp;
              fate
          | exception e ->
              Spans.leave sp;
              raise e);
      m_fates_into =
        (fun rng ~header_bits ~payload_bits dst ~n ->
          Spans.enter sp Spans.channel_other;
          match m.m_fates_into rng ~header_bits ~payload_bits dst ~n with
          | () -> Spans.leave sp
          | exception e ->
              Spans.leave sp;
              raise e);
      m_advance =
        (fun rng ~bits ->
          Spans.enter sp Spans.channel_advance;
          match m.m_advance rng ~bits with
          | () -> Spans.leave sp
          | exception e ->
              Spans.leave sp;
              raise e);
      m_error_positions_into =
        (fun rng ~bits dst ->
          Spans.enter sp Spans.channel_other;
          match m.m_error_positions_into rng ~bits dst with
          | () -> Spans.leave sp
          | exception e ->
              Spans.leave sp;
              raise e);
      m_copy = (fun () -> wrap (m.m_copy ()));
    }
  in
  wrap m

(* Counts the traced pass reads at its boundaries, over all tasks. *)
type counters = {
  mutable events : int;
  mutable pending_peak : int;
  mutable queue_peak : int;
  mutable probe_events : int;
  payload_words : float array;  (** one cell: words allocated by payloads *)
  mutable forward_sent : int;
  mutable forward_damaged : int;
  mutable retransmissions : int;
  mutable naks_sent : int;
  mutable control_sent : int;
}

let counters () =
  {
    events = 0;
    pending_peak = 0;
    queue_peak = 0;
    probe_events = 0;
    payload_words = [| 0. |];
    forward_sent = 0;
    forward_damaged = 0;
    retransmissions = 0;
    naks_sent = 0;
    control_sent = 0;
  }

(* [Sim.Engine.run ~until], one event per span. A step that finds the
   next event beyond [until] runs nothing and moves the clock to
   [until]; it is not counted as an event. Events due exactly at [until]
   fire in the closing [run], as they would in one [run ~until]. *)
let drive sp c engine ~until ~forward =
  while Sim.Engine.pending engine > 0 && Sim.Engine.now engine < until do
    let before = Sim.Engine.pending engine in
    Spans.enter sp Spans.sim_event;
    (match Sim.Engine.run engine ~until ~max_events:1 with
    | () -> Spans.leave sp
    | exception e ->
        Spans.leave sp;
        raise e);
    let pending = Sim.Engine.pending engine in
    if not (pending = before && Sim.Engine.now engine = until) then
      c.events <- c.events + 1;
    if pending > c.pending_peak then c.pending_peak <- pending;
    let q = Channel.Link.queue_length forward in
    if q > c.queue_peak then c.queue_peak <- q
  done;
  Sim.Engine.run engine ~until

let iframe_model (cfg : Scenario.config) =
  match cfg.burst with
  | None -> Channel.Error_model.uniform ~ber:cfg.ber ()
  | Some b ->
      Channel.Error_model.gilbert_elliott ~ber_good:b.ber_good ~ber_bad:b.ber_bad
        ~mean_burst_bits:b.mean_burst_bits ~mean_gap_bits:b.mean_gap_bits ()

(* The oracle [Scenario.run_checked] attaches, built the same way. *)
let oracle_for (cfg : Scenario.config) = function
  | Scenario.Lams params ->
      Oracle.create ~name:"scenario-lams-oracle"
        (Oracle.Lams
           {
             c_depth = params.Lams_dlc.Params.c_depth;
             holding_bound =
               Lams_dlc.Params.resolving_period params ~rtt:(Scenario.rtt cfg)
               +. params.Lams_dlc.Params.w_cp
               +. (65536. /. cfg.data_rate_bps)
               +. 1e-3;
           })
  | Scenario.Hdlc params ->
      Oracle.create ~name:"scenario-hdlc-oracle"
        (Oracle.Hdlc
           { window = params.Hdlc.Params.window; seq_bits = params.Hdlc.Params.seq_bits })

let relay sp kind probe ~now ev =
  Spans.enter sp kind;
  match Dlc.Probe.emit probe ~now ev with
  | () -> Spans.leave sp
  | exception e ->
      Spans.leave sp;
      raise e

(* One session, composed as [Scenario.run_watched] composes it. *)
let run_traced sp c (s : Workloads.session) ~name { cfg; proto } =
  (match (cfg.Scenario.traffic, cfg.channel_trace, cfg.blackout) with
  | `Saturating, None, None -> ()
  | _ -> invalid_arg "Sessions.run_traced: saturating synthetic channels only");
  (* 1. engine and RNG *)
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:cfg.seed in
  (* 2. channel models, their closures timed *)
  let iframe_error = wrap_model sp (iframe_model cfg) in
  let cframe_error = wrap_model sp (Channel.Error_model.uniform ~ber:cfg.cframe_ber ()) in
  (* 3. the duplex, which copies each model per direction *)
  let duplex =
    Channel.Duplex.create_static engine ~rng ~distance_m:cfg.distance_m
      ~data_rate_bps:cfg.data_rate_bps ~iframe_error ~cframe_error
  in
  let forward = duplex.Channel.Duplex.forward in
  let reverse = duplex.Channel.Duplex.reverse in
  (* 4. the session, its link receivers re-installed as timed calls to
     the same public handlers *)
  let session, probe, span_peak =
    match proto with
    | Scenario.Lams params ->
        let t = Lams_dlc.Session.create engine ~params ~duplex in
        let sender = Lams_dlc.Session.sender t in
        Channel.Link.set_receiver forward
          (Spans.wrap sp Spans.lams_rx
             (Lams_dlc.Receiver.on_rx (Lams_dlc.Session.receiver t)));
        Channel.Link.set_receiver reverse
          (Spans.wrap sp Spans.lams_feedback
             (match Lams_dlc.Session.guard t with
             | Some g -> Dlc.Guard.on_rx g
             | None -> Lams_dlc.Sender.on_rx sender));
        ( Lams_dlc.Session.as_dlc t,
          Lams_dlc.Session.probe t,
          fun () -> Lams_dlc.Sender.outstanding_span_peak sender )
    | Scenario.Hdlc params ->
        let t = Hdlc.Session.create engine ~params ~duplex in
        Channel.Link.set_receiver forward
          (Spans.wrap sp Spans.hdlc_rx (Hdlc.Receiver.on_rx (Hdlc.Session.receiver t)));
        Channel.Link.set_receiver reverse
          (Spans.wrap sp Spans.hdlc_feedback
             (match Hdlc.Session.guard t with
             | Some g -> Dlc.Guard.on_rx g
             | None -> Hdlc.Sender.on_rx (Hdlc.Session.sender t)));
        (Hdlc.Session.as_dlc t, Hdlc.Session.probe t, fun () -> 0)
  in
  (* observers: one subscriber relays each probe event to a probe holding
     the recorder, then to one holding the oracle (run_checked's order) *)
  let oracle =
    if not s.checked then None
    else begin
      let recorder = Trace.Recorder.create ~name () in
      let oracle = oracle_for cfg proto in
      let to_recorder = Dlc.Probe.create () and to_oracle = Dlc.Probe.create () in
      Trace.Recorder.attach_probe recorder to_recorder;
      Oracle.observe oracle to_oracle;
      Oracle.observe_reverse oracle reverse;
      Trace.Recorder.attach_oracle recorder oracle;
      Dlc.Probe.subscribe probe (fun ~now ev ->
          c.probe_events <- c.probe_events + 1;
          relay sp Spans.trace_record to_recorder ~now ev;
          relay sp Spans.oracle_check to_oracle ~now ev);
      Some oracle
    end
  in
  (* 5. arrivals: a timed payload generator and a timed offer *)
  let payload =
    let base = Workload.Arrivals.default_payload ~size:cfg.payload_bytes in
    let words = c.payload_words in
    fun i ->
      Spans.enter sp Spans.workload_payload;
      let w0 = Gc.minor_words () in
      let p = base i in
      let w1 = Gc.minor_words () in
      Spans.leave sp;
      Array.unsafe_set words 0 (Array.unsafe_get words 0 +. (w1 -. w0));
      p
  in
  let timed =
    {
      session with
      Dlc.Session.offer = Spans.wrap sp Spans.workload_offer session.Dlc.Session.offer;
    }
  in
  let arrivals =
    Workload.Arrivals.saturating engine ~session:timed ~count:cfg.n_frames ~payload
  in
  (* 6. the 1 ms completion watcher *)
  let metrics = session.Dlc.Session.metrics in
  let finished () =
    Workload.Arrivals.finished arrivals
    && Dlc.Metrics.unique_delivered metrics >= cfg.n_frames
  in
  let rec watch () =
    if finished () then session.Dlc.Session.stop ()
    else if Sim.Engine.now engine < cfg.horizon then
      ignore (Sim.Engine.schedule engine ~delay:1e-3 watch : Sim.Engine.event_id)
  in
  ignore (Sim.Engine.schedule engine ~delay:1e-3 watch : Sim.Engine.event_id);
  drive sp c engine ~until:cfg.horizon ~forward;
  (* 7. stop *)
  session.Dlc.Session.stop ();
  (* 8. the final drain *)
  drive sp c engine ~until:(cfg.horizon +. 10.) ~forward;
  let elapsed = Dlc.Metrics.elapsed metrics in
  let unique = Dlc.Metrics.unique_delivered metrics in
  let result =
    {
      Scenario.metrics;
      elapsed;
      sim_time = Sim.Engine.now engine;
      completed = unique >= cfg.n_frames;
      sender_backlog = session.Dlc.Session.sender_backlog ();
      span_peak = span_peak ();
      efficiency =
        (if elapsed > 0. then float_of_int unique *. Scenario.t_f cfg /. elapsed
         else 0.);
    }
  in
  let violations =
    match oracle with
    | None -> 0
    | Some o ->
        Oracle.finalize o;
        List.length (Oracle.violations o)
  in
  let stats = Channel.Link.stats forward in
  c.forward_sent <- c.forward_sent + stats.Channel.Link.frames_sent;
  c.forward_damaged <-
    c.forward_damaged + stats.Channel.Link.frames_corrupted + stats.Channel.Link.frames_lost;
  c.retransmissions <- c.retransmissions + metrics.Dlc.Metrics.retransmissions;
  c.naks_sent <- c.naks_sent + metrics.Dlc.Metrics.naks_sent;
  c.control_sent <- c.control_sent + metrics.Dlc.Metrics.control_sent;
  (result, violations)

(* The tasks as one sweep, each task's spans tagged with its index. *)
let traced_pass sp c s ~name tasks =
  run_sweeps ~per_sweep:(Array.length tasks) ~gc:false tasks (fun i task ->
      Spans.set_task sp i;
      run_traced sp c s ~name task)
