(** Common scenario builder for every experiment.

    One [config] describes the physical link, channel and workload; [run]
    executes it under either protocol and returns uniform results, so a
    sweep is a list of configs. Defaults follow the paper's environment
    (§2.1): 300 Mbit/s laser link, 4,000 km, BER 1e-5, 1 kB I-frames. *)

type protocol = Lams of Lams_dlc.Params.t | Hdlc of Hdlc.Params.t

type burst = {
  ber_good : float;
  ber_bad : float;
  mean_burst_bits : float;
  mean_gap_bits : float;
}

type config = {
  seed : int;
  distance_m : float;
  data_rate_bps : float;
  payload_bytes : int;
  ber : float;  (** I-frame channel BER (uniform model) *)
  cframe_ber : float;  (** control-frame channel BER (stronger FEC) *)
  burst : burst option;  (** overrides [ber] with Gilbert–Elliott *)
  n_frames : int;
  traffic : [ `Saturating | `Rate of float ];
  horizon : float;  (** hard stop for the run, simulated seconds *)
  blackout : (float * float) option;
      (** [(start, length)]: take both link directions down at [start]
          for [length] simulated seconds (the E9 failure drill) *)
  channel_trace : Channel.Trace_model.data option;
      (** replay this recorded trace on the I-frame channel instead of
          the synthetic [ber]/[burst] models; the replicate seed selects
          the replay offset, so replicates see distinct windows while
          each run stays deterministic. Control frames keep
          [cframe_ber]. *)
}

val default : config
(** seed 1, 4,000 km, 300 Mbit/s, 1024 B payloads, BER 1e-5 for both
    frame classes, 2,000 saturating frames, 60 s horizon, no blackout,
    no channel trace. *)

val set_default_channel_trace : Channel.Trace_model.data option -> unit
(** Process-wide fallback for [channel_trace] (the [--channel-trace] CLI
    flag): a config with [channel_trace = None] inherits it. Resolved
    into the config before fingerprinting and model construction. Set it
    before launching runs; worker domains only read. *)

val resolve_trace : config -> config
(** The config with that fallback filled in when its [channel_trace] is
    [None]. {!run}, {!run_checked} and {!matrix_point} apply it;
    {!run_session} takes its config as given. *)

type result = {
  metrics : Dlc.Metrics.t;
  elapsed : float;  (** first offer to last delivery *)
  sim_time : float;  (** when the run actually stopped *)
  completed : bool;  (** every offered frame delivered *)
  sender_backlog : int;  (** left in the sending buffer at the end *)
  span_peak : int;  (** LAMS numbering span; 0 for HDLC *)
  efficiency : float;  (** unique deliveries * t_f / elapsed *)
}

val run : config -> protocol -> result
(** When {!Trace.Config.set} is active, the run captures itself to
    content-addressed [.jsonl] / [.metrics.json] (and [.flight.jsonl] on
    violation) files in the configured directory; the file name digests
    the full configuration, so per-replicate traces are byte-stable
    whatever the worker count. To record into a recorder of your own,
    pass it to {!run_checked} or {!run_session}. *)

val run_checked :
  ?faults:Channel.Fault.spec ->
  ?reverse_faults:Channel.Fault.spec ->
  ?recorder:Trace.Recorder.t ->
  config ->
  protocol ->
  result * Oracle.violation list
(** [run] with the protocol-matched {!Oracle} invariant checker
    subscribed to the session's probe and reverse link for the whole
    run, and optional {!Channel.Fault} scripts compiled onto the
    forward / reverse links. Violations are returned (finalized), not
    raised, so replicated sweeps can count them as a metric. A
    [recorder] is attached to the probe {e before} the oracle and to the
    oracle itself, so its flight dump freezes at the first violation
    with the offending events still in the ring. *)

type session =
  [ `Lams of Lams_dlc.Params.t | `Hdlc of Hdlc.Params.t | `Nbdt of Nbdt.Params.t ]
(** The DLC variant {!run_session} creates; a {!protocol} maps onto its
    first two cases. *)

val run_session :
  ?faults:Channel.Fault.spec ->
  ?reverse_faults:Channel.Fault.spec ->
  ?recorder:Trace.Recorder.t ->
  ?oracle:bool ->
  ?corrupt:Dlc.Corrupt.t * int ->
  ?duplex:(Sim.Engine.t -> Channel.Duplex.t) ->
  ?setup:(Sim.Engine.t -> Channel.Duplex.t -> Dlc.Probe.t -> unit) ->
  config ->
  session ->
  result * Oracle.t option
(** The one single-link runner. {!run}, {!run_checked},
    {!matrix_point}, E8, E9, E16, E17's NBDT rows, E19, E22's and E24's
    runs and the CLI's [sim] and [channel record] all call it. In order,
    it makes the duplex: [duplex engine] when given (E8's shared
    burst chain, E16's orbital geometry), else the seeded static duplex
    of [cfg]; creates the session; attaches [recorder] to its probe,
    then the protocol-matched {!Oracle} (with [~oracle:true]), then
    [recorder] to that oracle; compiles [faults] / [reverse_faults] onto
    the forward / reverse link; installs the [corrupt] schedule with
    convergence budget [k] on the oracle; calls [setup engine duplex
    probe], where a caller adds its own observers, scripts and events
    (E9's halt watch, E19's delay histogram, E24's reverse lie script
    and its lie ledger, [channel record]'s fate tap); schedules
    [cfg.blackout] and the traffic; then polls for completion every
    1 ms until [cfg.horizon] or until no other event is pending, stops
    the session, drains the queue up to [cfg.horizon + 10] and finalizes
    the oracle. [cfg.channel_trace] is used as given: the process-wide
    default applies only through {!run}, {!run_checked} and
    {!matrix_point}. *)

val matrix_metrics : result -> (string * float) list
(** Uniform per-replicate metric vector (efficiency, deliveries, loss,
    holding/delay means, ...) for {!Runner} points; booleans are 0/1. *)

type checked = {
  metrics : (string * float) list;
      (** the list the run's matrix cell records; booleans are 0/1 *)
  violations : Oracle.violation list;  (** the oracle's first 200 *)
}
(** One oracle-watched harness run: E21's transfer, E22's and E24's
    runs. Matrix points, soaks, {!Golden} and the CLI's [X run] all read
    its [metrics], so a single run prints what its cell records. *)

val metric : (string * float) list -> string -> float
(** [metric metrics name]: the value of [name]. Raises [Failure] naming
    it when the list lacks it, as {!Report.cell} does. *)

val matrix_point : label:string -> config -> protocol -> Runner.point
(** A matrix point that runs this scenario with the replicate's derived
    seed substituted for [cfg.seed]. *)

val iframe_error : config -> Channel.Error_model.t
(** A fresh I-frame error model of [cfg]: its channel trace, else its
    [burst] chain, else uniform [ber]; the one {!run_session} builds. *)

val iframe_bits : config -> int

val cframe_bits : protocol_kind:[ `Lams | `Hdlc ] -> int
(** Wire size of the protocol's characteristic control frame (an
    empty-NAK checkpoint, or an HDLC supervisory frame). *)

val t_f : config -> float
(** I-frame serialisation time. *)

val rtt : config -> float

val analytic_link : config -> protocol_kind:[ `Lams | `Hdlc ] -> Analysis.Common.link
(** Abstract link for the §4 closed forms, with [p_f]/[p_c] derived from
    the configured BERs and frame sizes ([burst] uses its stationary
    average). *)

val default_hdlc_params : config -> Hdlc.Params.t
(** SR-HDLC with the paper's timeout [t_out = R + alpha], [alpha = R/2]. *)

val default_hdlc_alpha : config -> float

val default_lams_params : config -> Lams_dlc.Params.t
(** [w_cp] set to a few frame times above the default. *)
