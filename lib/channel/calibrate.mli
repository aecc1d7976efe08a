(** Fit Gilbert–Elliott parameters to a recorded channel trace.

    Every replayed trace gets a best-fit synthetic twin: burst/gap
    sojourn statistics are recovered by moment matching on the trace's
    run-length distributions, and the residuals report how far the
    fitted two-state chain is from the recorded behaviour — the gap
    Kuhn et al. (PAPERS.md) measure between trace-driven and
    model-driven ARQ analysis.

    Method. Frame fates are reduced to a binary errored/clean sequence.
    Maximal error regions whose internal clean runs are at most
    [burst_close_gap] frames (default 2) are merged into {e bursts};
    the clean runs separating bursts are {e gaps}. Matching first
    moments of the two run-length distributions against the geometric
    sojourns of a bit-clocked Gilbert–Elliott chain gives
    [mean_burst_bits] and [mean_gap_bits] (frame counts scaled by
    [frame_bits]); the in-burst frame-error density fixes [ber_bad] via
    the uniform-FER inverse. [ber_good] is reported as 0: a frame-fate
    trace cannot distinguish a tiny good-state BER from none at all —
    if the source channel had one, it shows up in the residuals, not
    the parameters. *)

type fit = {
  ber_good : float;  (** always 0 — see the module preamble *)
  ber_bad : float;
  mean_burst_bits : float;
  mean_gap_bits : float;
  frame_bits : int;  (** frame size assumed when scaling frames to bits *)
  n_frames : int;
  n_bursts : int;
  observed_error_rate : float;  (** trace fraction of errored frames *)
  model_error_rate : float;
      (** stationary P[frame errored] under the fitted chain *)
  observed_p_err_given_err : float;
      (** P[frame i+1 errored | frame i errored] measured on the trace *)
  model_p_err_given_err : float;
      (** same conditional under the fitted chain (sojourn-survival
          approximation) *)
}

val fit :
  ?burst_close_gap:int -> frame_bits:int -> Trace_model.data -> (fit, string) result
(** [fit ~frame_bits data] recovers Gilbert–Elliott parameters from a
    trace of frames [frame_bits] bits long. Degenerate traces — empty,
    all-clean, all-bad, or too few bursts to estimate a gap
    distribution — return [Error diagnostic] rather than NaN-laden
    parameters. Raises [Invalid_argument] only on nonsensical
    arguments ([frame_bits <= 0], [burst_close_gap < 0]). *)

val residual : fit -> float
(** Scalar fit quality: the larger of the relative errors on the two
    matched statistics (error rate and error-given-error). 0 is a
    perfect match. *)

val describe : fit -> string
(** Multi-line human-readable report: parameters and residuals. *)
