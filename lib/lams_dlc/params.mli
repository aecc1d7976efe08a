(** LAMS-DLC protocol parameters (paper §3).

    The two knobs the paper discusses at length are the checkpoint
    interval [w_cp] (written {i W_cp} or {i I_cp}) and the cumulation
    depth [c_depth]: erroneous frames are re-advertised in [c_depth]
    consecutive checkpoints, so recovery survives up to [c_depth - 1]
    consecutive checkpoint losses, and burst tolerance requires
    [c_depth * w_cp > mean burst length] (§3.3). *)

type t = {
  w_cp : float;  (** checkpoint interval, seconds. Must be > 0. *)
  c_depth : int;  (** cumulation depth, >= 1 *)
  t_proc : float;  (** frame/command processing time, seconds, >= 0 *)
  send_buffer_capacity : int;
      (** max unreleased frames held by the sender; further offers are
          refused. The paper's transparent buffer size B_LAMS predicts
          the occupancy this needs to stay below. *)
  recv_high_watermark : int;
      (** receiver queue length at which Stop-Go is set to Stop *)
  recv_low_watermark : int;  (** queue length at which it returns to Go *)
  recv_drain_rate : float option;
      (** receiving-side upper-layer drain rate, frames/second; [None]
          models the paper's transparent receiving buffer (frames leave
          after [t_proc]). [Some r] needs a finite [r > 0] and
          exercises flow control. *)
  rate_decrease_factor : float;
      (** multiplier applied to the sending rate on each Stop detection
          (paper §3.4 "decreases the sending rate by some predefined
          value"); in (0, 1). *)
  rate_increase_step : float;
      (** additive recovery of the rate factor per Go checkpoint *)
  min_rate_factor : float;  (** floor for the rate factor, > 0 *)
  request_nak_retries : int;
      (** how many times the sender re-issues Request-NAK (on failure
          timeout or when a checkpoint shows the link is back) before
          declaring failure. The paper's protocol is single-shot (0);
          the default allows 3 so that an outage longer than the failure
          window but shorter than the link lifetime still recovers.
          Re-issues are paced by {!request_nak_backoff} — attempt [k]
          waits [2^k] checkpoint timeouts, not a fixed cadence — so the
          whole budget spans [failure_declaration_bound] rather than
          burning out at the start of a long inter-contact gap. *)
  link_lifetime_end : float option;
      (** absolute simulated time after which a recovery is considered
          unreachable (paper: "provided that the expected response time
          is within the remaining link lifetime") *)
  coverage_margin : float;
      (** slack added to a frame's predicted arrival before a checkpoint
          is considered to cover it; absorbs processing jitter. *)
  guard : Dlc.Guard.config option;
      (** when set, a {!Dlc.Guard} feedback-plausibility layer is
          interposed between the reverse link and the sender, hardening
          it against lying checkpoints; [None] (the default) trusts the
          reverse channel as the paper does. *)
}

val default : t
(** [w_cp] = 5 ms, [c_depth] = 3, [t_proc] = 10 us, generous buffers,
    halve-on-stop / +0.1-on-go rate control, 3 Request-NAK retries. *)

val validate : t -> (t, string) result
(** Check all constraints; returns the value unchanged when valid. *)

val checkpoint_timeout : t -> float
(** [c_depth * w_cp] — the sender-side silence threshold (§3.2). *)

val request_nak_backoff : t -> attempt:int -> float
(** Extra wait granted to Request-NAK attempt [attempt] (0-based) before
    the failure timer fires: [2^attempt * checkpoint_timeout], with the
    exponent clamped at 60. Raises [Invalid_argument] on a negative
    attempt. *)

val failure_declaration_bound : t -> response:float -> float
(** Upper bound on the time from the first enforced-recovery initiation
    to failure declaration when no answer ever arrives:
    the sum over attempts [0 .. request_nak_retries] of
    [response + request_nak_backoff ~attempt]. [response] is the
    sender's expected Request-NAK round trip. The QCheck backoff
    property in [test/test_lams_dlc.ml] pins the schedule to this. *)

val resolving_period : t -> rtt:float -> float
(** Paper §3.3: [R + w_cp/2 + c_depth * w_cp]; bounds the holding time of
    any frame and hence the numbering size. *)

val holding_bound : t -> rtt:float -> data_rate_bps:float -> float
(** The holding bound the LAMS oracle checks: {!resolving_period} plus
    slack for checkpoint phase ([w_cp]), serialisation (64 KiB at
    [data_rate_bps]) and processing (1 ms). *)
