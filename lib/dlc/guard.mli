(** Feedback-plausibility guard: Byzantine-checkpoint hardening.

    The paper's sender trusts its reverse channel completely: a
    checkpoint that passes the CRC is fed straight into the release
    scan. Under the stronger threat model of lying feedback
    ({!Channel.Fault} [forge-ack] / [rewrite-cp-seq] /
    [inject-stale-cp]), a single valid-looking forgery can release a
    buffer slot the receiver never filled — silent data loss.

    The guard interposes between link delivery and the sender's
    feedback handler and admits only {e plausible} acknowledgement
    state, judged against ground truth the sender alone owns (its send
    frontier, its unreleased buffer):

    - [cp-seq-stale] / [cp-seq-jump]: checkpoint numbers must advance,
      and by at most [max_cp_jump];
    - [ne-overrun]: the receiver cannot expect a frame the sender has
      not yet numbered;
    - [ne-regression]: the delivery frontier never moves backwards;
    - [nak-out-of-range]: a NAK names a frame below the frontier that
      the sender actually sent;
    - [nak-after-release]: a NAK for a sequence number that is neither
      outstanding nor ever requeued (by a NAK the guard forwarded, or by
      the sender's own coverage scan, seen as {!Probe.Requeued}) — proof
      that an earlier checkpoint lied its way past a release;
    - [nr-out-of-window] (HDLC): N(R) stays cyclically inside
      [v_a .. v_s];
    - [forged-ack-contradiction]: with {!field:config.confirm_hold} on,
      each regular checkpoint is held until its successor confirms it;
      a successor that still NAKs a frame the held checkpoint covered
      (while the sender still holds that frame) convicts the held one.

    Implausible frames are {e quarantined} — discarded before the
    sender's state machine sees them — and published as
    {!Dlc.Probe.Cp_quarantined}. A distrust counter escalates:
    [distrust_threshold] quarantines force an explicit
    resynchronisation ({!Dlc.Probe.Resync_forced} + the variant's
    [force_resync] hook — Enforced-NAK recovery for LAMS-DLC, a forced
    status-refresh round for NBDT, a supervisory poll for HDLC); after
    [resync_retries] forced resyncs without regaining trust the guard
    declares failure. Solicited truth — an Enforced checkpoint, an
    HDLC Final response — bypasses the hold, restores trust and resets
    the retry budget.

    Fed only honest feedback, the guard is transparent: no check can
    fire (the receiver's reports are always consistent with the
    sender's ground truth), and the hold only ever delays a regular
    checkpoint by one report interval. *)

type config = {
  distrust_threshold : int;
      (** quarantines (since trust was last restored) that trigger a
          forced resynchronisation; >= 1 *)
  resync_retries : int;
      (** forced resyncs allowed before declaring failure; >= 0 *)
  max_cp_jump : int;
      (** largest plausible [cp_seq] advance between consecutive
          accepted checkpoints; >= 1 *)
  confirm_hold : bool;
      (** hold each regular checkpoint until its successor confirms it
          (adds one report interval of release latency; catches forged
          implicit ACKs that are consistent on their own) *)
}

val default_config : config

val validate_opt : config option -> (unit, string) result
(** Check the [guard] field of a variant's params: [Ok] for [None] or a
    valid config, else ["guard: "] and the reason it is invalid. *)

(** Ground truth the guard checks feedback against, per variant
    family. All functions are consulted at frame-arrival time. *)
type feedback_hooks =
  | Checkpointed of {
      next_seq : unit -> int;  (** next unused wire number (exclusive frontier) *)
      is_outstanding : int -> bool;  (** sequence number still buffered, unreleased *)
    }  (** LAMS-DLC and NBDT: {!Frame.Cframe.Checkpoint} feedback *)
  | Supervisory of {
      modulus : int;
      v_s : unit -> int;  (** send state variable *)
      v_a : unit -> int;  (** acknowledgement state variable *)
      is_outstanding : int -> bool;
    }  (** HDLC: {!Frame.Hframe} supervisory feedback *)

type hooks = {
  now : unit -> float;  (** simulation clock, for event timestamps *)
  feedback : feedback_hooks;
  force_resync : unit -> unit;
      (** order the sender into explicit resynchronisation *)
  declare_failure : unit -> unit;
}

type t

val create :
  config ->
  probe:Probe.t ->
  hooks:hooks ->
  deliver:(Channel.Link.rx -> unit) ->
  t
(** [deliver] is the sender's original receive handler; the guard calls
    it for every admitted frame (and, untouched, for every non-feedback
    or CRC-failed arrival). Raises [Invalid_argument] on an invalid
    config. *)

val on_rx : t -> Channel.Link.rx -> unit
(** Install this as the reverse link's receiver in place of the
    sender's handler. *)
