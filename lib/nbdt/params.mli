(** NBDT (NADIR Bulk Data Transfer) parameters.

    NBDT (paper §1, ref [7]) is the satellite-link HDLC variant the
    paper positions LAMS-DLC against: {e absolute} (32-bit) frame
    numbering removes the window/numbering coupling, and the receiver
    returns {e completely selective acknowledgements} — periodic reports
    carrying the in-order frontier plus the list of missing frames.
    Retransmissions keep their original numbers (no renumbering), frames
    are delivered out of order (bulk transfer semantics; the file offset
    is the number), and the sender's buffer is released by reports — the
    "huge memory" the paper criticises.

    Two modes, as in the paper:
    - {b Multiphase}: transmissions and retransmissions alternate — the
      sender emits a batch, drains the line, waits for a report covering
      it, retransmits the report's missing list, and only opens the next
      batch when the current one is fully acknowledged.
    - {b Continuous}: transmissions and retransmissions are mixed; the
      sender streams new frames and weaves in retransmissions as reports
      arrive. *)

type mode = Multiphase | Continuous

type t = {
  mode : mode;
  report_interval : float;  (** receiver report period, seconds *)
  batch_size : int;  (** multiphase batch, frames *)
  resend_timeout : float;
      (** oldest-frame watchdog: NBDT as described has no loss story for
          a silent tail; a timeout is the minimal fix (cf. the paper's
          complaint that NBDT "does not consider the reliability of
          protocol") *)
  t_proc : float;
  send_buffer_capacity : int;
  max_retries : int;  (** per-frame attempts before declaring failure *)
  max_report_misses : int;
      (** cap on missing entries per report (wire-size bound) *)
  retx_cooldown : float;
      (** ignore re-reports of a frame for this long after retransmitting
          it — a missing frame stays in every report until its
          retransmission has crossed the link, so without a cooldown each
          loss would be retransmitted once per report interval *)
  guard : Dlc.Guard.config option;
      (** when set, a {!Dlc.Guard} feedback-plausibility layer is
          interposed between the reverse link and the sender, hardening
          it against lying status reports; [None] (the default) trusts
          the reverse channel. *)
}

val default : t
(** Continuous mode, 2 ms reports, batch 512, 60 ms watchdog, 30 ms
    retransmission cooldown, N2 = 10. *)

val validate : t -> (t, string) result
