(** Recorded per-frame error traces: file format, replay backend, and
    scripted scenario generators.

    Synthetic channels (uniform BER, Gilbert–Elliott) answer "what would
    this channel class do"; a recorded trace answers "what did the
    channel actually do" (Kuhn et al., PAPERS.md). This module gives
    frame-fate sequences a durable on-disk form and turns them back into
    a pluggable {!Model} backend that replays them deterministically —
    independent of the RNG, so replicated experiments stay
    byte-identical across [--jobs].

    {2 File format (version 1)}

    Versioned plain text. The first non-comment line is the header:

    {v lams-dlc-channel-trace v1 frames=<n> v}

    followed by exactly [n] fate tokens in frame order, one character
    each, whitespace ignored, [#] starting a comment to end of line:

    - [.] — frame arrived clean
    - [p] — payload corrupted (header readable, frame identifiable)
    - [h] — header corrupted (unidentifiable arrival)
    - [L] — frame lost (sync loss: nothing arrives)

    A version other than [v1] and a token count differing from
    [frames=<n>] (truncation or trailing garbage) are both rejected with
    a diagnostic. *)

type data = Model.fate array
(** A trace is the fate sequence itself — plain data (no closures), so
    it marshals into experiment fingerprints and config records. *)

exception Parse_error of string
(** Raised by {!parse} / {!load} with a human-readable diagnostic
    (unsupported version, frame-count mismatch, unknown token, ...). *)

val parse : string -> data
(** Parse trace text. Raises {!Parse_error}. *)

val to_string : ?comment:string -> data -> string
(** Print a trace in the v1 format; round-trips through {!parse}.
    [comment] is emitted as leading [#] lines. *)

val load : string -> data
(** Read and {!parse} a trace file. Raises {!Parse_error} on malformed
    content and [Sys_error] on I/O failure. *)

val save : ?comment:string -> string -> data -> unit
(** Write a trace file in the v1 format. *)

val fate_token : Model.fate -> char

val fate_of_token : char -> Model.fate option

val error_rate : data -> float
(** Fraction of frames whose fate is not [Clean] (0 on an empty
    trace). *)

val replay : ?offset:int -> data -> Model.t
(** [replay data] is a channel model that deals out the recorded fates
    in order, starting [offset] frames in (reduced modulo the trace
    length, so any offset is valid; default 0) — replicates can be given
    distinct windows of one trace while each stays fully deterministic.
    The trace is periodic: past its last frame, replay wraps to the
    start.

    Replay consumes no randomness: the RNG argument of the model calls
    is ignored, and [advance] is a no-op (the trace is frame-indexed,
    not bit-clocked). [frame_error_prob] reports the trace's empirical
    error rate. [copy] duplicates the cursor, so the copy and the
    original replay the same upcoming fates independently.

    Bit-level [error_positions] (the {!Coded_path} consumer) is a
    frame-scale approximation: a non-[Clean] recorded fate is rendered
    as a dense burst of bit flips at the start of the span — enough to
    defeat the frame CRC; whether FEC repairs it is then the coded
    path's business. [Lost] cannot be expressed at bit level and is
    rendered the same way.

    Raises [Invalid_argument] on an empty trace. *)

(** {2 Scripted scenario generators}

    Offline generators that synthesise trace files for scenarios the
    stationary models cannot express: deterministic functions of
    [seed], so a generated trace is reproducible from its parameters. *)

val mispointing_storm :
  ?header_bits:int ->
  ?payload_bits:int ->
  ?calm_frames:int ->
  ?storm_frames:int ->
  ?ber_calm:float ->
  ?ber_storm:float ->
  frames:int ->
  seed:int ->
  unit ->
  data
(** Periodic beam-mispointing storms: the link alternates between
    [calm_frames] at [ber_calm] (default 400 frames at 1e-7) and
    [storm_frames] at [ber_storm] (default 60 frames at 2e-3), fates
    drawn per frame at the phase's BER. Defaults size frames as
    104-bit headers with 8192-bit payloads. *)

val eclipse :
  ?header_bits:int ->
  ?payload_bits:int ->
  ?period_frames:int ->
  ?ber_min:float ->
  ?ber_max:float ->
  frames:int ->
  seed:int ->
  unit ->
  data
(** Eclipse thermal cycle: BER sweeps sinusoidally in log space from
    [ber_min] (default 1e-7) up to [ber_max] (default 5e-4) and back
    over [period_frames] (default 2000) — the slow thermal distortion
    of the optical bench as the spacecraft crosses the eclipse. *)

val generate :
  [ `Storm | `Eclipse ] ->
  frames:int ->
  seed:int ->
  payload_bytes:int ->
  string * data
(** A scripted scenario with default parameters, for frames of
    [payload_bytes] behind an I-frame header: the comment that heads its
    trace file ([generated: <kind> seed=.. frames=.. payload=..B]) and
    the data. *)
