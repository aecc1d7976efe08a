(** One timestamped trace record and its canonical JSONL form.

    A trace is a stream of these, one JSON object per line, byte-stable
    for a given (seed, configuration, fault script) whatever the worker
    count: every float goes through {!Stats.Jsonstr.float_repr} and the
    field order is fixed. Three sources feed the stream: the semantic
    {!Dlc.Probe} bus, {!Channel.Fault} hit observers, and
    {!Oracle.set_on_violation}. *)

type kind =
  | Probe of Dlc.Probe.event
  | Fault of { link : string; action : string; frame : string }
      (** a fault script affected a frame; [link] is ["forward"] or
          ["reverse"], [frame] a stable description of the victim *)
  | Violation of { invariant : string; detail : string }

type t = {
  i : int;  (** monotone index since recorder creation — survives ring
                wrap, so a flight dump shows exactly what was cut *)
  time : float;  (** simulated seconds *)
  kind : kind;
}

val name : t -> string
(** Stable event tag: {!Dlc.Probe.event_name} for probe events,
    ["fault"] / ["violation"] otherwise. *)

(** {2 Tag numbers}

    Each tag name has a number in [\[0, tags)], so per-tag state lives
    in arrays. *)

val tags : int

val tag : t -> int

val probe_tag : Dlc.Probe.event -> int

val tag_name : int -> string
(** [tag_name (tag e) = name e]. *)

val tag_offered : int

val tag_tx : retx:bool -> int

val tag_released : int

val tag_requeued : int

val tag_delivered : int

val tag_cp : naks:int list -> int

val tag_fault : int

val tag_violation : int

val payload_label : Frame.Payload.t -> string
(** First 16 bytes of a payload's image — enough to identify a frame
    built by {!Workload.Arrivals.default_payload} without dumping the
    kilobyte. *)

val to_json : t -> Bench_report.Json.t

val to_line : t -> string
(** Single-line JSON, no trailing newline. *)

val of_json : Bench_report.Json.t -> (t, string) result
(** Inverse of {!to_json} up to payload truncation: a payload comes
    back as its label followed by fill up to the recorded [len], so its
    length and first 16 bytes are exact (and a
    {!Workload.Arrivals.default_payload} comes back whole). This is the
    schema check: every required field of the event's kind must be
    present and well-typed. *)

val of_line : string -> (t, string) result
