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

(** {2 Tag numbers}

    Each tag name has a number in [\[0, tags)], so per-tag state lives
    in arrays. *)

val tags : int

val tag : t -> int

val probe_tag : Dlc.Probe.event -> int

val tag_name : int -> string
(** The stable name of a tag, e.g. ["retx"], ["cp-nak"], ["link-up"],
    ["fault"]: the JSONL [ev] field and the metrics' count keys. *)

val tag_offered : int

val tag_tx : retx:bool -> int

val tag_released : int

val tag_requeued : int

val tag_delivered : int

val tag_cp : naks:int array -> int

val tag_fault : int

val tag_violation : int

val to_line : t -> string
(** Single-line JSON, no trailing newline. *)

val of_line : string -> (t, string) result
