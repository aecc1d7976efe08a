(** Deterministic, scriptable fault injection for one {!Link}.

    Stochastic error models answer "what happens on average"; protocol
    safety arguments need the opposite: named, reproducible disasters.
    A fault script is an ordered list of rules; each arriving frame is
    classified and the first rule that matches (and still has copies in
    its budget, and is inside its time window) decides the frame's fate.
    Tests can therefore say "kill checkpoints 3–5 and the first two
    copies of frame 17" and replay the exact same schedule forever.

    Beyond loss and CRC-detectable corruption, the injector can tell
    semantic {e lies}: Byzantine rewrites that arrive with a clean
    status and are indistinguishable from honest traffic at the
    receiving state machine. Lies are what the {!Dlc.Guard} plausibility
    layer exists to survive.

    Scripts are stateful (per-rule hit budgets, arrival counters, the
    stale-replay ring, the adversary's RNG): compile one script per link
    and do not share.

    {2 Script text format}

    One rule per line, [#] starts a comment:

    {v
    ACTION SELECTOR [k=v ...]
    blackout from=T until=T
    adversary seed=N [k=v ...]
    v}

    Actions: [drop], [corrupt-payload], [corrupt-header], [forge-ack],
    [rewrite-cp-seq] (arg [delta=N], default -1), [inject-stale-cp]
    (arg [back=N], default 1). Selectors: [i-seq=N], [i-payload=S],
    [i-nth=N], [cp-seq=N], [cp-range=LO,HI], [cp-nak], [cp-enforced],
    [req-nak], [control-nth=N], [any-iframe], [any-control],
    [any-frame]. Optional on any rule: [copies=N] (default unlimited),
    [from=T] / [until=T] (time window). [blackout] is sugar for
    [drop any-frame] over a mandatory window: total silence on the
    link. Adversary keys: [p-iframe], [p-control], [p-corrupt-payload],
    [p-corrupt-header], [p-lie], [lies=a,b] (lie actions only),
    [from], [until]. *)

type action =
  | Drop
  | Corrupt_payload
  | Corrupt_header
  | Forge_ack
      (** Flip negative feedback positive, leaving the frame otherwise
          plausible: a LAMS checkpoint loses its NAK list (and
          [next_expected] is raised to cover the flipped seqnums); an
          HDLC SREJ/REJ becomes a plain RR. Applies only to frames
          actually carrying a NAK. *)
  | Rewrite_cp_seq of { delta : int }
      (** Shift a checkpoint's [cp_seq] by [delta] (clamped at 0):
          negative deltas masquerade as stale checkpoints, large
          positive ones as implausible jumps. *)
  | Inject_stale_cp of { back : int }
      (** Replace the frame with a control frame observed [back]
          arrivals earlier on this link (clamped to the replay ring) —
          a checkpoint replay attack. Applies once at least one control
          frame has crossed the link. *)

val is_lie : action -> bool
(** Lie actions substitute a clean forged frame ({!Link.Replace});
    drop/corrupt actions remain CRC-detectable. *)

type selector =
  | I_seq of int  (** I-frame carrying this wire sequence number *)
  | I_payload of Frame.Payload.t
      (** I-frame carrying this payload — tracks a logical frame across
          renumbered retransmissions (LAMS-DLC gives every copy a fresh
          seq, so payload identity is the only stable name) *)
  | I_nth of int  (** the [n]-th I-frame to cross this link, 0-based *)
  | Cp_seq of int  (** checkpoint / status report with this [cp_seq] *)
  | Cp_range of int * int  (** checkpoints with [cp_seq] in [lo, hi] *)
  | Cp_nak
      (** any checkpoint carrying at least one NAK, or an HDLC SREJ/REJ
          (negative supervisory feedback) *)
  | Cp_enforced  (** Enforced-NAK answers *)
  | Req_nak  (** Request-NAK commands *)
  | Control_nth of int  (** the [n]-th control frame, 0-based *)
  | Any_iframe
  | Any_control
  | Any_frame  (** every frame: blackout windows *)

type rule

val rule : ?copies:int -> ?window:float * float -> selector -> action -> rule
(** [copies] limits the rule to its first [copies] matches (default:
    unlimited); [window] restricts it to arrivals with [lo <= now < hi].
    A lie rule that matches a frame it cannot apply to (e.g. [Forge_ack]
    on a NAK-free checkpoint) neither fires nor burns budget. *)

val blackout : from:float -> until:float -> rule
(** Total silence: drop every frame with [from <= now < until]. *)

type adversary = {
  seed : int;
  p_iframe : float;  (** per-I-frame drop probability *)
  p_control : float;  (** per-control-frame drop probability *)
  window : (float * float) option;
  p_corrupt_payload : float;  (** per-I-frame payload-corrupt probability *)
  p_corrupt_header : float;  (** per-frame header-corrupt probability *)
  p_lie : float;  (** per-control-frame lie probability *)
  lies : action list;  (** lie classes drawn uniformly when p_lie fires *)
}

type spec = Rules of rule list | Adversary of adversary
    (** Seed-driven adversarial mode: i.i.d. faults from a private RNG —
        random-looking but exactly reproducible from the seed. The draw
        order is pinned: drop first, then payload-corrupt (I-frames),
        header-corrupt, lie (control frames); each draw is skipped
        entirely while its probability is 0, so specs with the new
        fields at 0 consume byte-identical RNG streams to historic
        drop-only adversaries. *)

val adversary :
  ?p_iframe:float ->
  ?p_control:float ->
  ?window:float * float ->
  ?p_corrupt_payload:float ->
  ?p_corrupt_header:float ->
  ?p_lie:float ->
  ?lies:action list ->
  seed:int ->
  unit ->
  spec
(** All probabilities default to 0. *)

type t

val compile : spec -> t

val of_rules : rule list -> t
(** [compile (Rules rules)]. *)

val install : t -> Link.t -> unit
(** [Link.set_fault] with this script's decision function. *)

val describe : t -> string
(** Stable one-line description of the spec — deterministic across runs,
    so it can seed content-addressed trace file names. Specs expressible
    before the lie/corrupt extension render byte-identically. *)

val action_name : action -> string

val set_observer : t -> (now:float -> action -> Frame.Wire.t -> unit) -> unit
(** Fires synchronously whenever this script affects a frame (dropped,
    corrupted or replaced), letting a tracer interleave fault hits with
    protocol events; the frame passed is the original, pre-substitution
    arrival. Observers compose: every registered observer fires, in
    registration order. *)

val load : string -> (spec, string) result
(** Parse a file in the script text format above. *)
