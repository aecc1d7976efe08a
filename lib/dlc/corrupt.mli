(** Deterministic, scriptable corruption of live session {e state}.

    {!Channel.Fault} perturbs the wire; this module perturbs the
    machines themselves, in the spirit of Dolev et al.'s self-stabilising
    ARQ model: an adversary may place the protocol in an arbitrary state,
    and the recovery machinery (checkpoints, renumbered retransmission,
    Request-NAK recovery, Suspicious flagging) must re-establish the
    invariants within a bounded number of checkpoints — or declare
    failure explicitly.

    The script idiom mirrors {!Channel.Fault}: seeded, scripted,
    per-rule budgets, reproducible forever from the spec. Because
    [lib/dlc] cannot see concrete protocol internals, injections are
    expressed against a {!surface} of mutator closures that each
    protocol session exposes ([Lams_dlc.Session.corrupt_surface] etc.).
    A mutator returns [Some detail] when the injection was applied
    (a [State_corrupted] probe event is then published) and [None] when
    the class is meaningless for that variant — the run then trivially
    "converges" with nothing injected. *)

type side = Send | Recv

type klass =
  | Seq_scramble of { side : side; delta : int }
      (** jump the sender's next wire number ([Send], forward only) or
          the receiver's expected frontier ([Recv], either direction) *)
  | Nak_poison of { seqs : int list }
      (** insert phantom entries into the receiver's NAK ledger;
          [seqs] are offsets relative to the receiver's frontier *)
  | Nak_truncate  (** erase the receiver's NAK ledger and history *)
  | Buffer_duplicate
      (** duplicate an unreleased sending-buffer entry into the
          retransmission queue *)
  | Carryover_stale of { drop : int; flip : bool }
      (** corrupt the next {!Handover.Carryover} snapshot at session
          close: drop the first [drop] unresolved entries (destroyed
          state — declared casualties) and, if [flip], invert every
          surviving delivery verdict *)
  | Reverse_replay of { copies : int; back : int }
      (** re-send a stale captured reverse-link control frame [back]
          positions old, [copies] times (duplicating / non-FIFO reverse
          channel per Dolev et al.) *)

type surface = {
  scramble_send_seq : delta:int -> string option;
  scramble_recv_seq : delta:int -> string option;
  poison_nak_ledger : seqs:int list -> string option;
  truncate_nak_ledger : unit -> string option;
  duplicate_buffer_entry : unit -> string option;
  replay_reverse : copies:int -> back:int -> string option;
}
(** Injection points into one live session. Each closure mutates state
    and returns a human-readable description of what changed, or [None]
    if the class does not apply (unsupported variant, empty buffer,
    nothing captured yet). *)

type rule

val rule : ?copies:int -> ?period:float -> at:float -> klass -> rule
(** Inject [klass] at simulated time [at]; with [period] set, re-inject
    every [period] seconds until the [copies] budget (default 1) is
    spent. *)

type spec =
  | Rules of rule list
  | Adversary of {
      seed : int;
      start : float;
      stop : float;
      mean_gap : float;  (** mean of the exponential inter-injection gap *)
      classes : klass list;
    }
      (** Seed-driven adversary: from [start] until [stop], draw a class
          uniformly from [classes] every ~[mean_gap] seconds — random-
          looking but exactly reproducible from the seed. *)

type t

val compile : spec -> t

val install : t -> Sim.Engine.t -> surface:surface -> probe:Probe.t -> unit
(** Schedule every timed injection on [engine]. Each firing applies its
    class through [surface]; applied injections publish
    [State_corrupted] on [probe]. [Carryover_stale] rules are not timed:
    they arm {!take_carryover} instead. *)

val stop : t -> unit
(** Disarm the timed injections: none installed by {!install} fires
    after this, so none counts as applied or skipped. Called when the
    session the schedule targets stops. *)

val take_carryover : t -> now:float -> (int * bool) option
(** Called by the handover layer when a carryover snapshot is taken:
    if a [Carryover_stale] rule is armed ([at <= now], budget left),
    consume one copy and return its [(drop, flip)] arguments. *)

val applied : t -> unit
(** Count an externally applied injection (the handover layer applies
    carryover corruption itself) so {!hits} stays complete. *)

val hits : t -> int
(** Injections actually applied so far. *)

val skipped : t -> int
(** Injections attempted on an unsupported / empty surface. *)

val describe : t -> string
(** Stable one-line description of the spec — deterministic across
    runs, so it can seed content-addressed trace file names. *)

val load : string -> (spec, string) result
(** Parse a corruption-script file (see EXPERIMENTS.md): one directive
    per line, [#] comments. Rule lines are
    [at T [every P] [copies N] KLASS [k=v ...]]; a single
    [adversary seed=S start=A stop=B mean-gap=G classes=k1,k2] line
    selects adversary mode. *)
