(** Session migration: what one LAMS-DLC session hands to the next.

    At window close {!snapshot} stops the dying session, drains the
    sender's unreleased buffer through
    {!Lams_dlc.Sender.drain_unresolved} (the §3.3 handoff
    classification) and photographs the receiver's outstanding-NAK
    ledger. {!replay} feeds the drained payloads, oldest first, into a
    fresh session's offer function — carryover is a {e buffer drain},
    not a sequence-number transplant: retransmissions take new numbers
    in the new session (§3.1), and the old NAK ledger is kept only for
    accounting, since its numbers mean nothing to the successor. The
    destination's {!Netstack.Resequencer} deduplicates whatever the
    [`Suspicious] set duplicates. *)

type t

val snapshot : now:float -> Lams_dlc.Session.t -> t
(** Stops both halves of the session (idempotent on an already-failed
    sender) and captures its unresolved state; [now] is the simulated
    snapshot instant. *)

val closed_at : t -> float
(** Simulated time of the snapshot. *)

val unresolved : t -> Lams_dlc.Sender.unresolved list
(** Oldest first. *)

val payloads : t -> Frame.Payload.t list
(** The unresolved payloads, oldest first. *)

val suspicious : t -> int

val corrupt : ?drop:int -> ?flip:bool -> t -> t * Frame.Payload.t list
(** Deterministic snapshot corruption for self-stabilisation tests:
    remove the first [drop] unresolved entries (their payloads are
    returned — casualties destroyed with the state) and, when [flip],
    invert every surviving §3.3 verdict ([`Not_delivered] <->
    [`Suspicious]). The input is untouched. *)
