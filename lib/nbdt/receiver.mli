(** NBDT receiver: out-of-order acceptance plus periodic completely
    selective reports.

    State is the pair (frontier, missing): every number below [frontier]
    has either been received or sits in [missing]; nothing at or above
    [frontier] has been identified yet. Reports reuse the checkpoint
    wire format — [next_expected] carries the frontier and [naks] the
    missing list (capped at [max_report_misses], oldest first). *)

type t

val create :
  Sim.Engine.t ->
  params:Params.t ->
  reverse:Channel.Link.t ->
  metrics:Dlc.Metrics.t ->
  probe:Dlc.Probe.t ->
  t

val on_rx : t -> Channel.Link.rx -> unit

val set_on_deliver : t -> (payload:Frame.Payload.t -> seq:int -> unit) -> unit

val frontier : t -> int

val missing_count : t -> int

val reports_sent : t -> int

val stop : t -> unit

val scramble_recv_seq : t -> delta:int -> string option
(** State-corruption injection point ({!Dlc.Corrupt}): shift the
    received frontier by [delta] (clamped at 0). Forward jumps swallow
    in-flight frames; backward jumps re-flag delivered ones as missing. *)

val poison_nak_ledger : t -> seqs:int list -> string option
(** State-corruption injection point: insert phantom numbers
    ([seqs] are offsets relative to the frontier) into the missing set. *)

val truncate_nak_ledger : t -> string option
(** State-corruption injection point: erase the missing set — pending
    loss reports are forgotten and the frames silently released. *)
