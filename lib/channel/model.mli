(** Pluggable channel-model interface.

    Every way of deciding frame fates on the link — synthetic processes
    ({!Error_model}'s uniform BER and Gilbert–Elliott chains), recorded
    PHY-trace replay ({!Trace_model}), calibrated fits ({!Calibrate}) —
    implements this one first-class interface, and {!Link},
    {!Coded_path} and {!Duplex} are written against it. A model is a
    record of closures over its own private state (the OCaml analogue of
    the ARQ-mode controller interface idiom): constructing one costs a
    few closures once per link, and dispatch is a single indirect call
    on the per-frame path.

    The frame-fate vocabulary lives here so backends and consumers share
    it without depending on any particular backend module. *)

type fate =
  | Clean
  | Corrupt of { header : bool }
      (** damaged; [header = true] when the header itself is unreadable *)
  | Lost  (** frame vanishes without trace *)

(** Reusable scratch vector of bit positions, filled by
    {!error_positions_into} — the coded path keeps one per link and
    clears it per frame, so exact bit-level sampling allocates nothing
    in steady state. *)
module Positions : sig
  type t

  val create : unit -> t
  (** Room for 64 positions to start with. *)

  val clear : t -> unit

  val length : t -> int

  val get : t -> int -> int
  (** Bounds-checked; raises [Invalid_argument] outside [0, length). *)

  val unsafe_get : t -> int -> int

  val push : t -> int -> unit
  (** Append, growing the backing array as needed. *)

  val sort : t -> unit
  (** In-place ascending sort of the filled prefix; allocation-free. *)
end

type t = {
  m_fate : Sim.Rng.t -> header_bits:int -> payload_bits:int -> fate;
      (** Draw the fate of one frame and advance channel state by the
          frame's bit count. *)
  m_fates_into :
    Sim.Rng.t -> header_bits:int -> payload_bits:int -> fate array -> n:int -> unit;
      (** Bulk entry point: the fates of [n] consecutive identically
          sized frames into [dst.(0..n-1)]. Called through
          {!fates_into}, which validates [n] first — backends may
          assume [0 <= n <= Array.length dst]. *)
  m_advance : Sim.Rng.t -> bits:int -> unit;
      (** Let [bits] bit-times pass with nothing transmitted (idle
          line). No-op for memoryless and frame-indexed backends. *)
  m_error_positions_into : Sim.Rng.t -> bits:int -> Positions.t -> unit;
      (** Exact bit-level sampling for the coded path: append the
          ascending distinct positions in [0, bits) where the channel
          flips a bit to the (caller-cleared) scratch vector, advancing
          state by [bits]. Must not allocate in steady state. *)
  m_frame_error_prob : bits:int -> float;
      (** Analytic (or empirical) frame-error probability for a frame
          of [bits] bits. *)
  m_copy : unit -> t;
      (** Independent copy with the same parameters and current
          state. *)
  m_describe : unit -> string;
}

(** {1 Dispatch}

    Thin wrappers over the record fields; argument validation that must
    hold for every backend lives here, not in each backend. *)

val fate : t -> Sim.Rng.t -> header_bits:int -> payload_bits:int -> fate

val fates_into :
  t -> Sim.Rng.t -> header_bits:int -> payload_bits:int -> fate array -> n:int -> unit
(** Raises [Invalid_argument] if [n < 0 || n > Array.length dst]. *)

val fates : t -> Sim.Rng.t -> header_bits:int -> payload_bits:int -> n:int -> fate array
(** Convenience wrapper around {!fates_into} that allocates the result. *)

val advance : t -> Sim.Rng.t -> bits:int -> unit
(** No-op when [bits <= 0]. *)

val error_positions_into : t -> Sim.Rng.t -> bits:int -> Positions.t -> unit
(** Append this frame's flipped-bit positions (ascending, distinct, in
    [0, bits)) to [dst] without clearing it first. *)

val frame_error_prob : t -> bits:int -> float

val copy : t -> t

val describe : t -> string
