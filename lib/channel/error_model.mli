(** Stochastic bit-error processes for the laser link.

    Two channel regimes from paper §2.1: {b random errors} from optical
    noise (uniform BER) and {b burst errors} from beam mispointing and
    tracking loss (Gilbert–Elliott two-state chain). The simulator is
    frame-oriented: a model is asked once per frame for the frame's fate,
    advancing its internal state by the frame's bit count. The chain is
    bit-clocked — state evolves with bits serialised on the link — which
    matches how interleaving analysis treats burst spans.

    Each constructor here is a backend of the pluggable {!Model}
    interface: [type t = Model.t], so these synthetic processes compose
    freely with {!Trace_model} replay and {!Calibrate} fits anywhere a
    channel model is consumed ({!Link}, {!Coded_path}, {!Duplex}), and
    are drawn from through {!Model}'s dispatch functions.

    A frame's fate distinguishes header and payload damage because the
    receiver can still identify (and therefore NAK) a frame whose header
    survived; a destroyed header makes the frame unidentifiable and it is
    recovered via gap detection. [Lost] models sync loss: nothing arrives
    at all. *)

type fate = Model.fate =
  | Clean
  | Corrupt of { header : bool }
      (** damaged; [header = true] when the header itself is unreadable *)
  | Lost  (** frame vanishes without trace *)

type t = Model.t

val perfect : t
(** Never corrupts. *)

val uniform : ?frame_loss:float -> ber:float -> unit -> t
(** Independent bit errors at rate [ber]; additionally each frame is
    wholly lost with probability [frame_loss] (default 0). Frame loss is
    a frame-scale abstraction: {!Model.error_positions_into} never loses
    a frame. The per-frame error probability is memoised by bit count,
    so steady links (constant header/payload sizes) skip the
    [expm1]/[log1p] pair after the first frame; the draw stream is
    unchanged. {!Model.frame_error_prob} is exact. *)

val gilbert_elliott :
  ?frame_loss:float ->
  ber_good:float ->
  ber_bad:float ->
  mean_burst_bits:float ->
  mean_gap_bits:float ->
  unit ->
  t
(** Two-state chain: the {e bad} (mispointing) state has BER [ber_bad]
    and mean sojourn [mean_burst_bits]; the {e good} state has
    [ber_good] and mean sojourn [mean_gap_bits]. Sojourns are geometric
    (memoryless per bit). Mispointing is a wall-clock process: the link
    calls {!Model.advance} over idle gaps, so a stalled sender can
    outwait a burst. {!Model.frame_error_prob} is the stationary-state
    approximation: the BER averaged over the chain's stationary
    distribution. *)

val ber_for_frame_error_prob : bits:int -> fer:float -> float
(** Inverse of the uniform model's FER: the BER that gives frame error
    probability [fer] at the given frame size. *)

val p_any_error : ber:float -> bits:int -> float
(** P[at least one error in [bits] bits at rate [ber]], computed without
    float underflow. Shared by the synthetic backends, {!Calibrate}'s
    moment matching, and trace analysis. *)
