(** Information frames (I-frames).

    An I-frame carries opaque user bits and a sequence number [N(S)].
    LAMS-DLC layering keeps the DLC payload opaque: network-layer
    addressing and resequencing metadata live inside [payload] (see the
    [netstack] library), so the same frame type serves both protocols
    under test. The payload travels as a {!Payload} descriptor; the
    codec builds its bytes. *)

type t = { seq : int; payload : Payload.t }

val create : seq:int -> payload:Payload.t -> t

val pp : Format.formatter -> t -> unit
