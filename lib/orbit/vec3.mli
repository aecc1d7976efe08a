(** 3-vectors in the Earth-centred inertial frame, metres. *)

type t = { x : float; y : float; z : float }

val make : float -> float -> float -> t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val dot : t -> t -> float

val norm : t -> float

val norm2 : t -> float

val distance : t -> t -> float
