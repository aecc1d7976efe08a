(** Full-duplex link: two independent unidirectional {!Link}s sharing the
    same geometry (paper §2.2 assumption 2: all links are full-duplex).

    The two directions get independent error-model copies and split RNG
    streams, so forward-path noise does not perturb reverse-path draws. *)

type t = { forward : Link.t; reverse : Link.t }

val create :
  Sim.Engine.t ->
  rng:Sim.Rng.t ->
  distance_m:(float -> float) ->
  data_rate_bps:float ->
  iframe_error:Error_model.t ->
  cframe_error:Error_model.t ->
  t

val create_static :
  Sim.Engine.t ->
  rng:Sim.Rng.t ->
  distance_m:float ->
  data_rate_bps:float ->
  iframe_error:Error_model.t ->
  cframe_error:Error_model.t ->
  t

val set_down : t -> unit
(** Both directions. *)

val set_up : t -> unit
