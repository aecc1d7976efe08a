type t = { forward : Link.t; reverse : Link.t }

let make engine ~rng ~distance ~data_rate_bps ~iframe_error ~cframe_error =
  let rng_fwd = Sim.Rng.split rng and rng_rev = Sim.Rng.split rng in
  let forward =
    Link.create engine ~rng:rng_fwd ~distance ~data_rate_bps
      ~iframe_error:(Model.copy iframe_error)
      ~cframe_error:(Model.copy cframe_error)
  in
  let reverse =
    Link.create engine ~rng:rng_rev ~distance ~data_rate_bps
      ~iframe_error:(Model.copy iframe_error)
      ~cframe_error:(Model.copy cframe_error)
  in
  { forward; reverse }

let create engine ~rng ~distance_m ~data_rate_bps ~iframe_error ~cframe_error =
  make engine ~rng ~distance:(Link.Moving distance_m) ~data_rate_bps
    ~iframe_error ~cframe_error

let create_static engine ~rng ~distance_m ~data_rate_bps ~iframe_error
    ~cframe_error =
  make engine ~rng ~distance:(Link.Fixed distance_m) ~data_rate_bps
    ~iframe_error ~cframe_error

let set_down t =
  Link.set_down t.forward;
  Link.set_down t.reverse

let set_up t =
  Link.set_up t.forward;
  Link.set_up t.reverse
