type t = { forward : Link.t; reverse : Link.t }

let create engine ~rng ~distance_m ~data_rate_bps ~iframe_error ~cframe_error =
  let rng_fwd = Sim.Rng.split rng and rng_rev = Sim.Rng.split rng in
  let forward =
    Link.create engine ~rng:rng_fwd ~distance_m ~data_rate_bps
      ~iframe_error:(Model.copy iframe_error)
      ~cframe_error:(Model.copy cframe_error)
  in
  let reverse =
    Link.create engine ~rng:rng_rev ~distance_m ~data_rate_bps
      ~iframe_error:(Model.copy iframe_error)
      ~cframe_error:(Model.copy cframe_error)
  in
  { forward; reverse }

let create_static engine ~rng ~distance_m ~data_rate_bps ~iframe_error
    ~cframe_error =
  create engine ~rng ~distance_m:(fun _ -> distance_m) ~data_rate_bps
    ~iframe_error ~cframe_error

let set_down t =
  Link.set_down t.forward;
  Link.set_down t.reverse

let set_up t =
  Link.set_up t.forward;
  Link.set_up t.reverse
