type sat = {
  id : int;
  plane : int;
  index_in_plane : int;
  orbit : Circular_orbit.t;
}

type t = { planes : int; per_plane : int; sats : sat array }

let walker ~total ~planes ~phasing ~altitude_m ~inclination_rad =
  if planes < 1 then invalid_arg "Constellation.walker: planes must be >= 1";
  if total mod planes <> 0 then
    invalid_arg "Constellation.walker: total must divide evenly into planes";
  if phasing < 0 || phasing >= planes then
    invalid_arg "Constellation.walker: phasing must be in [0, planes)";
  let per_plane = total / planes in
  let two_pi = 2. *. Float.pi in
  let sats =
    Array.init total (fun id ->
        let plane = id / per_plane in
        let index_in_plane = id mod per_plane in
        let raan = two_pi *. float_of_int plane /. float_of_int planes in
        (* Walker phasing: adjacent planes offset by F * 2π / T *)
        let phase =
          (two_pi *. float_of_int index_in_plane /. float_of_int per_plane)
          +. (two_pi *. float_of_int (phasing * plane) /. float_of_int total)
        in
        {
          id;
          plane;
          index_in_plane;
          orbit =
            Circular_orbit.create ~altitude_m ~inclination_rad ~raan_rad:raan
              ~phase_rad:phase ();
        })
  in
  { planes; per_plane; sats }

let size t = Array.length t.sats

let sat t id =
  if id < 0 || id >= size t then invalid_arg "Constellation.sat: bad id";
  t.sats.(id)
