let earth_radius_m = 6_371_000.

let mu_earth = 3.986004418e14

type t = {
  altitude_m : float;
  inclination_rad : float;
  raan_rad : float;
  phase_rad : float;
}

let create ~altitude_m ~inclination_rad ~raan_rad ~phase_rad () =
  if altitude_m <= 0. then invalid_arg "Circular_orbit.create: altitude <= 0";
  { altitude_m; inclination_rad; raan_rad; phase_rad }

let semi_major_axis t = earth_radius_m +. t.altitude_m

let angular_velocity t =
  let a = semi_major_axis t in
  sqrt (mu_earth /. (a *. a *. a))

let period t = 2. *. Float.pi /. angular_velocity t

(* Position: rotate the in-plane circular motion (argument of latitude u)
   by inclination i about the node line, then by RAAN about z. *)
let position t ~at =
  let a = semi_major_axis t in
  let u = t.phase_rad +. (angular_velocity t *. at) in
  let cos_u = cos u and sin_u = sin u in
  let cos_i = cos t.inclination_rad and sin_i = sin t.inclination_rad in
  let cos_o = cos t.raan_rad and sin_o = sin t.raan_rad in
  (* orbital-plane coordinates -> ECI *)
  let x_orb = cos_u and y_orb = sin_u in
  Vec3.make
    (a *. ((x_orb *. cos_o) -. (y_orb *. cos_i *. sin_o)))
    (a *. ((x_orb *. sin_o) +. (y_orb *. cos_i *. cos_o)))
    (a *. (y_orb *. sin_i))
