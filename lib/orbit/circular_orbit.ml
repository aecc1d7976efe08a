let earth_radius_m = 6_371_000.

let mu_earth = 3.986004418e14

let j2 = 1.08263e-3

type t = {
  altitude_m : float;
  inclination_rad : float;
  raan_rad : float;
  phase_rad : float;
  j2_enabled : bool;
}

let create ?(j2 = false) ~altitude_m ~inclination_rad ~raan_rad ~phase_rad () =
  if altitude_m <= 0. then invalid_arg "Circular_orbit.create: altitude <= 0";
  { altitude_m; inclination_rad; raan_rad; phase_rad; j2_enabled = j2 }

let semi_major_axis t = earth_radius_m +. t.altitude_m

let angular_velocity t =
  let a = semi_major_axis t in
  sqrt (mu_earth /. (a *. a *. a))

let period t = 2. *. Float.pi /. angular_velocity t

(* Secular J2 rates for a circular orbit (Vallado eq. 9-38): nodal
   regression and the argument-of-latitude correction. *)
let raan_rate t =
  if not t.j2_enabled then 0.
  else begin
    let a = semi_major_axis t in
    let n = angular_velocity t in
    let re_over_a = earth_radius_m /. a in
    -1.5 *. j2 *. re_over_a *. re_over_a *. n *. cos t.inclination_rad
  end

let arg_lat_rate_correction t =
  if not t.j2_enabled then 0.
  else begin
    let a = semi_major_axis t in
    let n = angular_velocity t in
    let re_over_a = earth_radius_m /. a in
    let s2 = sin t.inclination_rad *. sin t.inclination_rad in
    (* d(omega)/dt + dM/dt corrections for e = 0: (4-5s^2) + (2-3s^2) *)
    0.75 *. j2 *. re_over_a *. re_over_a *. n *. (6. -. (8. *. s2))
  end

(* Position: rotate the in-plane circular motion (argument of latitude u)
   by inclination i about the node line, then by RAAN about z. *)
let position t ~at =
  let a = semi_major_axis t in
  let u = t.phase_rad +. ((angular_velocity t +. arg_lat_rate_correction t) *. at) in
  let cos_u = cos u and sin_u = sin u in
  let cos_i = cos t.inclination_rad and sin_i = sin t.inclination_rad in
  let raan = t.raan_rad +. (raan_rate t *. at) in
  let cos_o = cos raan and sin_o = sin raan in
  (* orbital-plane coordinates -> ECI *)
  let x_orb = cos_u and y_orb = sin_u in
  Vec3.make
    (a *. ((x_orb *. cos_o) -. (y_orb *. cos_i *. sin_o)))
    (a *. ((x_orb *. sin_o) +. (y_orb *. cos_i *. cos_o)))
    (a *. (y_orb *. sin_i))
