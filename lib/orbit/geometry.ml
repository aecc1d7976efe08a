let distance_m o1 o2 ~at =
  Vec3.distance (Circular_orbit.position o1 ~at) (Circular_orbit.position o2 ~at)

(* Closest approach of segment [a,b] to the origin: clamp the projection
   of -a onto (b-a) to the segment. *)
let min_segment_altitude a b =
  let ab = Vec3.sub b a in
  let denom = Vec3.norm2 ab in
  let t =
    if denom = 0. then 0.
    else Float.max 0. (Float.min 1. (-.Vec3.dot a ab /. denom))
  in
  let closest = Vec3.add a (Vec3.scale t ab) in
  Vec3.norm closest -. Circular_orbit.earth_radius_m

(* The atmosphere a grazing path must clear, 100 km. *)
let grazing_altitude_m = 100_000.

let line_of_sight o1 o2 ~at =
  let a = Circular_orbit.position o1 ~at in
  let b = Circular_orbit.position o2 ~at in
  min_segment_altitude a b >= grazing_altitude_m
