(* Orbit substrate tests: vectors, circular orbits, geometry,
   constellations, contact windows. *)

let feq name ?(eps = 1e-6) a b =
  if Float.abs (a -. b) > eps *. (1. +. Float.abs b) then
    Alcotest.failf "%s: %g != %g" name a b

let test_vec3_ops () =
  let a = Orbit.Vec3.make 1. 2. 3. and b = Orbit.Vec3.make 4. (-5.) 6. in
  feq "dot" (Orbit.Vec3.dot a b) 12.;
  feq "norm" (Orbit.Vec3.norm (Orbit.Vec3.make 3. 4. 0.)) 5.;
  feq "distance" (Orbit.Vec3.distance a a) 0.

let leo =
  Orbit.Circular_orbit.create ~altitude_m:1_000_000. ~inclination_rad:1.0
    ~raan_rad:0.5 ~phase_rad:0. ()

(* Orbit radius of a circular orbit at [altitude_m]. *)
let radius altitude_m = Orbit.Circular_orbit.earth_radius_m +. altitude_m

let test_orbit_radius_constant () =
  let a = radius 1_000_000. in
  List.iter
    (fun t ->
      feq "radius" (Orbit.Vec3.norm (Orbit.Circular_orbit.position leo ~at:t)) a)
    [ 0.; 100.; 1234.; 99999. ]

let test_orbit_period () =
  (* ~1000 km LEO: period about 105 minutes *)
  let p = Orbit.Circular_orbit.period leo in
  if p < 6000. || p > 6600. then Alcotest.failf "period %g out of LEO range" p;
  (* position repeats after one period *)
  let p0 = Orbit.Circular_orbit.position leo ~at:0. in
  let p1 = Orbit.Circular_orbit.position leo ~at:p in
  feq "periodic" (Orbit.Vec3.distance p0 p1 /. Orbit.Vec3.norm p0) 0. ~eps:1e-6

(* The velocity, as the central difference of positions. *)
let velocity o ~at =
  let dt = 1e-3 in
  Orbit.Vec3.scale (1. /. (2. *. dt))
    (Orbit.Vec3.sub
       (Orbit.Circular_orbit.position o ~at:(at +. dt))
       (Orbit.Circular_orbit.position o ~at:(at -. dt)))

let test_orbit_velocity () =
  (* circular speed = sqrt(mu/a) ~ 7.35 km/s at 1000 km *)
  let mu_earth = 3.986004418e14 in
  let v = velocity leo ~at:42. in
  feq "circular speed" (Orbit.Vec3.norm v) (sqrt (mu_earth /. radius 1_000_000.))
    ~eps:1e-6;
  (* velocity is tangent: orthogonal to position *)
  let p = Orbit.Circular_orbit.position leo ~at:42. in
  feq "tangent" (Orbit.Vec3.dot p v /. (Orbit.Vec3.norm p *. Orbit.Vec3.norm v)) 0.
    ~eps:1e-6

let test_line_of_sight () =
  let o1 =
    Orbit.Circular_orbit.create ~altitude_m:1_000_000. ~inclination_rad:0.
      ~raan_rad:0. ~phase_rad:0. ()
  in
  (* same plane, 0.5 rad apart: chord clears the Earth comfortably *)
  let o2 = { o1 with Orbit.Circular_orbit.phase_rad = 0.5 } in
  Alcotest.(check bool) "0.5 rad apart visible" true
    (Orbit.Geometry.line_of_sight o1 o2 ~at:0.);
  (* quarter orbit apart at 1000 km the chord dips below the surface *)
  let o2q = { o1 with Orbit.Circular_orbit.phase_rad = Float.pi /. 2. } in
  Alcotest.(check bool) "quarter apart occluded" false
    (Orbit.Geometry.line_of_sight o1 o2q ~at:0.);
  (* antipodal: Earth in the way *)
  let o3 = { o1 with Orbit.Circular_orbit.phase_rad = Float.pi } in
  Alcotest.(check bool) "antipodal occluded" false
    (Orbit.Geometry.line_of_sight o1 o3 ~at:0.)

(* Line of sight holds while the chord's lowest point stays above the
   100 km grazing altitude: two satellites on one 1,000 km orbit see
   each other up to an angular separation of
   2 acos ((R + 100 km) / (R + 1,000 km)), about 0.99 rad. *)
let test_min_segment_altitude () =
  let o1 =
    Orbit.Circular_orbit.create ~altitude_m:1_000_000. ~inclination_rad:0.
      ~raan_rad:0. ~phase_rad:0. ()
  in
  let apart phase = { o1 with Orbit.Circular_orbit.phase_rad = phase } in
  let limit = 2. *. acos (radius 100_000. /. radius 1_000_000.) in
  Alcotest.(check bool) "a point is its own segment" true
    (Orbit.Geometry.line_of_sight o1 o1 ~at:0.);
  Alcotest.(check bool) "just inside the limit" true
    (Orbit.Geometry.line_of_sight o1 (apart (limit -. 1e-3)) ~at:0.);
  Alcotest.(check bool) "just outside the limit" false
    (Orbit.Geometry.line_of_sight o1 (apart (limit +. 1e-3)) ~at:0.)

(* Visibility among a constellation's satellites is a symmetric
   relation, and some pairs are visible. *)
let test_visible_pairs_symmetric_content () =
  let c =
    Orbit.Constellation.walker ~total:6 ~planes:2 ~phasing:0 ~altitude_m:1e6
      ~inclination_rad:0.9
  in
  let orbit i = (Orbit.Constellation.sat c i).Orbit.Constellation.orbit in
  let visible = ref 0 in
  for i = 0 to 5 do
    for j = 0 to 5 do
      let v = Orbit.Geometry.line_of_sight (orbit i) (orbit j) ~at:100. in
      if v <> Orbit.Geometry.line_of_sight (orbit j) (orbit i) ~at:100. then
        Alcotest.failf "visibility of %d and %d is not symmetric" i j;
      if v && i < j then incr visible
    done
  done;
  Alcotest.(check bool) "some pairs visible" true (!visible > 0)

let test_walker_structure () =
  let c =
    Orbit.Constellation.walker ~total:12 ~planes:3 ~phasing:1
      ~altitude_m:1_000_000. ~inclination_rad:1.2
  in
  Alcotest.(check int) "size" 12 (Orbit.Constellation.size c);
  let sat5 = Orbit.Constellation.sat c 5 in
  Alcotest.(check int) "plane of 5" 1 sat5.Orbit.Constellation.plane;
  Alcotest.(check int) "index of 5" 1 sat5.Orbit.Constellation.index_in_plane

let test_walker_bad_args () =
  Alcotest.check_raises "indivisible"
    (Invalid_argument "Constellation.walker: total must divide evenly into planes")
    (fun () ->
      ignore
        (Orbit.Constellation.walker ~total:10 ~planes:3 ~phasing:0
           ~altitude_m:1e6 ~inclination_rad:1.))

let test_walker_neighbors_visible () =
  (* intra-plane neighbours of an 8-per-plane ring are close enough to see *)
  let c =
    Orbit.Constellation.walker ~total:24 ~planes:3 ~phasing:0
      ~altitude_m:1_200_000. ~inclination_rad:1.0
  in
  let s0 = Orbit.Constellation.sat c 0 and s1 = Orbit.Constellation.sat c 1 in
  Alcotest.(check bool) "ring neighbours visible" true
    (Orbit.Geometry.line_of_sight s0.Orbit.Constellation.orbit
       s1.Orbit.Constellation.orbit ~at:0.)

let test_contact_windows_coplanar () =
  (* co-planar neighbours never lose sight: one window spanning the
     whole horizon *)
  let o1 =
    Orbit.Circular_orbit.create ~altitude_m:1e6 ~inclination_rad:0.7 ~raan_rad:0.
      ~phase_rad:0. ()
  in
  let o2 = { o1 with Orbit.Circular_orbit.phase_rad = 0.5 } in
  match Orbit.Contact.windows o1 o2 ~from_t:0. ~until_t:5000. with
  | [ w ] ->
      Alcotest.(check (float 1e-6)) "starts at 0" 0. w.Orbit.Contact.t_start;
      Alcotest.(check (float 1e-6)) "ends at horizon" 5000. w.Orbit.Contact.t_end
  | ws -> Alcotest.failf "expected one window, got %d" (List.length ws)

let test_contact_windows_crossing () =
  (* counter-phased satellites in the same plane alternate between
     visible and occluded: multiple windows *)
  let o1 =
    Orbit.Circular_orbit.create ~altitude_m:1e6 ~inclination_rad:0.7 ~raan_rad:0.
      ~phase_rad:0. ()
  in
  let o2 =
    Orbit.Circular_orbit.create ~altitude_m:2e6 ~inclination_rad:0.7
      ~raan_rad:Float.pi ~phase_rad:1.3 ()
  in
  let horizon = 4. *. Orbit.Circular_orbit.period o1 in
  let ws = Orbit.Contact.windows o1 o2 ~from_t:0. ~until_t:horizon in
  if List.length ws < 2 then
    Alcotest.failf "expected multiple windows, got %d" (List.length ws);
  (* windows are disjoint and ordered *)
  let rec check_disjoint = function
    | a :: (b :: _ as rest) ->
        if a.Orbit.Contact.t_end > b.Orbit.Contact.t_start then
          Alcotest.fail "overlapping windows";
        check_disjoint rest
    | _ -> ()
  in
  check_disjoint ws;
  List.iter
    (fun w ->
      if Orbit.Contact.duration w <= 0. then Alcotest.fail "empty window")
    ws

let test_j2_precession () =
  let base ~j2 =
    Orbit.Circular_orbit.create ~j2 ~altitude_m:800_000.
      ~inclination_rad:(98.6 *. Float.pi /. 180.)
      ~raan_rad:0. ~phase_rad:0. ()
  in
  let off = base ~j2:false and on = base ~j2:true in
  feq "no drift without j2" (Orbit.Circular_orbit.raan_rate off) 0. ~eps:1e-18;
  (* sun-synchronous test case: ~800 km at 98.6 deg regresses EASTWARD at
     about +1.99e-7 rad/s (2 pi per year) *)
  let rate = Orbit.Circular_orbit.raan_rate on in
  if rate < 1.5e-7 || rate > 2.5e-7 then
    Alcotest.failf "sun-sync raan rate %g not ~2e-7" rate;
  (* prograde LEO regresses westward *)
  let prograde =
    Orbit.Circular_orbit.create ~j2:true ~altitude_m:1e6 ~inclination_rad:0.9
      ~raan_rad:0. ~phase_rad:0. ()
  in
  Alcotest.(check bool) "prograde drifts westward" true
    (Orbit.Circular_orbit.raan_rate prograde < 0.);
  (* the drift actually moves the plane: position after a day differs
     from the j2-off propagation by many kilometres *)
  let day = 86_400. in
  let d =
    Orbit.Vec3.distance
      (Orbit.Circular_orbit.position on ~at:day)
      (Orbit.Circular_orbit.position off ~at:day)
  in
  Alcotest.(check bool) "plane moved" true (d > 10_000.);
  (* radius is still constant under J2 *)
  feq "radius constant"
    (Orbit.Vec3.norm (Orbit.Circular_orbit.position on ~at:day))
    (radius 800_000.)

let test_contact_usable () =
  let w = { Orbit.Contact.t_start = 10.; t_end = 20. } in
  (match Orbit.Contact.usable w ~retarget_overhead:4. with
  | Some w' ->
      Alcotest.(check (float 1e-9)) "shrunk start" 14. w'.Orbit.Contact.t_start
  | None -> Alcotest.fail "window should remain");
  Alcotest.(check bool) "consumed window" true
    (Orbit.Contact.usable w ~retarget_overhead:10. = None)

let test_contact_windows_mid_window_span () =
  (* from_t / until_t landing inside a visibility interval clamp the
     returned window to the queried span exactly — the bisection must
     not run edges outside [from_t, until_t] when visibility holds over
     the whole span *)
  let o1 =
    Orbit.Circular_orbit.create ~altitude_m:1e6 ~inclination_rad:0.7 ~raan_rad:0.
      ~phase_rad:0. ()
  in
  let o2 = { o1 with Orbit.Circular_orbit.phase_rad = 0.5 } in
  match Orbit.Contact.windows o1 o2 ~from_t:123.456 ~until_t:789.012 with
  | [ w ] ->
      Alcotest.(check (float 1e-9)) "starts at from_t" 123.456
        w.Orbit.Contact.t_start;
      Alcotest.(check (float 1e-9)) "ends at until_t" 789.012
        w.Orbit.Contact.t_end
  | ws -> Alcotest.failf "expected one clamped window, got %d" (List.length ws)

let test_contact_windows_truncated_by_span () =
  (* querying the middle slice of a real crossing-pair window returns
     that window truncated at both query bounds *)
  let o1 =
    Orbit.Circular_orbit.create ~altitude_m:1e6 ~inclination_rad:0.7 ~raan_rad:0.
      ~phase_rad:0. ()
  in
  let o2 =
    Orbit.Circular_orbit.create ~altitude_m:2e6 ~inclination_rad:0.7
      ~raan_rad:Float.pi ~phase_rad:1.3 ()
  in
  let horizon = 4. *. Orbit.Circular_orbit.period o1 in
  let full = Orbit.Contact.windows o1 o2 ~from_t:0. ~until_t:horizon in
  let w =
    match List.find_opt (fun w -> Orbit.Contact.duration w >= 120.) full with
    | Some w -> w
    | None -> Alcotest.fail "no long window found"
  in
  let from_t = w.Orbit.Contact.t_start +. (Orbit.Contact.duration w /. 4.) in
  let until_t = w.Orbit.Contact.t_end -. (Orbit.Contact.duration w /. 4.) in
  (match Orbit.Contact.windows o1 o2 ~from_t ~until_t with
  | [ w' ] ->
      Alcotest.(check (float 1e-3)) "truncated start" from_t
        w'.Orbit.Contact.t_start;
      Alcotest.(check (float 1e-3)) "truncated end" until_t
        w'.Orbit.Contact.t_end
  | ws -> Alcotest.failf "expected the one mid-window slice, got %d"
            (List.length ws));
  (* the slice, shrunk by a retargeting overhead bigger than itself, is
     consumed entirely *)
  Alcotest.(check bool) "slice consumed by retargeting" true
    (Orbit.Contact.usable { Orbit.Contact.t_start = from_t; t_end = until_t }
       ~retarget_overhead:(until_t -. from_t +. 1.)
    = None)

let test_contact_distances () =
  let o1 =
    Orbit.Circular_orbit.create ~altitude_m:1e6 ~inclination_rad:0.7 ~raan_rad:0.
      ~phase_rad:0. ()
  in
  let o2 = { o1 with Orbit.Circular_orbit.phase_rad = 0.5 } in
  let w = { Orbit.Contact.t_start = 0.; t_end = 1000. } in
  let mean = Orbit.Contact.mean_distance o1 o2 w ~samples:50 in
  (* co-planar constant separation: the mean is the chord distance *)
  let chord = 2. *. radius 1e6 *. sin 0.25 in
  feq "chord distance" mean chord ~eps:1e-6

let suite =
  [
    Alcotest.test_case "vec3 ops" `Quick test_vec3_ops;
    Alcotest.test_case "orbit radius constant" `Quick test_orbit_radius_constant;
    Alcotest.test_case "orbit period" `Quick test_orbit_period;
    Alcotest.test_case "orbit velocity" `Quick test_orbit_velocity;
    Alcotest.test_case "line of sight" `Quick test_line_of_sight;
    Alcotest.test_case "min segment altitude" `Quick test_min_segment_altitude;
    Alcotest.test_case "walker structure" `Quick test_walker_structure;
    Alcotest.test_case "walker bad args" `Quick test_walker_bad_args;
    Alcotest.test_case "walker neighbours visible" `Quick test_walker_neighbors_visible;
    Alcotest.test_case "visible pairs" `Quick test_visible_pairs_symmetric_content;
    Alcotest.test_case "contact windows coplanar" `Quick test_contact_windows_coplanar;
    Alcotest.test_case "contact windows crossing" `Quick test_contact_windows_crossing;
    Alcotest.test_case "J2 precession" `Quick test_j2_precession;
    Alcotest.test_case "contact usable" `Quick test_contact_usable;
    Alcotest.test_case "contact mid-window span" `Quick
      test_contact_windows_mid_window_span;
    Alcotest.test_case "contact truncated by span" `Quick
      test_contact_windows_truncated_by_span;
    Alcotest.test_case "contact distances" `Quick test_contact_distances;
  ]
