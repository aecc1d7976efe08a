type window = { t_start : float; t_end : float }

let duration w = w.t_end -. w.t_start

(* The paper's upper link distance, 10,000 km, also bounds the link. *)
let max_range_m = 10_000_000.

let linked o1 o2 ~at =
  Geometry.line_of_sight o1 o2 ~at && Geometry.distance_m o1 o2 ~at <= max_range_m

(* Sampling period of the visibility scan, seconds. *)
let step = 10.

(* Refine a state change known to lie in (lo, hi] down to ~1 ms. *)
let refine_edge cond ~lo ~hi =
  let rec loop lo hi =
    if hi -. lo <= 1e-3 then hi
    else begin
      let mid = 0.5 *. (lo +. hi) in
      if cond mid = cond lo then loop mid hi else loop lo mid
    end
  in
  loop lo hi

let windows o1 o2 ~from_t ~until_t =
  if until_t < from_t then invalid_arg "Contact.windows: empty horizon";
  let cond at = linked o1 o2 ~at in
  let result = ref [] in
  let open_start = ref (if cond from_t then Some from_t else None) in
  let t = ref from_t in
  while !t < until_t do
    let t' = Float.min (!t +. step) until_t in
    let was = cond !t and now = cond t' in
    (if was <> now then begin
       let edge = refine_edge cond ~lo:!t ~hi:t' in
       if now then open_start := Some edge
       else begin
         match !open_start with
         | Some s ->
             result := { t_start = s; t_end = edge } :: !result;
             open_start := None
         | None -> ()
       end
     end);
    t := t'
  done;
  (match !open_start with
  | Some s -> result := { t_start = s; t_end = until_t } :: !result
  | None -> ());
  List.rev !result

let usable w ~retarget_overhead =
  if retarget_overhead < 0. then invalid_arg "Contact.usable: negative overhead";
  let s = w.t_start +. retarget_overhead in
  if s >= w.t_end then None else Some { t_start = s; t_end = w.t_end }

let distance_fn o1 o2 at = Geometry.distance_m o1 o2 ~at

let sample_fold o1 o2 w ~samples ~init ~f =
  if samples < 2 then invalid_arg "Contact: need at least 2 samples";
  let acc = ref init in
  for i = 0 to samples - 1 do
    let at =
      w.t_start +. (duration w *. float_of_int i /. float_of_int (samples - 1))
    in
    acc := f !acc (Geometry.distance_m o1 o2 ~at)
  done;
  !acc

let mean_distance o1 o2 w ~samples =
  sample_fold o1 o2 w ~samples ~init:0. ~f:( +. ) /. float_of_int samples
