type fit = {
  ber_good : float;
  ber_bad : float;
  mean_burst_bits : float;
  mean_gap_bits : float;
  frame_bits : int;
  n_frames : int;
  n_bursts : int;
  observed_error_rate : float;
  model_error_rate : float;
  observed_p_err_given_err : float;
  model_p_err_given_err : float;
}

(* Burst segmentation: maximal regions starting and ending on an errored
   frame whose internal clean runs are <= close_gap frames. Returns
   (burst lengths, gap lengths between consecutive bursts), both in
   frames, inclusive of merged-over clean frames inside a burst. *)
let segments errors ~close_gap =
  let n = Array.length errors in
  let bursts = ref [] and gaps = ref [] in
  let i = ref 0 in
  let prev_end = ref (-1) in
  while !i < n do
    if not errors.(!i) then incr i
    else begin
      (* extend the burst: absorb clean runs of <= close_gap that are
         followed by another error *)
      let last_err = ref !i in
      let j = ref (!i + 1) in
      (try
         while !j < n do
           if errors.(!j) then begin
             last_err := !j;
             incr j
           end
           else begin
             (* measure this clean run *)
             let k = ref !j in
             while !k < n && not errors.(!k) do
               incr k
             done;
             if !k < n && !k - !j <= close_gap then j := !k else raise Exit
           end
         done
       with Exit -> ());
      let start = !i in
      bursts := (!last_err - start + 1) :: !bursts;
      if !prev_end >= 0 then gaps := (start - !prev_end - 1) :: !gaps;
      prev_end := !last_err;
      i := !last_err + 1
    end
  done;
  (List.rev !bursts, List.rev !gaps)

let mean xs =
  match xs with
  | [] -> nan
  | _ ->
      List.fold_left (fun a x -> a +. float_of_int x) 0. xs
      /. float_of_int (List.length xs)

let fit ?(burst_close_gap = 2) ~frame_bits data =
  if frame_bits <= 0 then invalid_arg "Calibrate.fit: frame_bits must be > 0";
  if burst_close_gap < 0 then
    invalid_arg "Calibrate.fit: burst_close_gap must be >= 0";
  let n = Array.length data in
  if n = 0 then Error "calibration: empty trace (0 frames)"
  else begin
    let errors = Array.map (fun f -> f <> Model.Clean) data in
    let n_err = Array.fold_left (fun a e -> if e then a + 1 else a) 0 errors in
    if n_err = 0 then
      Error
        (Printf.sprintf
           "calibration: degenerate all-clean trace (%d frames, 0 errors): no \
            burst structure to fit; use Error_model.perfect or a uniform model"
           n)
    else if n_err = n then
      Error
        (Printf.sprintf
           "calibration: degenerate all-bad trace (%d frames, every frame \
            errored): no gap structure to fit; the chain never visits the good \
            state"
           n)
    else begin
      let bursts, gaps = segments errors ~close_gap:burst_close_gap in
      let n_bursts = List.length bursts in
      if n_bursts < 2 then
        Error
          (Printf.sprintf
             "calibration: only %d burst in %d frames — need at least 2 to \
              estimate the gap (good-state sojourn) distribution; record a \
              longer trace"
             n_bursts n)
      else begin
        let mean_burst_frames = mean bursts in
        let mean_gap_frames = mean gaps in
        if not (mean_gap_frames > 0.) then
          Error
            "calibration: zero-length gaps after burst merging — raise \
             burst_close_gap or record a sparser trace"
        else begin
          let fbits = float_of_int frame_bits in
          let mean_burst_bits = mean_burst_frames *. fbits in
          let mean_gap_bits = mean_gap_frames *. fbits in
          (* in-burst frame-error density -> bad-state BER *)
          let in_burst_frames =
            List.fold_left (fun a b -> a + b) 0 bursts
          in
          let density =
            float_of_int n_err /. float_of_int (max in_burst_frames 1)
          in
          let density = Float.min density 0.999_999 in
          let ber_bad =
            Error_model.ber_for_frame_error_prob ~bits:frame_bits ~fer:density
          in
          let observed_error_rate = float_of_int n_err /. float_of_int n in
          (* measured P[err at i+1 | err at i] *)
          let pairs = ref 0 and both = ref 0 in
          for i = 0 to n - 2 do
            if errors.(i) then begin
              incr pairs;
              if errors.(i + 1) then incr both
            end
          done;
          let observed_p_err_given_err =
            if !pairs = 0 then 0. else float_of_int !both /. float_of_int !pairs
          in
          (* fitted chain, same statistics: stationary error rate and the
             sojourn-survival approximation of the lag-1 conditional *)
          let pi_bad =
            mean_burst_bits /. (mean_burst_bits +. mean_gap_bits)
          in
          let model_error_rate = pi_bad *. density in
          let p_stay = exp (-.fbits /. mean_burst_bits) in
          let model_p_err_given_err = p_stay *. density in
          Ok
            {
              ber_good = 0.;
              ber_bad;
              mean_burst_bits;
              mean_gap_bits;
              frame_bits;
              n_frames = n;
              n_bursts;
              observed_error_rate;
              model_error_rate;
              observed_p_err_given_err;
              model_p_err_given_err;
            }
        end
      end
    end
  end

let rel_err ~observed ~model =
  if observed = 0. && model = 0. then 0.
  else abs_float (model -. observed) /. Float.max (abs_float observed) 1e-12

let residual f =
  Float.max
    (rel_err ~observed:f.observed_error_rate ~model:f.model_error_rate)
    (rel_err ~observed:f.observed_p_err_given_err ~model:f.model_p_err_given_err)

let describe f =
  Printf.sprintf
    "gilbert-elliott fit over %d frames (%d bursts, frame=%db):\n\
    \  ber_bad=%.3g ber_good=%g mean_burst_bits=%.0f mean_gap_bits=%.0f\n\
    \  residuals: P(err) %.4f obs vs %.4f fit; P(err|err) %.4f obs vs %.4f \
     fit; max rel err %.3f"
    f.n_frames f.n_bursts f.frame_bits f.ber_bad f.ber_good f.mean_burst_bits
    f.mean_gap_bits f.observed_error_rate f.model_error_rate
    f.observed_p_err_given_err f.model_p_err_given_err (residual f)
