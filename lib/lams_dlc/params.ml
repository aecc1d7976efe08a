type t = {
  w_cp : float;
  c_depth : int;
  t_proc : float;
  send_buffer_capacity : int;
  recv_high_watermark : int;
  recv_low_watermark : int;
  recv_drain_rate : float option;
  rate_decrease_factor : float;
  rate_increase_step : float;
  min_rate_factor : float;
  request_nak_retries : int;
  link_lifetime_end : float option;
  coverage_margin : float;
  guard : Dlc.Guard.config option;
}

let default =
  {
    w_cp = 5e-3;
    c_depth = 3;
    t_proc = 10e-6;
    send_buffer_capacity = 1_000_000;
    recv_high_watermark = 4096;
    recv_low_watermark = 1024;
    recv_drain_rate = None;
    rate_decrease_factor = 0.5;
    rate_increase_step = 0.1;
    min_rate_factor = 0.05;
    request_nak_retries = 3;
    link_lifetime_end = None;
    coverage_margin = 1e-6;
    guard = None;
  }

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if not (t.w_cp > 0.) then err "w_cp must be > 0 (got %g)" t.w_cp
  else if t.c_depth < 1 then err "c_depth must be >= 1 (got %d)" t.c_depth
  else if not (t.t_proc >= 0.) then err "t_proc must be >= 0 (got %g)" t.t_proc
  else if t.send_buffer_capacity < 1 then
    err "send_buffer_capacity must be >= 1 (got %d)" t.send_buffer_capacity
  else if t.recv_low_watermark < 0 || t.recv_high_watermark < t.recv_low_watermark
  then err "watermarks must satisfy 0 <= low <= high"
  else if not (t.rate_decrease_factor > 0. && t.rate_decrease_factor < 1.) then
    err "rate_decrease_factor must be in (0,1) (got %g)" t.rate_decrease_factor
  else if not (t.rate_increase_step > 0.) then
    err "rate_increase_step must be > 0 (got %g)" t.rate_increase_step
  else if not (t.min_rate_factor > 0. && t.min_rate_factor <= 1.) then
    err "min_rate_factor must be in (0,1] (got %g)" t.min_rate_factor
  else if t.request_nak_retries < 0 then
    err "request_nak_retries must be >= 0 (got %d)" t.request_nak_retries
  else if not (t.coverage_margin >= 0.) then
    err "coverage_margin must be >= 0 (got %g)" t.coverage_margin
  else
    match t.recv_drain_rate with
    | Some r when not (Float.is_finite r && r > 0.) ->
        err "recv_drain_rate must be finite and > 0 (got %g)" r
    | _ -> Result.map (fun () -> t) (Dlc.Guard.validate_opt t.guard)

let checkpoint_timeout t = float_of_int t.c_depth *. t.w_cp

(* Doubling backoff: attempt k waits 2^k checkpoint timeouts for the
   Enforced-NAK before giving the Request-NAK another go. The shift is
   clamped so absurd retry budgets cannot overflow to infinity. *)
let request_nak_backoff t ~attempt =
  if attempt < 0 then invalid_arg "request_nak_backoff: negative attempt";
  Float.ldexp (checkpoint_timeout t) (min attempt 60)

let failure_declaration_bound t ~response =
  let rec sum k acc =
    if k > t.request_nak_retries then acc
    else sum (k + 1) (acc +. response +. request_nak_backoff t ~attempt:k)
  in
  sum 0 0.

let resolving_period t ~rtt =
  rtt +. (0.5 *. t.w_cp) +. (float_of_int t.c_depth *. t.w_cp)

let holding_bound t ~rtt ~data_rate_bps =
  resolving_period t ~rtt +. t.w_cp +. (65536. /. data_rate_bps) +. 1e-3
