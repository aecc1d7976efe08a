type mode = Multiphase | Continuous

type t = {
  mode : mode;
  report_interval : float;
  batch_size : int;
  resend_timeout : float;
  send_buffer_capacity : int;
  retx_cooldown : float;
  guard : Dlc.Guard.config option;
}

let default =
  {
    mode = Continuous;
    report_interval = 2e-3;
    batch_size = 512;
    resend_timeout = 60e-3;
    send_buffer_capacity = 1_000_000;
    retx_cooldown = 30e-3;
    guard = None;
  }

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if not (t.report_interval > 0.) then
    err "report_interval must be > 0 (got %g)" t.report_interval
  else if t.batch_size < 1 then err "batch_size must be >= 1 (got %d)" t.batch_size
  else if not (t.resend_timeout > 0.) then
    err "resend_timeout must be > 0 (got %g)" t.resend_timeout
  else if t.send_buffer_capacity < 1 then
    err "send_buffer_capacity must be >= 1 (got %d)" t.send_buffer_capacity
  else if not (t.retx_cooldown >= 0.) then
    err "retx_cooldown must be >= 0 (got %g)" t.retx_cooldown
  else Ok t
