type mode = Multiphase | Continuous

type t = {
  mode : mode;
  report_interval : float;
  batch_size : int;
  resend_timeout : float;
  t_proc : float;
  send_buffer_capacity : int;
  max_retries : int;
  max_report_misses : int;
  retx_cooldown : float;
  guard : Dlc.Guard.config option;
}

let default =
  {
    mode = Continuous;
    report_interval = 2e-3;
    batch_size = 512;
    resend_timeout = 60e-3;
    t_proc = 10e-6;
    send_buffer_capacity = 1_000_000;
    max_retries = 10;
    max_report_misses = 512;
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
  else if not (t.t_proc >= 0.) then err "t_proc must be >= 0 (got %g)" t.t_proc
  else if t.send_buffer_capacity < 1 then
    err "send_buffer_capacity must be >= 1 (got %d)" t.send_buffer_capacity
  else if t.max_retries < 1 then err "max_retries must be >= 1 (got %d)" t.max_retries
  else if t.max_report_misses < 1 then
    err "max_report_misses must be >= 1 (got %d)" t.max_report_misses
  else if not (t.retx_cooldown >= 0.) then
    err "retx_cooldown must be >= 0 (got %g)" t.retx_cooldown
  else Result.map (fun () -> t) (Dlc.Guard.validate_opt t.guard)
