type mode = Selective_repeat | Go_back_n

type t = {
  mode : mode;
  stutter : bool;
  seq_bits : int;
  window : int;
  t_out : float;
  send_buffer_capacity : int;
  guard : Dlc.Guard.config option;
}

let default =
  {
    mode = Selective_repeat;
    stutter = false;
    seq_bits = 7;
    window = 63;
    t_out = 50e-3;
    send_buffer_capacity = 1_000_000;
    guard = None;
  }

let modulus t = 1 lsl t.seq_bits

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.seq_bits < 1 || t.seq_bits > 30 then
    err "seq_bits must be in 1..30 (got %d)" t.seq_bits
  else if t.window < 1 then err "window must be >= 1 (got %d)" t.window
  else if t.mode = Selective_repeat && t.window > modulus t / 2 then
    err "SR window %d exceeds modulus/2 = %d" t.window (modulus t / 2)
  else if t.mode = Go_back_n && t.window > modulus t - 1 then
    err "GBN window %d exceeds modulus-1 = %d" t.window (modulus t - 1)
  else if not (t.t_out > 0.) then err "t_out must be > 0 (got %g)" t.t_out
  else if t.send_buffer_capacity < 1 then
    err "send_buffer_capacity must be >= 1 (got %d)" t.send_buffer_capacity
  else Ok t
