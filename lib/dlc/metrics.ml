type t = {
  mutable offered : int;
  mutable refused : int;
  mutable iframes_sent : int;
  mutable retransmissions : int;
  mutable control_sent : int;
  mutable naks_sent : int;
  mutable delivered : int;
  mutable duplicates : int;
  mutable duplicate_arrivals : int;
  mutable payload_bytes_delivered : int;
  mutable released : int;
  mutable failures_detected : int;
  mutable enforced_recoveries : int;
  holding_time : Stats.Online.t;
  delivery_delay : Stats.Online.t;
  send_buffer : Stats.Online.t;
  recv_buffer : Stats.Online.t;
  mutable send_buffer_peak : int;
  mutable recv_buffer_peak : int;
  span : float array;
      (* [| first offer; last delivery |], nan until set: a float array
         element is stored unboxed, a mutable float field of this mixed
         record would box on every store *)
}

let create () =
  {
    offered = 0;
    refused = 0;
    iframes_sent = 0;
    retransmissions = 0;
    control_sent = 0;
    naks_sent = 0;
    delivered = 0;
    duplicates = 0;
    duplicate_arrivals = 0;
    payload_bytes_delivered = 0;
    released = 0;
    failures_detected = 0;
    enforced_recoveries = 0;
    holding_time = Stats.Online.create ();
    delivery_delay = Stats.Online.create ();
    send_buffer = Stats.Online.create ();
    recv_buffer = Stats.Online.create ();
    send_buffer_peak = 0;
    recv_buffer_peak = 0;
    span = [| nan; nan |];
  }

let[@inline] first_offer_time t = Array.unsafe_get t.span 0

let[@inline] last_delivery_time t = Array.unsafe_get t.span 1

let[@inline] set_first_offer_time t time = Array.unsafe_set t.span 0 time

let[@inline] set_last_delivery_time t time = Array.unsafe_set t.span 1 time

let sample_send_buffer t n =
  Stats.Online.add t.send_buffer (float_of_int n);
  if n > t.send_buffer_peak then t.send_buffer_peak <- n

let sample_recv_buffer t n =
  Stats.Online.add t.recv_buffer (float_of_int n);
  if n > t.recv_buffer_peak then t.recv_buffer_peak <- n

let unique_delivered t = t.delivered - t.duplicates

let loss t = t.offered - t.refused - unique_delivered t

let elapsed t =
  let first = first_offer_time t and last = last_delivery_time t in
  if Float.is_nan first || Float.is_nan last then 0. else last -. first

let throughput_efficiency t ~iframe_time =
  let span = elapsed t in
  if span <= 0. then 0.
  else float_of_int (unique_delivered t) *. iframe_time /. span

let pp ppf t =
  Format.fprintf ppf
    "offered=%d refused=%d sent=%d retx=%d ctrl=%d naks=%d delivered=%d \
     dup=%d dup_arr=%d released=%d loss=%d failures=%d enforced=%d@\n\
     holding: %a@\ndelay:   %a@\nsendbuf: %a peak=%d@\nrecvbuf: %a peak=%d"
    t.offered t.refused t.iframes_sent t.retransmissions t.control_sent
    t.naks_sent t.delivered t.duplicates t.duplicate_arrivals t.released (loss t)
    t.failures_detected t.enforced_recoveries Stats.Online.pp t.holding_time
    Stats.Online.pp t.delivery_delay Stats.Online.pp t.send_buffer
    t.send_buffer_peak Stats.Online.pp t.recv_buffer t.recv_buffer_peak
