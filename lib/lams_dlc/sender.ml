let src = Logs.Src.create "lams_dlc.sender" ~doc:"LAMS-DLC sender"

module Log = (val Logs.src_log src : Logs.LOG)

(* The ring slot of a resolved frame. *)
let resolved = -1

type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  forward : Channel.Link.t;
  metrics : Dlc.Metrics.t;
  probe : Dlc.Probe.t;
  mutable next_seq : int;
  (* The sending buffer: each buffered payload holds a slot, an index
     into these flat columns, from [offer] until its release. A slot's
     instants stay unboxed in float arrays. *)
  mutable payloads : Frame.Payload.t array;
  mutable offer_at : float array;
  mutable first_tx_at : float array;  (* nan until the first transmission *)
  mutable free : int array;  (* a stack of the [n_free] free slots *)
  mutable n_free : int;
  (* Transmitted frames in transmission order, which is ascending seq: a
     ring of parallel columns, [ring_len] entries from [ring_head]. A
     resolved frame's entry holds [resolved] until it reaches the front. *)
  mutable ring_seq : int array;
  mutable ring_slot : int array;
  mutable ring_arrival : float array;  (* predicted arrival at the receiver *)
  mutable ring_head : int;
  mutable ring_len : int;
  mutable live : int;  (* unresolved entries *)
  fresh : Dlc.Fifo.t;  (* slots of never-transmitted payloads *)
  retx : Dlc.Fifo.t;  (* awaiting retransmission *)
  rate_factor : float array;  (* one element: written per checkpoint, unboxed *)
  next_allowed_tx : float array;  (* one element: written per frame, unboxed *)
  mutable wakeup_scheduled : bool;
  mutable halted : bool;
  mutable failed : bool;
  mutable stopped : bool;
  mutable request_nak_attempts : int;
  mutable on_failure : (unit -> unit) option;
  mutable span_peak : int;
  mutable cp_timer : Sim.Timer.t option;
  mutable failure_timer : Sim.Timer.t option;
  mutable cp_timer_started : bool;
  mutable got_first_cp : bool;
  mutable last_request_nak : float;
  mutable wakeup_fn : unit -> unit;  (* allocated once at [create] *)
}

(* --- buffer slots ------------------------------------------------------- *)

let[@inline never] grow_slots t =
  let cap = Array.length t.payloads in
  let payloads = Array.make (2 * cap) Frame.Payload.empty
  and offer_at = Array.make (2 * cap) nan
  and first_tx_at = Array.make (2 * cap) nan
  and free = Array.make (2 * cap) 0 in
  Array.blit t.payloads 0 payloads 0 cap;
  Array.blit t.offer_at 0 offer_at 0 cap;
  Array.blit t.first_tx_at 0 first_tx_at 0 cap;
  Array.blit t.free 0 free 0 t.n_free;
  for s = (2 * cap) - 1 downto cap do
    free.(t.n_free) <- s;
    t.n_free <- t.n_free + 1
  done;
  t.payloads <- payloads;
  t.offer_at <- offer_at;
  t.first_tx_at <- first_tx_at;
  t.free <- free

(* A fresh slot holding [payload]; the caller sets its instants. *)
let alloc_slot t payload =
  if t.n_free = 0 then grow_slots t;
  t.n_free <- t.n_free - 1;
  let s = Array.unsafe_get t.free t.n_free in
  Array.unsafe_set t.payloads s payload;
  s

let free_slot t s =
  Array.unsafe_set t.payloads s Frame.Payload.empty;
  Array.unsafe_set t.free t.n_free s;
  t.n_free <- t.n_free + 1

(* --- the outstanding ring --------------------------------------------- *)

(* Physical index of the [i]-th entry from the front; capacity is a power
   of two. *)
let slot t i = (t.ring_head + i) land (Array.length t.ring_seq - 1)

let[@inline never] grow_ring t =
  let cap = Array.length t.ring_seq in
  let seqs = Array.make (2 * cap) 0
  and slots = Array.make (2 * cap) resolved
  and arrivals = Array.make (2 * cap) 0. in
  for i = 0 to cap - 1 do
    let j = slot t i in
    seqs.(i) <- t.ring_seq.(j);
    slots.(i) <- t.ring_slot.(j);
    arrivals.(i) <- t.ring_arrival.(j)
  done;
  t.ring_seq <- seqs;
  t.ring_slot <- slots;
  t.ring_arrival <- arrivals;
  t.ring_head <- 0

(* Inlined into [transmit], so [arrival] is not boxed. *)
let[@inline] push t seq s arrival =
  if t.ring_len = Array.length t.ring_seq then grow_ring t;
  let j = slot t t.ring_len in
  Array.unsafe_set t.ring_seq j seq;
  Array.unsafe_set t.ring_slot j s;
  Array.unsafe_set t.ring_arrival j arrival;
  t.ring_len <- t.ring_len + 1;
  t.live <- t.live + 1

(* The buffer slot of ring entry [j], which is then resolved. *)
let resolve t j =
  let s = t.ring_slot.(j) in
  t.ring_slot.(j) <- resolved;
  t.live <- t.live - 1;
  s

(* Drop resolved entries from the front; afterwards the front, if any, is
   the oldest unresolved frame. *)
let rec trim t =
  if t.ring_len > 0 && t.ring_slot.(t.ring_head) = resolved then begin
    t.ring_head <- slot t 1;
    t.ring_len <- t.ring_len - 1;
    trim t
  end

(* Physical index of the unresolved entry holding [seq], or -1. Seqs in
   the ring ascend by one except across a [scramble_send_seq] gap, so
   [seq] is first looked for [seq - front] entries from the front; a
   binary search finds it when a gap lies in between. A seq below the
   front, as most of a checkpoint's repeated NAKs are, is not in the
   ring at all. *)
let find t seq =
  let i =
    if t.ring_len = 0 then -1
    else
      let i = seq - t.ring_seq.(t.ring_head) in
      if i < 0 then -1
      else if i < t.ring_len && t.ring_seq.(slot t i) = seq then i
      else begin
        let lo = ref 0 and hi = ref t.ring_len in
        while !lo < !hi do
          let mid = (!lo + !hi) lsr 1 in
          if t.ring_seq.(slot t mid) < seq then lo := mid + 1 else hi := mid
        done;
        !lo
      end
  in
  if i < 0 || i >= t.ring_len then -1
  else begin
    let j = slot t i in
    if t.ring_seq.(j) = seq && t.ring_slot.(j) <> resolved then j else -1
  end

let backlog t = Dlc.Fifo.length t.fresh + Dlc.Fifo.length t.retx + t.live

let outstanding t = t.live

let outstanding_span_peak t = t.span_peak

let rate_factor t = Array.unsafe_get t.rate_factor 0

let halted t = t.halted

let failed t = t.failed

let set_on_failure t f = t.on_failure <- Some f

let note_delivered t seq =
  let j = find t seq in
  if j >= 0 then
    Stats.Online.add t.metrics.Dlc.Metrics.delivery_delay
      (Sim.Engine.now t.engine -. t.offer_at.(t.ring_slot.(j)))

let sample_buffer t = Dlc.Metrics.sample_send_buffer t.metrics (backlog t)

let emit t ev = Dlc.Probe.emit t.probe ~now:(Sim.Engine.now t.engine) ev

(* Track the numbering span actually in use: oldest live outstanding seq
   (the front of the ring) to next_seq-1. *)
let update_span t =
  trim t;
  if t.ring_len > 0 then begin
    let span = t.next_seq - t.ring_seq.(t.ring_head) in
    if span > t.span_peak then t.span_peak <- span
  end

(* --- transmission ------------------------------------------------------- *)

let rec maybe_send t =
  if (not t.failed) && not t.stopped then begin
    (* retransmissions first; new frames only when not halted *)
    let is_retx = not (Dlc.Fifo.is_empty t.retx) in
    if
      (is_retx || ((not t.halted) && not (Dlc.Fifo.is_empty t.fresh)))
      && not (Channel.Link.busy t.forward)
      (* a busy link's on_idle callback re-enters maybe_send *)
    then begin
      let now = Sim.Engine.now t.engine in
      if now < Array.unsafe_get t.next_allowed_tx 0 then schedule_wakeup t
      else transmit t (Dlc.Fifo.pop (if is_retx then t.retx else t.fresh)) ~is_retx
    end
  end

and schedule_wakeup t =
  if not t.wakeup_scheduled then begin
    t.wakeup_scheduled <- true;
    let delay =
      Array.unsafe_get t.next_allowed_tx 0 -. Sim.Engine.now t.engine
    in
    ignore (Sim.Engine.schedule t.engine ~delay t.wakeup_fn : Sim.Engine.event_id)
  end

and transmit t s ~is_retx =
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  let payload = Array.unsafe_get t.payloads s in
  let iframe = Frame.Iframe.create ~seq ~payload in
  let wire = Frame.Wire.Data iframe in
  let now = Sim.Engine.now t.engine in
  let tx = Channel.Link.tx_time t.forward wire in
  let departure = now +. tx in
  let arrival_estimate =
    departure +. Channel.Link.propagation_delay t.forward ~at:departure
  in
  if Float.is_nan (Array.unsafe_get t.first_tx_at s) then
    Array.unsafe_set t.first_tx_at s now;
  push t seq s arrival_estimate;
  update_span t;
  if is_retx then
    t.metrics.Dlc.Metrics.retransmissions <-
      t.metrics.Dlc.Metrics.retransmissions + 1
  else t.metrics.Dlc.Metrics.iframes_sent <- t.metrics.Dlc.Metrics.iframes_sent + 1;
  Dlc.Probe.tx t.probe ~seq ~payload ~retx:is_retx;
  Channel.Link.send t.forward wire;
  (* Stop-Go pacing: at full rate the next frame may follow back-to-back;
     a reduced rate factor stretches the inter-frame spacing. *)
  Array.unsafe_set t.next_allowed_tx 0
    (now +. (tx /. Array.unsafe_get t.rate_factor 0));
  (* the checkpoint timer must run from the first transmission so a link
     that never produces a single checkpoint is also detected *)
  start_cp_timer_if_needed t;
  maybe_send t

(* --- failure handling --------------------------------------------------- *)

and declare_failure t =
  if not t.failed then begin
    t.failed <- true;
    t.halted <- true;
    t.metrics.Dlc.Metrics.failures_detected <-
      t.metrics.Dlc.Metrics.failures_detected + 1;
    (match t.cp_timer with Some timer -> Sim.Timer.stop timer | None -> ());
    (match t.failure_timer with Some timer -> Sim.Timer.stop timer | None -> ());
    Log.info (fun m -> m "link declared failed at %g" (Sim.Engine.now t.engine));
    emit t Dlc.Probe.Failure_declared;
    match t.on_failure with None -> () | Some f -> f ()
  end

and expected_response_time t =
  (* request-NAK flight + immediate enforced-NAK flight + processing *)
  let now = Sim.Engine.now t.engine in
  let rtt = 2. *. Channel.Link.propagation_delay t.forward ~at:now in
  let tx_req =
    Channel.Link.tx_time t.forward
      (Frame.Wire.Control (Frame.Cframe.request_nak ~issue_time:now))
  in
  rtt +. tx_req +. (2. *. Params.t_proc)

and initiate_enforced_recovery t =
  if (not t.failed) && not t.stopped then begin
    let now = Sim.Engine.now t.engine in
    t.last_request_nak <- now;
    let response = expected_response_time t in
    let unreachable =
      match t.params.Params.link_lifetime_end with
      | Some end_t -> now +. response > end_t
      | None -> false
    in
    if unreachable then declare_failure t
    else begin
      t.halted <- true;
      emit t Dlc.Probe.Recovery_started;
      t.metrics.Dlc.Metrics.enforced_recoveries <-
        t.metrics.Dlc.Metrics.enforced_recoveries + 1;
      t.metrics.Dlc.Metrics.control_sent <- t.metrics.Dlc.Metrics.control_sent + 1;
      Channel.Link.send t.forward
        (Frame.Wire.Control (Frame.Cframe.request_nak ~issue_time:now));
      let timeout =
        response
        +. Params.request_nak_backoff t.params ~attempt:t.request_nak_attempts
      in
      let timer =
        match t.failure_timer with
        | Some timer ->
            Sim.Timer.set_duration timer timeout;
            timer
        | None ->
            let timer =
              Sim.Timer.create t.engine ~duration:timeout ~on_expire:(fun () ->
                  on_failure_timeout t)
            in
            t.failure_timer <- Some timer;
            timer
      in
      Sim.Timer.start timer
    end
  end

and on_failure_timeout t =
  if t.request_nak_attempts < t.params.Params.request_nak_retries then begin
    t.request_nak_attempts <- t.request_nak_attempts + 1;
    initiate_enforced_recovery t
  end
  else declare_failure t

and start_cp_timer_if_needed t =
  if not t.cp_timer_started then begin
    t.cp_timer_started <- true;
    (* The paper starts the checkpoint timer at the first checkpoint
       reception; to also detect a link that is dead from the outset, the
       timer runs from the first transmission with an allowance for the
       first checkpoint's journey (one W_cp plus the one-way flight). *)
    let first_allowance =
      Channel.Link.propagation_delay t.forward ~at:(Sim.Engine.now t.engine)
      +. t.params.Params.w_cp
    in
    let timer =
      Sim.Timer.create t.engine
        ~duration:(first_allowance +. Params.checkpoint_timeout t.params)
        ~on_expire:(fun () -> initiate_enforced_recovery t)
    in
    t.cp_timer <- Some timer;
    Sim.Timer.start timer
  end

(* --- checkpoint processing ---------------------------------------------- *)

(* Both resolve the frame in ring entry [j], which holds [seq]. *)
let release t j seq =
  let s = resolve t j in
  t.metrics.Dlc.Metrics.released <- t.metrics.Dlc.Metrics.released + 1;
  Dlc.Probe.released t.probe ~seq ~payload:t.payloads.(s);
  Stats.Online.add t.metrics.Dlc.Metrics.holding_time
    (Sim.Engine.now t.engine -. t.first_tx_at.(s));
  free_slot t s

let queue_retransmission t j seq =
  let s = resolve t j in
  Dlc.Probe.requeued t.probe ~seq ~payload:t.payloads.(s);
  Dlc.Fifo.push t.retx s

let requeue_naked t naks =
  for k = 0 to Array.length naks - 1 do
    let seq = Array.unsafe_get naks k in
    let j = find t seq in
    if j >= 0 then queue_retransmission t j seq
  done

(* Stop-Go's "predefined value" (§3.4): each Stop multiplies the rate
   factor by [rate_decrease_factor], down to [min_rate_factor]; each Go
   adds [rate_increase_step], up to 1. *)
let rate_decrease_factor = 0.5
let rate_increase_step = 0.1
let min_rate_factor = 0.05

let apply_stop_go t ~stop =
  let r = Array.unsafe_get t.rate_factor 0 in
  Array.unsafe_set t.rate_factor 0
    (if stop then Float.max min_rate_factor (r *. rate_decrease_factor)
     else Float.min 1. (r +. rate_increase_step))

(* Slack added to a frame's predicted arrival before a checkpoint is
   taken to cover it; absorbs processing jitter. *)
let coverage_margin = 1e-6

let on_checkpoint t (cp : Frame.Cframe.checkpoint) =
  (* any checkpoint proves the link alive *)
  start_cp_timer_if_needed t;
  (match t.cp_timer with
  | Some timer ->
      if not t.got_first_cp then begin
        t.got_first_cp <- true;
        Sim.Timer.set_duration timer (Params.checkpoint_timeout t.params)
      end;
      Sim.Timer.reset timer
  | None -> ());
  (* A non-enforced checkpoint while awaiting an Enforced-NAK proves the
     receiver alive — extend the failure deadline — and means our
     Request-NAK (or its answer) was lost in an outage: re-issue it,
     within the retry budget, paced by the same doubling backoff as the
     failure timer so a long gap doesn't burn the whole budget. *)
  (if
     t.halted && (not t.failed)
     && (not cp.Frame.Cframe.enforced)
     &&
     match t.failure_timer with
     | Some timer -> Sim.Timer.is_running timer
     | None -> false
   then begin
     (match t.failure_timer with
     | Some timer -> Sim.Timer.reset timer
     | None -> ());
     let now = Sim.Engine.now t.engine in
     if
       now -. t.last_request_nak
       > expected_response_time t
         +. Params.request_nak_backoff t.params ~attempt:t.request_nak_attempts
       && t.request_nak_attempts < t.params.Params.request_nak_retries
     then begin
       t.request_nak_attempts <- t.request_nak_attempts + 1;
       t.last_request_nak <- now;
       t.metrics.Dlc.Metrics.control_sent <- t.metrics.Dlc.Metrics.control_sent + 1;
       Channel.Link.send t.forward
         (Frame.Wire.Control (Frame.Cframe.request_nak ~issue_time:now))
     end
   end);
  (* 1. An Enforced-NAK completes an enforced recovery: un-halt before
     anything else so its (complete) NAK list governs the scan below. *)
  if cp.Frame.Cframe.enforced && t.halted && not t.failed then begin
    t.halted <- false;
    emit t Dlc.Probe.Recovery_completed;
    t.request_nak_attempts <- 0;
    match t.failure_timer with
    | Some timer -> Sim.Timer.stop timer
    | None -> ()
  end;
  (* 2. NAKed frames: retransmit on first notification only; a NAK whose
     seq is no longer outstanding has already been handled (§3.2). *)
  requeue_naked t cp.Frame.Cframe.naks;
  (* 3. Coverage: frames that must have reached the receiver before this
     checkpoint was issued are resolved by it — released when the
     receiver's next_expected moved past them, retransmitted when the
     receiver never saw them (tail loss). Suspended while halted: a
     regular checkpoint during enforced recovery may carry an already
     expired NAK window, so releases must wait for the Enforced-NAK. *)
  let changed = ref (Array.length cp.Frame.Cframe.naks > 0) in
  if not t.halted then begin
    let horizon =
      cp.Frame.Cframe.issue_time -. Params.t_proc -. coverage_margin
    in
    trim t;
    while t.ring_len > 0 && t.ring_arrival.(t.ring_head) <= horizon do
      let j = t.ring_head and seq = t.ring_seq.(t.ring_head) in
      changed := true;
      if seq < cp.Frame.Cframe.next_expected then release t j seq
      else queue_retransmission t j seq;
      trim t
    done
  end;
  if !changed then sample_buffer t;
  (* 4. Flow control. *)
  apply_stop_go t ~stop:cp.Frame.Cframe.stop_go;
  maybe_send t

let next_seq t = t.next_seq

let is_outstanding t seq = find t seq >= 0

(* Guard escalation hooks: a forced resync is exactly the enforced
   recovery the checkpoint timer would start, and the guard's failure
   declaration is the sender's own. *)
let force_resync t = initiate_enforced_recovery t

let force_failure t = declare_failure t

let on_rx t (rx : Channel.Link.rx) =
  match (rx.Channel.Link.frame, rx.Channel.Link.status) with
  | Frame.Wire.Control (Frame.Cframe.Checkpoint cp), Channel.Link.Rx_ok ->
      if not t.failed then on_checkpoint t cp
  | Frame.Wire.Control (Frame.Cframe.Request_nak _), _ ->
      Log.warn (fun m -> m "request-NAK arrived at a sender; ignored")
  | Frame.Wire.Control _, _ ->
      (* corrupted checkpoint: detected, dropped; cumulation covers it *)
      ()
  | Frame.Wire.Data _, _ ->
      Log.warn (fun m -> m "I-frame arrived on the reverse path; ignored")
  | Frame.Wire.Hdlc_control _, _ ->
      Log.warn (fun m -> m "HDLC control frame on a LAMS-DLC link; ignored")

let offer t payload =
  if t.failed || t.stopped then false
  else if backlog t >= t.params.Params.send_buffer_capacity then begin
    t.metrics.Dlc.Metrics.refused <- t.metrics.Dlc.Metrics.refused + 1;
    t.metrics.Dlc.Metrics.offered <- t.metrics.Dlc.Metrics.offered + 1;
    false
  end
  else begin
    let now = Sim.Engine.now t.engine in
    t.metrics.Dlc.Metrics.offered <- t.metrics.Dlc.Metrics.offered + 1;
    if Float.is_nan (Dlc.Metrics.first_offer_time t.metrics) then
      Dlc.Metrics.set_first_offer_time t.metrics now;
    Dlc.Probe.offered t.probe payload;
    let s = alloc_slot t payload in
    Array.unsafe_set t.offer_at s now;
    Array.unsafe_set t.first_tx_at s nan;
    Dlc.Fifo.push t.fresh s;
    sample_buffer t;
    maybe_send t;
    true
  end

let stop t =
  t.stopped <- true;
  (match t.cp_timer with Some timer -> Sim.Timer.stop timer | None -> ());
  match t.failure_timer with Some timer -> Sim.Timer.stop timer | None -> ()

type unresolved = {
  payload : Frame.Payload.t;
  offer_time : float;
  verdict : [ `Not_delivered | `Suspicious ];
}

let drain_unresolved t =
  (* oldest first: outstanding frames in transmission order (the ring),
     then queued retransmissions (all certainly undelivered), then
     never-transmitted frames *)
  let out = ref [] in
  let take s verdict =
    out :=
      { payload = t.payloads.(s); offer_time = t.offer_at.(s); verdict } :: !out;
    free_slot t s
  in
  for i = 0 to t.ring_len - 1 do
    let j = slot t i in
    if t.ring_slot.(j) <> resolved then take (resolve t j) `Suspicious
  done;
  t.ring_head <- 0;
  t.ring_len <- 0;
  List.iter
    (fun q ->
      for i = 0 to Dlc.Fifo.length q - 1 do
        take (Dlc.Fifo.nth q i) `Not_delivered
      done;
      Dlc.Fifo.clear q)
    [ t.retx; t.fresh ];
  sample_buffer t;
  List.rev !out

let create engine ~params ~forward ~metrics ~probe =
  Dlc.Probe.set_clock probe engine;
  let t =
    {
      engine;
      params;
      forward;
      metrics;
      probe;
      next_seq = 0;
      payloads = Array.make 64 Frame.Payload.empty;
      offer_at = Array.make 64 nan;
      first_tx_at = Array.make 64 nan;
      free = Array.init 64 (fun i -> 63 - i);
      n_free = 64;
      ring_seq = Array.make 64 0;
      ring_slot = Array.make 64 resolved;
      ring_arrival = Array.make 64 0.;
      ring_head = 0;
      ring_len = 0;
      live = 0;
      fresh = Dlc.Fifo.create ();
      retx = Dlc.Fifo.create ();
      rate_factor = [| 1. |];
      next_allowed_tx = [| 0. |];
      wakeup_scheduled = false;
      halted = false;
      failed = false;
      stopped = false;
      request_nak_attempts = 0;
      on_failure = None;
      span_peak = 0;
      cp_timer = None;
      failure_timer = None;
      cp_timer_started = false;
      got_first_cp = false;
      last_request_nak = neg_infinity;
      wakeup_fn = ignore;
    }
  in
  t.wakeup_fn <-
    (fun () ->
      t.wakeup_scheduled <- false;
      maybe_send t);
  Channel.Link.set_on_idle forward (fun () -> maybe_send t);
  t

(* --- state-corruption surface (Dolev et al. self-stabilisation) ---------- *)

let scramble_send_seq t ~delta =
  if t.failed || t.stopped || delta < 1 then None
  else begin
    let before = t.next_seq in
    t.next_seq <- t.next_seq + delta;
    Some (Printf.sprintf "sender next_seq %d -> %d" before t.next_seq)
  end

let duplicate_buffer_entry t =
  if t.failed || t.stopped then None
  else begin
    (* oldest live outstanding entry: the front of the ring *)
    trim t;
    if t.ring_len = 0 then None
    else begin
      (* The copy gets a slot of its own: the original's is freed when
         it is released. An outstanding frame's instants never change
         again, so the copy's are the same. *)
      let seq = t.ring_seq.(t.ring_head) and s = t.ring_slot.(t.ring_head) in
      let c = alloc_slot t t.payloads.(s) in
      t.offer_at.(c) <- t.offer_at.(s);
      t.first_tx_at.(c) <- t.first_tx_at.(s);
      Dlc.Fifo.push t.retx c;
      maybe_send t;
      Some
        (Printf.sprintf "duplicated unreleased seq %d into the retx queue" seq)
    end
  end
