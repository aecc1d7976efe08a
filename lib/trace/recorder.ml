(* A ring of flat columns. Every slot has a tag ({!Event.tag}) and a
   time; the per-frame probe kinds keep their fields in [seqs] and
   [payloads], every other kind keeps its event in [rares]. An [Event.t]
   is built only for the sink or a flight freeze. *)

type rare =
  | Kind of Event.kind
  | Fault_hit of { link : string; action : string; frame : Frame.Wire.t }
      (** formatted into an [Event.Fault] when an event is built *)

(* Ring size: the events a flight dump holds before its violation. *)
let capacity = 512

type t = {
  tags : int array;
  seqs : int array;
  payloads : Frame.Payload.t array;
  times : float array;
  rares : rare array;
  mutable pos : int;  (* slot of the next event *)
  mutable next : int;  (* monotone event index *)
  mutable sink : (Event.t -> unit) option;
  mutable flight : Event.t list option;
  mutable violations : int;
  metrics : Metrics.t;
  at : float array;  (* one element: the time of a rare event *)
}

let create ?name:_ () =
  {
    tags = Array.make capacity 0;
    seqs = Array.make capacity 0;
    payloads = Array.make capacity Frame.Payload.empty;
    times = Array.make capacity 0.;
    rares = Array.make capacity (Kind (Event.Violation { invariant = ""; detail = "" }));
    pos = 0;
    next = 0;
    sink = None;
    flight = None;
    violations = 0;
    metrics = Metrics.create ();
    at = [| 0. |];
  }

let set_sink t f = t.sink <- Some f

let event_at t k i =
  let seq = t.seqs.(k) and payload = t.payloads.(k) in
  let kind =
    match t.tags.(k) with
    | 0 -> Event.Probe (Dlc.Probe.Offered { payload })
    | (1 | 2) as tag -> Event.Probe (Dlc.Probe.Tx { seq; payload; retx = tag = 2 })
    | 3 -> Event.Probe (Dlc.Probe.Released { seq; payload })
    | 4 -> Event.Probe (Dlc.Probe.Requeued { seq; payload })
    | 5 -> Event.Probe (Dlc.Probe.Delivered { seq; payload })
    | _ -> (
        match t.rares.(k) with
        | Kind kind -> kind
        | Fault_hit { link; action; frame } ->
            Event.Fault
              { link; action; frame = Format.asprintf "%a" Frame.Wire.pp frame })
  in
  { Event.i; time = t.times.(k); kind }

let ring_events t =
  (* event [i] sits in slot [i mod capacity] *)
  let n = min t.next capacity in
  List.init n (fun j ->
      let i = t.next - n + j in
      event_at t (i mod capacity) i)

(* Claim the next slot for an event at [at.(0)]; returns it. *)
let[@inline] claim t at tag =
  let k = t.pos in
  Array.unsafe_set t.tags k tag;
  Array.unsafe_set t.times k (Array.unsafe_get at 0);
  t.pos <- (if k + 1 = capacity then 0 else k + 1);
  t.next <- t.next + 1;
  k

let to_sink t k = match t.sink with None -> () | Some f -> f (event_at t k (t.next - 1))

let frame_event t at tag seq payload =
  let k = claim t at tag in
  Array.unsafe_set t.seqs k seq;
  Array.unsafe_set t.payloads k payload;
  to_sink t k

let rare_event t at tag rare =
  let k = claim t at tag in
  t.rares.(k) <- rare;
  Metrics.count_tag t.metrics tag;
  if tag = Event.tag_violation then begin
    t.violations <- t.violations + 1;
    if t.flight = None then t.flight <- Some (ring_events t)
  end;
  to_sink t k

let attach_probe t probe =
  Dlc.Probe.listen probe
    {
      offered =
        (fun payload ->
          Metrics.count_tag t.metrics Event.tag_offered;
          frame_event t (Dlc.Probe.clock probe) Event.tag_offered 0 payload);
      tx =
        (fun ~seq ~payload ~retx ->
          let at = Dlc.Probe.clock probe in
          Metrics.tx t.metrics ~at ~seq ~retx;
          frame_event t at (Event.tag_tx ~retx) seq payload);
      released =
        (fun ~seq ~payload ->
          let at = Dlc.Probe.clock probe in
          Metrics.released t.metrics ~at ~seq;
          frame_event t at Event.tag_released seq payload);
      requeued =
        (fun ~seq ~payload ->
          let at = Dlc.Probe.clock probe in
          Metrics.requeued t.metrics ~at ~seq;
          frame_event t at Event.tag_requeued seq payload);
      delivered =
        (fun ~seq ~payload ->
          Metrics.count_tag t.metrics Event.tag_delivered;
          frame_event t (Dlc.Probe.clock probe) Event.tag_delivered seq payload);
      cp_emitted =
        (fun ~cp_seq ~next_expected ~enforced ~stop_go ~naks ->
          let at = Dlc.Probe.clock probe in
          Metrics.cp_emitted t.metrics ~at ~naks;
          let k = claim t at (Event.tag_cp ~naks) in
          t.rares.(k) <-
            Kind
              (Event.Probe
                 (Dlc.Probe.Cp_emitted
                    { cp_seq; next_expected; enforced; stop_go; naks }));
          to_sink t k);
      other =
        (fun ~now ev ->
          t.at.(0) <- now;
          rare_event t t.at (Event.probe_tag ev) (Kind (Event.Probe ev)));
    }

let attach_fault t ~link fault =
  Channel.Fault.set_observer fault (fun ~now action frame ->
      t.at.(0) <- now;
      rare_event t t.at Event.tag_fault
        (Fault_hit { link; action = Channel.Fault.action_name action; frame }))

let attach_oracle t oracle =
  Oracle.set_on_violation oracle (fun v ->
      (* finalize-time violations carry no simulated instant (nan); -1
         marks them while keeping every trace timestamp JSON-finite *)
      t.at.(0) <- (if Float.is_finite v.Oracle.time then v.Oracle.time else -1.);
      rare_event t t.at Event.tag_violation
        (Kind
           (Event.Violation
              { invariant = v.Oracle.invariant; detail = v.Oracle.detail })))

let events_recorded t = t.next

let flight t = t.flight

let flight_jsonl t =
  Option.map
    (fun events ->
      let b = Buffer.create 4096 in
      List.iter
        (fun e ->
          Buffer.add_string b (Event.to_line e);
          Buffer.add_char b '\n')
        events;
      Buffer.contents b)
    t.flight

let metrics t = t.metrics
