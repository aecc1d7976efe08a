(* Reference observers: the trace metrics, the base oracle's bookkeeping
   and the recorder's ring as they were written before the observer
   stack went flat. They keep per-payload records in a [Payload.Tbl],
   per-seq state in polymorphic [Hashtbl]s and a ring of [Event.t]
   values, and they subscribe to the probe with the variant callback.
   test_observers.ml runs them beside [Trace.Metrics], [Oracle] and
   [Trace.Recorder] on the same sessions and requires equal outputs.
   Convergence mode is left out: the property does not inject state
   corruption. *)

module Json = Bench_report.Json

(* --- Trace.Metrics -------------------------------------------------------- *)

module Metrics = struct
  type t = {
    mutable events : int;
    counts : (string, int) Hashtbl.t;
    holding : Stats.Histogram.t;
    nak_latency : Stats.Histogram.t;
    cp_occupancy : Stats.Histogram.t;
    last_tx : (int, float) Hashtbl.t;
    first_nak : (int, float) Hashtbl.t;
  }

  let create () =
    {
      events = 0;
      counts = Hashtbl.create 16;
      holding = Stats.Histogram.create ~lo:0. ~hi:0.5 ~bins:500;
      nak_latency = Stats.Histogram.create ~lo:0. ~hi:0.5 ~bins:500;
      cp_occupancy = Stats.Histogram.create ~lo:0. ~hi:64. ~bins:64;
      last_tx = Hashtbl.create 1024;
      first_nak = Hashtbl.create 256;
    }

  let bump t name =
    Hashtbl.replace t.counts name
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts name))

  let observe t (e : Trace.Event.t) =
    t.events <- t.events + 1;
    bump t (Trace.Event.tag_name (Trace.Event.tag e));
    match e.Trace.Event.kind with
    | Trace.Event.Probe (Dlc.Probe.Tx { seq; _ }) ->
        Hashtbl.replace t.last_tx seq e.Trace.Event.time
    | Trace.Event.Probe (Dlc.Probe.Released { seq; _ }) ->
        (match Hashtbl.find_opt t.last_tx seq with
        | Some t0 -> Stats.Histogram.add t.holding (e.Trace.Event.time -. t0)
        | None -> ());
        Hashtbl.remove t.last_tx seq;
        Hashtbl.remove t.first_nak seq
    | Trace.Event.Probe (Dlc.Probe.Requeued { seq; _ }) ->
        (match Hashtbl.find_opt t.first_nak seq with
        | Some t0 -> Stats.Histogram.add t.nak_latency (e.Trace.Event.time -. t0)
        | None -> ());
        Hashtbl.remove t.first_nak seq;
        Hashtbl.remove t.last_tx seq
    | Trace.Event.Probe (Dlc.Probe.Cp_emitted { naks; _ }) ->
        Stats.Histogram.add t.cp_occupancy (float_of_int (Array.length naks));
        Array.iter
          (fun seq ->
            if not (Hashtbl.mem t.first_nak seq) then
              Hashtbl.replace t.first_nak seq e.Trace.Event.time)
          naks
    | _ -> ()

  let sorted_counts t =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counts []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let hist_fields name h =
    let f = float_of_int in
    [
      (name ^ "_count", f (Stats.Histogram.count h));
      (name ^ "_mean", Stats.Histogram.mean_estimate h);
      (name ^ "_p50", Stats.Histogram.percentile h 50.);
      (name ^ "_p95", Stats.Histogram.percentile h 95.);
      (name ^ "_p99", Stats.Histogram.percentile h 99.);
      (name ^ "_overflow", f (Stats.Histogram.overflow h));
    ]

  let to_fields t =
    (("events", float_of_int t.events)
    :: List.map (fun (k, v) -> ("count_" ^ k, float_of_int v)) (sorted_counts t))
    @ hist_fields "holding" t.holding
    @ hist_fields "nak_latency" t.nak_latency
    @ hist_fields "cp_occupancy" t.cp_occupancy

  let hist_bins h =
    let rec go i acc =
      if i < 0 then acc
      else
        let n = Stats.Histogram.bin_count h i in
        if n = 0 then go (i - 1) acc
        else
          let lo, hi = Stats.Histogram.bin_bounds h i in
          go (i - 1)
            (Json.Obj
               [ ("lo", Json.Float lo); ("hi", Json.Float hi); ("n", Json.Int n) ]
            :: acc)
    in
    Json.List (go (Stats.Histogram.bins h - 1) [])

  let to_json t =
    Json.Obj
      (List.map (fun (k, v) -> (k, Json.Float v)) (to_fields t)
      @ [
          ("holding_bins", hist_bins t.holding);
          ("nak_latency_bins", hist_bins t.nak_latency);
          ("cp_occupancy_bins", hist_bins t.cp_occupancy);
        ])
end

(* --- Oracle, base mode ---------------------------------------------------- *)

module Oracle = struct
  type violation = Oracle.violation = {
    time : float;
    invariant : string;
    detail : string;
  }

  type prec = {
    mutable offer_index : int;
    mutable tx_count : int;
    mutable last_tx : float;
    mutable first_seq : int;
    mutable released : bool;
    mutable delivered : int;
  }

  type nak_run = { mutable last_r : int; mutable count : int }

  type t = {
    profile : Oracle.profile;
    mutable violations : violation list;
    mutable violation_count : int;
    payloads : prec Frame.Payload.Tbl.t;
    delivered_seq : (int, int) Hashtbl.t;
    tx_seq_used : (int, unit) Hashtbl.t;
    mutable last_tx_seq : int;
    mutable offer_counter : int;
    mutable last_delivered_offer : int;
    mutable inflight : int;
    mutable recovery_open : float option;
    mutable recovery_episodes : (float * float) list;
    mutable have_cp : bool;
    mutable last_cp_seq : int;
    mutable last_next_expected : int;
    mutable regular_cps : int;
    nak_runs : (int, nak_run) Hashtbl.t;
    mutable finalized : bool;
    mutable on_violation : (violation -> unit) option;
  }

  let max_recorded = 200

  let violate t ~time invariant detail =
    t.violation_count <- t.violation_count + 1;
    let v = { time; invariant; detail } in
    if t.violation_count <= max_recorded then t.violations <- v :: t.violations;
    match t.on_violation with None -> () | Some f -> f v

  let create profile =
    {
      profile;
      violations = [];
      violation_count = 0;
      payloads = Frame.Payload.Tbl.create 1024;
      delivered_seq = Hashtbl.create 1024;
      tx_seq_used = Hashtbl.create 1024;
      last_tx_seq = -1;
      offer_counter = 0;
      last_delivered_offer = -1;
      inflight = 0;
      recovery_open = None;
      recovery_episodes = [];
      have_cp = false;
      last_cp_seq = -1;
      last_next_expected = 0;
      regular_cps = 0;
      nak_runs = Hashtbl.create 256;
      finalized = false;
      on_violation = None;
    }

  let set_on_violation t f = t.on_violation <- Some f

  let find_or_add t payload =
    match Frame.Payload.Tbl.find_opt t.payloads payload with
    | Some r -> r
    | None ->
        let r =
          {
            offer_index = -1;
            tx_count = 0;
            last_tx = nan;
            first_seq = -1;
            released = false;
            delivered = 0;
          }
        in
        Frame.Payload.Tbl.replace t.payloads payload r;
        r

  let recovery_overlaps t ~lo ~hi =
    List.exists (fun (s, e) -> s <= hi && e >= lo) t.recovery_episodes
    || match t.recovery_open with Some s -> s <= hi | None -> false

  let short p =
    if Frame.Payload.length p <= 24 then Frame.Payload.to_string p
    else Frame.Payload.prefix p 24 ^ "..."

  let on_offered t payload =
    let r = find_or_add t payload in
    if r.offer_index < 0 then begin
      r.offer_index <- t.offer_counter;
      t.offer_counter <- t.offer_counter + 1
    end

  let on_tx t ~now ~seq ~payload ~retx =
    let r = find_or_add t payload in
    if r.tx_count = 0 then r.first_seq <- seq;
    r.tx_count <- r.tx_count + 1;
    r.last_tx <- now;
    (match t.profile with
    | Oracle.Lams _ ->
        if seq <= t.last_tx_seq then
          violate t ~time:now "seq-monotone"
            (Printf.sprintf "wire seq %d after %d: renumbering must keep the \
                             sequence stream strictly increasing"
               seq t.last_tx_seq);
        if seq > t.last_tx_seq then t.last_tx_seq <- seq;
        if Hashtbl.mem t.tx_seq_used seq then
          violate t ~time:now "seq-reuse"
            (Printf.sprintf "wire seq %d assigned to a second copy" seq)
        else Hashtbl.replace t.tx_seq_used seq ()
    | Oracle.Hdlc { window; seq_bits } ->
        let modulus = 1 lsl seq_bits in
        if seq < 0 || seq >= modulus then
          violate t ~time:now "seq-range"
            (Printf.sprintf "wire seq %d outside [0, %d)" seq modulus);
        if r.tx_count = 1 && not r.released then begin
          t.inflight <- t.inflight + 1;
          if t.inflight > window then
            violate t ~time:now "window-overflow"
              (Printf.sprintf "%d unacknowledged frames exceed window %d"
                 t.inflight window)
        end
    | Oracle.Nbdt ->
        if retx && seq <> r.first_seq then
          violate t ~time:now "seq-stable"
            (Printf.sprintf
               "retransmission of %s renumbered %d -> %d; NBDT numbers are \
                absolute"
               (short payload) r.first_seq seq));
    if r.released then
      violate t ~time:now "tx-after-release"
        (Printf.sprintf "copy of %s (seq %d) sent after its buffer slot was \
                         released"
           (short payload) seq)

  let on_released t ~now ~seq ~payload =
    let r = find_or_add t payload in
    if r.tx_count = 0 then
      violate t ~time:now "release-unsent"
        (Printf.sprintf "released %s (seq %d) without any transmission"
           (short payload) seq);
    if r.released then
      violate t ~time:now "double-release"
        (Printf.sprintf "second release of %s (seq %d)" (short payload) seq);
    if r.delivered = 0 then
      violate t ~time:now "released-undelivered"
        (Printf.sprintf
           "buffer slot of %s (seq %d) freed but the receiver never delivered \
            it: silent loss"
           (short payload) seq);
    (match t.profile with
    | Oracle.Lams { holding_bound; _ } ->
        if t.have_cp && seq >= t.last_next_expected then
          violate t ~time:now "release-before-ack"
            (Printf.sprintf
               "seq %d released but no checkpoint has advanced next_expected \
                past it (last advertised %d)"
               seq t.last_next_expected);
        let hold = now -. r.last_tx in
        if hold > holding_bound && not (recovery_overlaps t ~lo:r.last_tx ~hi:now)
        then
          violate t ~time:now "holding-bound"
            (Printf.sprintf
               "%s held %.6fs after its last copy; resolving-period bound is \
                %.6fs and no recovery intervened"
               (short payload) hold holding_bound)
    | Oracle.Nbdt ->
        if t.have_cp && seq >= t.last_next_expected then
          violate t ~time:now "release-before-ack"
            (Printf.sprintf
               "seq %d released but no report has advanced the frontier past \
                it (last advertised %d)"
               seq t.last_next_expected)
    | Oracle.Hdlc _ -> t.inflight <- t.inflight - 1);
    r.released <- true

  let on_requeued t ~now ~seq ~payload =
    let r = find_or_add t payload in
    if r.released then
      violate t ~time:now "requeue-after-release"
        (Printf.sprintf "%s (seq %d) queued for retransmission after release"
           (short payload) seq)

  let on_delivered t ~now ~seq ~payload =
    let r = find_or_add t payload in
    if r.tx_count = 0 then
      violate t ~time:now "delivered-unsent"
        (Printf.sprintf "receiver delivered %s (seq %d) never transmitted"
           (short payload) seq);
    r.delivered <- r.delivered + 1;
    if r.delivered > r.tx_count then
      violate t ~time:now "delivery-overcount"
        (Printf.sprintf "%s delivered %d times but only %d copies were sent"
           (short payload) r.delivered r.tx_count);
    match t.profile with
    | Oracle.Hdlc _ ->
        if r.delivered > 1 then
          violate t ~time:now "duplicate-delivery"
            (Printf.sprintf "HDLC delivered %s twice" (short payload));
        if r.offer_index <= t.last_delivered_offer then
          violate t ~time:now "reorder"
            (Printf.sprintf
               "HDLC delivered offer #%d after offer #%d; in-sequence \
                delivery is its contract"
               r.offer_index t.last_delivered_offer)
        else t.last_delivered_offer <- r.offer_index
    | Oracle.Lams _ | Oracle.Nbdt ->
        let n =
          match Hashtbl.find_opt t.delivered_seq seq with
          | Some n -> n + 1
          | None -> 1
        in
        Hashtbl.replace t.delivered_seq seq n;
        if n > 1 then
          violate t ~time:now "per-seq-duplicate"
            (Printf.sprintf "wire seq %d delivered %d times" seq n)

  let on_probe_event t ~now (ev : Dlc.Probe.event) =
    match ev with
    | Offered { payload } -> on_offered t payload
    | Tx { seq; payload; retx } -> on_tx t ~now ~seq ~payload ~retx
    | Released { seq; payload } -> on_released t ~now ~seq ~payload
    | Requeued { seq; payload } -> on_requeued t ~now ~seq ~payload
    | Delivered { seq; payload } -> on_delivered t ~now ~seq ~payload
    | Recovery_started ->
        if t.recovery_open = None then t.recovery_open <- Some now
    | Recovery_completed -> (
        match t.recovery_open with
        | Some s ->
            t.recovery_episodes <- (s, now) :: t.recovery_episodes;
            t.recovery_open <- None
        | None -> ())
    | Failure_declared -> (
        match t.recovery_open with
        | None -> t.recovery_open <- Some now
        | _ -> ())
    | _ -> ()

  let observe t probe = Dlc.Probe.subscribe probe (on_probe_event t)

  let on_checkpoint_tx t ~now (cp : Frame.Cframe.checkpoint) =
    t.have_cp <- true;
    if cp.Frame.Cframe.cp_seq <= t.last_cp_seq then
      violate t ~time:now "cp-monotone"
        (Printf.sprintf "checkpoint seq %d after %d" cp.Frame.Cframe.cp_seq
           t.last_cp_seq);
    if cp.Frame.Cframe.cp_seq > t.last_cp_seq then
      t.last_cp_seq <- cp.Frame.Cframe.cp_seq;
    if cp.Frame.Cframe.next_expected < t.last_next_expected then
      violate t ~time:now "cp-next-expected"
        (Printf.sprintf "next_expected regressed %d -> %d" t.last_next_expected
           cp.Frame.Cframe.next_expected);
    if cp.Frame.Cframe.next_expected > t.last_next_expected then
      t.last_next_expected <- cp.Frame.Cframe.next_expected;
    match t.profile with
    | Oracle.Lams { c_depth; _ } when not cp.Frame.Cframe.enforced ->
        let r = t.regular_cps in
        t.regular_cps <- r + 1;
        Array.iter
          (fun seq ->
            match Hashtbl.find_opt t.nak_runs seq with
            | None -> Hashtbl.replace t.nak_runs seq { last_r = r; count = 1 }
            | Some run ->
                if run.last_r <> r - 1 then
                  violate t ~time:now "nak-gap"
                    (Printf.sprintf
                       "NAK for seq %d in regular checkpoints #%d and #%d: \
                        cumulation must be consecutive"
                       seq run.last_r r)
                else if run.count >= c_depth then
                  violate t ~time:now "nak-overrun"
                    (Printf.sprintf
                       "NAK for seq %d advertised %d times; c_depth is %d" seq
                       (run.count + 1) c_depth);
                run.last_r <- r;
                run.count <- run.count + 1)
          cp.Frame.Cframe.naks
    | _ -> ()

  let observe_reverse t link =
    Channel.Link.add_tap link (fun ev ->
        match ev with
        | Channel.Link.Tap_tx (Frame.Wire.Control (Frame.Cframe.Checkpoint cp as c))
          ->
            on_checkpoint_tx t ~now:(Frame.Cframe.issue_time c) cp
        | Channel.Link.Tap_tx (Frame.Wire.Hdlc_control h) -> (
            match t.profile with
            | Oracle.Hdlc { seq_bits; _ } ->
                let modulus = 1 lsl seq_bits in
                if h.Frame.Hframe.nr < 0 || h.Frame.Hframe.nr >= modulus then
                  violate t ~time:nan "hframe-range"
                    (Printf.sprintf "N(R) %d outside [0, %d)" h.Frame.Hframe.nr
                       modulus)
            | _ -> ())
        | _ -> ())

  let finalize t =
    if not t.finalized then begin
      t.finalized <- true;
      match t.profile with
      | Oracle.Lams { c_depth; _ } ->
          Hashtbl.iter
            (fun seq run ->
              if run.count < c_depth && run.last_r < t.regular_cps - 1 then
                violate t ~time:nan "nak-underrun"
                  (Printf.sprintf
                     "NAK for seq %d advertised only %d of %d times and its \
                      run ended at checkpoint #%d of %d"
                     seq run.count c_depth run.last_r (t.regular_cps - 1)))
            t.nak_runs
      | Oracle.Hdlc _ | Oracle.Nbdt -> ()
    end

  let violations t = List.rev t.violations

  let violation_count t = t.violation_count
end

(* --- Trace.Recorder ------------------------------------------------------- *)

module Recorder = struct
  let capacity = 512

  type t = {
    ring : Trace.Event.t option array;
    mutable next : int;
    mutable flight : Trace.Event.t list option;
    metrics : Metrics.t;
  }

  let create () =
    {
      ring = Array.make capacity None;
      next = 0;
      flight = None;
      metrics = Metrics.create ();
    }

  let ring_events t =
    let n = min t.next capacity in
    List.init n (fun k ->
        let i = t.next - n + k in
        match t.ring.(i mod capacity) with Some e -> e | None -> assert false)

  let record t ~now kind =
    let e = { Trace.Event.i = t.next; time = now; kind } in
    t.ring.(t.next mod capacity) <- Some e;
    t.next <- t.next + 1;
    Metrics.observe t.metrics e;
    match kind with
    | Trace.Event.Violation _ ->
        if t.flight = None then t.flight <- Some (ring_events t)
    | _ -> ()

  let attach_probe t probe =
    Dlc.Probe.subscribe probe (fun ~now ev -> record t ~now (Trace.Event.Probe ev))

  let attach_fault t ~link fault =
    Channel.Fault.set_observer fault (fun ~now action frame ->
        record t ~now
          (Trace.Event.Fault
             {
               link;
               action = Channel.Fault.action_name action;
               frame = Format.asprintf "%a" Frame.Wire.pp frame;
             }))

  let attach_oracle t oracle =
    Oracle.set_on_violation oracle (fun (v : Oracle.violation) ->
        let now = if Float.is_finite v.time then v.time else -1. in
        record t ~now
          (Trace.Event.Violation { invariant = v.invariant; detail = v.detail }))

  let flight_jsonl t =
    Option.map
      (fun events ->
        String.concat ""
          (List.map (fun e -> Trace.Event.to_line e ^ "\n") events))
      t.flight

  let metrics t = t.metrics
end
