type profile =
  | Lams of { c_depth : int; holding_bound : float }
  | Hdlc of { window : int; seq_bits : int }
  | Nbdt

type violation = { time : float; invariant : string; detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "[%.6f] %s: %s" v.time v.invariant v.detail

(* Per-frame state lives in flat columns indexed by a frame id, which
   [frames] gives each payload descriptor in first-seen order (unique
   per test stream; LAMS-DLC renumbers copies, so the payload is the
   only stable name for a logical frame). Per-wire-number state lives in
   columns indexed by the id [seqs] gives each sequence number. *)

(* [frame_ints] stride: one row of [f_fields] ints per frame *)
let f_offer_index = 0

let f_tx_count = 1

let f_first_seq = 2  (* wire number of the first copy *)

let f_released = 3  (* 0 or 1 *)

let f_delivered = 4

let f_fields = 5

(* [seq_ints] stride: one row of [s_fields] ints per wire number *)
let s_delivered = 0  (* LAMS/NBDT deliveries under this number *)

let s_used = 1  (* LAMS freshness: 1 once a copy went out under it *)

let s_fields = 2

(* [nak_ints] stride: one row per NAKed wire number, by the id
   [nak_seqs] gives it, which is also its run's rank among all runs *)
let n_count = 0  (* regular checkpoints that NAKed it *)

let n_last_r = 1  (* the last of them *)

let n_fields = 2

(* --- the violation ledger ----------------------------------------------- *)

let max_recorded = 200

(* The first [max_recorded] violations, newest first, and an exact count. *)
type ledger = { mutable recorded : violation list; mutable count : int }

let ledger () = { recorded = []; count = 0 }

let record l v =
  l.count <- l.count + 1;
  if l.count <= max_recorded then l.recorded <- v :: l.recorded

let recorded l = List.rev l.recorded

(* --- the suspect window (convergence mode) ------------------------------- *)

(* Convergence mode (Dolev et al. self-stabilisation): each
   State_corrupted probe event opens a suspect window. Violations inside
   the window are recorded as tolerated anomalies instead of failures;
   the window closes — with a Converged probe event carrying the
   time-to-convergence — once [k] checkpoints have been emitted with the
   anomalies stopped, or without one when the protocol declares failure.
   [k = 0] never opens the window: every post-injection anomaly stays a
   real violation (the tripwire). The base oracle and {!Transfer} each
   hold one; which violations it absorbs is the caller's rule. *)
type window = {
  k : int;
  mutable opened : float option;  (* injection time *)
  mutable cps_since : int;  (* checkpoints since the last injection *)
  mutable anomalies : int;  (* in the open window *)
  mutable last_anomaly : float;
  mutable tolerated : int;
  mutable injections : int;
  mutable declared : bool;  (* some window ended in a declared failure *)
  mutable times : float list;  (* newest first *)
  mutable unconverged : bool;  (* open with anomalies at finalize *)
}

let window ~who ~k =
  if k < 0 then invalid_arg (who ^ ".set_convergence: k must be >= 0");
  {
    k;
    opened = None;
    cps_since = 0;
    anomalies = 0;
    last_anomaly = neg_infinity;
    tolerated = 0;
    injections = 0;
    declared = false;
    times = [];
    unconverged = false;
  }

let suspect w = match w.opened with Some _ -> true | None -> false

let inject w ~now =
  w.injections <- w.injections + 1;
  if w.k > 0 then begin
    (match w.opened with
    | None ->
        w.opened <- Some now;
        w.anomalies <- 0;
        w.last_anomaly <- neg_infinity
    | Some _ -> ());
    (* a fresh injection restarts the clean-checkpoint count *)
    w.cps_since <- 0
  end

let tolerate w ~time =
  w.anomalies <- w.anomalies + 1;
  w.tolerated <- w.tolerated + 1;
  if (not (Float.is_nan time)) && time > w.last_anomaly then
    w.last_anomaly <- time

(* Close the window opened at [t0]; its time-to-convergence runs from the
   injection to the last anomaly. *)
let converge w t0 =
  let after =
    if w.anomalies = 0 || w.last_anomaly < t0 then 0.
    else w.last_anomaly -. t0
  in
  w.times <- after :: w.times;
  w.opened <- None;
  after

(* A checkpoint emitted on [probe]: the [k]th since the last injection
   closes the window and publishes Converged there. *)
let checkpoint w probe =
  match w.opened with
  | None -> ()
  | Some t0 ->
      w.cps_since <- w.cps_since + 1;
      if w.cps_since >= w.k then begin
        let after = converge w t0 in
        Dlc.Probe.emit probe ~now:(Dlc.Probe.now probe)
          (Dlc.Probe.Converged { after; anomalies = w.anomalies })
      end

(* a declared failure is a legitimate self-stabilisation outcome: the
   suspect window closes without a Converged event *)
let fail w =
  if suspect w then begin
    w.declared <- true;
    w.opened <- None
  end

(* At the end of the run a window still open closes trivially when it
   saw no anomaly; with anomalies it is recorded as non-convergence. *)
let finish w ledger =
  match w.opened with
  | None -> ()
  | Some t0 when w.anomalies = 0 -> ignore (converge w t0 : float)
  | Some _ ->
      w.unconverged <- true;
      w.opened <- None;
      record ledger
        {
          time = nan;
          invariant = "non-convergence";
          detail =
            Printf.sprintf
              "suspect window still open at end of run: %d anomalies after \
               the last injection and only %d of %d clean checkpoints"
              w.anomalies w.cps_since w.k;
        }

type convergence = {
  times : float list;
  tolerated : int;
  declared : bool;
  unconverged : bool;
}

let summary = function
  | None -> { times = []; tolerated = 0; declared = false; unconverged = false }
  | Some (w : window) ->
      {
        times = List.rev w.times;
        tolerated = w.tolerated;
        declared = w.declared;
        unconverged = w.unconverged || suspect w;
      }

(* --- the base oracle ------------------------------------------------------ *)

type t = {
  profile : profile;
  ledger : ledger;
  mutable wrongful_releases : int;
  frames : Frame.Payload.Index.t;  (* payload -> frame id *)
  mutable frame_ints : int array;
  mutable frame_last_tx : float array;  (* nan before the first copy *)
  seqs : Dlc.Int_index.t;
  mutable seq_ints : int array;
  nak_seqs : Dlc.Int_index.t;
  mutable nak_ints : int array;
  mutable last_tx_seq : int;  (* LAMS monotony; -1 before first Tx *)
  mutable offer_counter : int;
  mutable last_delivered_offer : int;  (* HDLC order; -1 initially *)
  mutable inflight : int;  (* HDLC window occupancy, payload-level *)
  mutable recovery_open : float option;
  mutable recovery_episodes : (float * float) list;
  mutable have_cp : bool;
  mutable last_cp_seq : int;
  mutable last_next_expected : int;
  mutable regular_cps : int;  (* regular checkpoints seen on reverse tx *)
  mutable finalized : bool;
  mutable on_violation : (violation -> unit) option;
  mutable window : window option;
}

(* The no-wrongful-release invariant (see {!Feedback}). *)
let wrongful invariant =
  invariant = "released-undelivered" || invariant = "release-before-ack"

let violate t ~time invariant detail =
  match t.window with
  | Some w when suspect w || (w.injections > 0 && Float.is_nan time) ->
      (* suspect window, or a post-mortem (finalize-time, [nan]-stamped)
         check after an injection — those aggregate over the whole run
         and cannot be attributed to any one window: a tolerated
         anomaly, not a failure *)
      tolerate w ~time
  | _ ->
      let v = { time; invariant; detail } in
      record t.ledger v;
      if wrongful invariant then t.wrongful_releases <- t.wrongful_releases + 1;
      (match t.on_violation with None -> () | Some f -> f v)

let create ?name:_ profile =
  {
    profile;
    ledger = ledger ();
    wrongful_releases = 0;
    frames = Frame.Payload.Index.create ();
    frame_ints = Array.make (1024 * f_fields) 0;
    frame_last_tx = Array.make 1024 nan;
    seqs = Dlc.Int_index.create ();
    seq_ints = Array.make (1024 * s_fields) 0;
    nak_seqs = Dlc.Int_index.create ();
    nak_ints = Array.make (256 * n_fields) 0;
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
    finalized = false;
    on_violation = None;
    window = None;
  }

let set_on_violation t f = t.on_violation <- Some f

let set_convergence t ~k = t.window <- Some (window ~who:"Oracle" ~k)

let grow_ints a n =
  let b = Array.make (max n (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let[@inline] fget t id field = Array.unsafe_get t.frame_ints ((id * f_fields) + field)

let[@inline] fset t id field v =
  Array.unsafe_set t.frame_ints ((id * f_fields) + field) v

let[@inline] sget t id field = Array.unsafe_get t.seq_ints ((id * s_fields) + field)

let[@inline] sset t id field v =
  Array.unsafe_set t.seq_ints ((id * s_fields) + field) v

(* The payload's frame id, registering a fresh frame when it is new. *)
let frame_id t payload =
  let fresh = Frame.Payload.Index.length t.frames in
  let id = Frame.Payload.Index.add t.frames payload in
  if id = fresh then begin
    let n = Array.length t.frame_last_tx in
    if id >= n then begin
      t.frame_ints <- grow_ints t.frame_ints ((id + 1) * f_fields);
      let last_tx = Array.make (2 * n) nan in
      Array.blit t.frame_last_tx 0 last_tx 0 n;
      t.frame_last_tx <- last_tx
    end;
    fset t id f_offer_index (-1);
    fset t id f_first_seq (-1)
  end;
  id

(* The wire number's id, registering it when it is new. *)
let seq_id t seq =
  let id = Dlc.Int_index.add t.seqs seq in
  if (id + 1) * s_fields > Array.length t.seq_ints then
    t.seq_ints <- grow_ints t.seq_ints ((id + 1) * s_fields);
  id

let recovery_overlaps t ~lo ~hi =
  List.exists (fun (s, e) -> s <= hi && e >= lo) t.recovery_episodes
  || match t.recovery_open with Some s -> s <= hi | None -> false

let short p =
  if Frame.Payload.length p <= 24 then Frame.Payload.to_string p
  else Frame.Payload.prefix p 24 ^ "..."

(* --- semantic (probe) events ------------------------------------------- *)

(* The handlers read the event's time from [clock.(0)] (see
   {!Dlc.Probe.clock}): as a float argument it would be boxed. *)

let on_offered t payload =
  let id = frame_id t payload in
  if fget t id f_offer_index < 0 then begin
    fset t id f_offer_index t.offer_counter;
    t.offer_counter <- t.offer_counter + 1
  end

let on_tx t clock ~seq ~payload ~retx =
  let now = Array.unsafe_get clock 0 in
  let id = frame_id t payload in
  let tx_count = fget t id f_tx_count + 1 in
  if tx_count = 1 then fset t id f_first_seq seq;
  fset t id f_tx_count tx_count;
  Array.unsafe_set t.frame_last_tx id now;
  (match t.profile with
  | Lams _ ->
      if seq <= t.last_tx_seq then
        violate t ~time:now "seq-monotone"
          (Printf.sprintf "wire seq %d after %d: renumbering must keep the \
                           sequence stream strictly increasing"
             seq t.last_tx_seq);
      if seq > t.last_tx_seq then t.last_tx_seq <- seq;
      let s = seq_id t seq in
      if sget t s s_used = 1 then
        violate t ~time:now "seq-reuse"
          (Printf.sprintf "wire seq %d assigned to a second copy" seq)
      else sset t s s_used 1
  | Hdlc { window; seq_bits } ->
      let modulus = 1 lsl seq_bits in
      if seq < 0 || seq >= modulus then
        violate t ~time:now "seq-range"
          (Printf.sprintf "wire seq %d outside [0, %d)" seq modulus);
      if tx_count = 1 && fget t id f_released = 0 then begin
        t.inflight <- t.inflight + 1;
        if t.inflight > window then
          violate t ~time:now "window-overflow"
            (Printf.sprintf "%d unacknowledged frames exceed window %d"
               t.inflight window)
      end
  | Nbdt ->
      if retx && seq <> fget t id f_first_seq then
        violate t ~time:now "seq-stable"
          (Printf.sprintf
             "retransmission of %s renumbered %d -> %d; NBDT numbers are \
              absolute"
             (short payload) (fget t id f_first_seq) seq));
  if fget t id f_released = 1 then
    violate t ~time:now "tx-after-release"
      (Printf.sprintf "copy of %s (seq %d) sent after its buffer slot was \
                       released"
         (short payload) seq)

let on_released t clock ~seq ~payload =
  let now = Array.unsafe_get clock 0 in
  let id = frame_id t payload in
  if fget t id f_tx_count = 0 then
    violate t ~time:now "release-unsent"
      (Printf.sprintf "released %s (seq %d) without any transmission"
         (short payload) seq);
  if fget t id f_released = 1 then
    violate t ~time:now "double-release"
      (Printf.sprintf "second release of %s (seq %d)" (short payload) seq);
  if fget t id f_delivered = 0 then
    violate t ~time:now "released-undelivered"
      (Printf.sprintf
         "buffer slot of %s (seq %d) freed but the receiver never delivered \
          it: silent loss"
         (short payload) seq);
  (match t.profile with
  | Lams { holding_bound; _ } ->
      if t.have_cp && seq >= t.last_next_expected then
        violate t ~time:now "release-before-ack"
          (Printf.sprintf
             "seq %d released but no checkpoint has advanced next_expected \
              past it (last advertised %d)"
             seq t.last_next_expected);
      let last_tx = Array.unsafe_get t.frame_last_tx id in
      let hold = now -. last_tx in
      if
        hold > holding_bound
        && not (recovery_overlaps t ~lo:last_tx ~hi:now)
      then
        violate t ~time:now "holding-bound"
          (Printf.sprintf
             "%s held %.6fs after its last copy; resolving-period bound is \
              %.6fs and no recovery intervened"
             (short payload) hold holding_bound)
  | Nbdt ->
      if t.have_cp && seq >= t.last_next_expected then
        violate t ~time:now "release-before-ack"
          (Printf.sprintf
             "seq %d released but no report has advanced the frontier past \
              it (last advertised %d)"
             seq t.last_next_expected)
  | Hdlc _ -> t.inflight <- t.inflight - 1);
  fset t id f_released 1

let on_requeued t clock ~seq ~payload =
  let id = frame_id t payload in
  if fget t id f_released = 1 then
    violate t ~time:(Array.unsafe_get clock 0) "requeue-after-release"
      (Printf.sprintf "%s (seq %d) queued for retransmission after release"
         (short payload) seq)

let on_delivered t clock ~seq ~payload =
  let now = Array.unsafe_get clock 0 in
  let id = frame_id t payload in
  let tx_count = fget t id f_tx_count in
  if tx_count = 0 then
    violate t ~time:now "delivered-unsent"
      (Printf.sprintf "receiver delivered %s (seq %d) never transmitted"
         (short payload) seq);
  let delivered = fget t id f_delivered + 1 in
  fset t id f_delivered delivered;
  if delivered > tx_count then
    violate t ~time:now "delivery-overcount"
      (Printf.sprintf "%s delivered %d times but only %d copies were sent"
         (short payload) delivered tx_count);
  match t.profile with
  | Hdlc _ ->
      if delivered > 1 then
        violate t ~time:now "duplicate-delivery"
          (Printf.sprintf "HDLC delivered %s twice" (short payload));
      let offer_index = fget t id f_offer_index in
      if offer_index <= t.last_delivered_offer then
        violate t ~time:now "reorder"
          (Printf.sprintf
             "HDLC delivered offer #%d after offer #%d; in-sequence \
              delivery is its contract"
             offer_index t.last_delivered_offer)
      else t.last_delivered_offer <- offer_index
  | Lams _ | Nbdt ->
      let s = seq_id t seq in
      let n = sget t s s_delivered + 1 in
      sset t s s_delivered n;
      if n > 1 then
        violate t ~time:now "per-seq-duplicate"
          (Printf.sprintf "wire seq %d delivered %d times" seq n)

let on_rare_event t ~now ev =
  match (ev : Dlc.Probe.event) with
  | Recovery_started ->
      if t.recovery_open = None then t.recovery_open <- Some now
  | Recovery_completed -> (
      match t.recovery_open with
      | Some s ->
          t.recovery_episodes <- (s, now) :: t.recovery_episodes;
          t.recovery_open <- None
      | None -> ())
  | Failure_declared ->
      (* an open recovery never completes; keep it open so late releases
         during drain stay exempt from the holding bound *)
      (match t.recovery_open with
      | None -> t.recovery_open <- Some now
      | _ -> ());
      (match t.window with Some w -> fail w | None -> ())
  | State_corrupted _ -> (
      match t.window with Some w -> inject w ~now | None -> ())
  | Link_transition _ ->
      (* lifecycle bookkeeping only; the handover-level safety check
         lives in {!Transfer}, which watches payloads across sessions *)
      ()
  | Cp_quarantined _ | Resync_forced _ ->
      (* guard-layer feedback hygiene; accounted by {!Feedback}, neutral
         for the per-session safety invariants *)
      ()
  | Converged _ | Offered _ | Tx _ | Released _ | Requeued _ | Delivered _
  | Cp_emitted _ ->
      (* the per-frame kinds arrive through the typed handlers *)
      ()

let observe t probe =
  Dlc.Probe.listen probe
    {
      offered = (fun payload -> on_offered t payload);
      tx =
        (fun ~seq ~payload ~retx ->
          on_tx t (Dlc.Probe.clock probe) ~seq ~payload ~retx);
      released =
        (fun ~seq ~payload -> on_released t (Dlc.Probe.clock probe) ~seq ~payload);
      requeued =
        (fun ~seq ~payload -> on_requeued t (Dlc.Probe.clock probe) ~seq ~payload);
      delivered =
        (fun ~seq ~payload ->
          on_delivered t (Dlc.Probe.clock probe) ~seq ~payload);
      cp_emitted =
        (fun ~cp_seq:_ ~next_expected:_ ~enforced:_ ~stop_go:_ ~naks:_ ->
          (* checkpoint emission is checked on the reverse-link tap,
             which sees the wire frame itself; here checkpoints only pace
             the suspect window of convergence mode *)
          match t.window with Some w -> checkpoint w probe | None -> ());
      other = (fun ~now ev -> on_rare_event t ~now ev);
    }

(* --- reverse-link (checkpoint emission) observation --------------------- *)

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
  | Lams { c_depth; _ } when not cp.Frame.Cframe.enforced ->
      let r = t.regular_cps in
      t.regular_cps <- r + 1;
      List.iter
        (fun seq ->
          let n = Dlc.Int_index.add t.nak_seqs seq in
          if (n + 1) * n_fields > Array.length t.nak_ints then
            t.nak_ints <- grow_ints t.nak_ints ((n + 1) * n_fields);
          let row = n * n_fields in
          let count = t.nak_ints.(row + n_count) in
          if count > 0 then begin
            let last_r = t.nak_ints.(row + n_last_r) in
            if last_r <> r - 1 then
              violate t ~time:now "nak-gap"
                (Printf.sprintf
                   "NAK for seq %d in regular checkpoints #%d and #%d: \
                    cumulation must be consecutive"
                   seq last_r r)
            else if count >= c_depth then
              violate t ~time:now "nak-overrun"
                (Printf.sprintf
                   "NAK for seq %d advertised %d times; c_depth is %d" seq
                   (count + 1) c_depth)
          end;
          t.nak_ints.(row + n_last_r) <- r;
          t.nak_ints.(row + n_count) <- count + 1)
        cp.Frame.Cframe.naks
  | _ -> ()

let on_reverse_tap t (ev : Channel.Link.tap_event) ~now =
  match ev with
  | Channel.Link.Tap_tx (Frame.Wire.Control (Frame.Cframe.Checkpoint cp)) ->
      on_checkpoint_tx t ~now cp
  | Channel.Link.Tap_tx (Frame.Wire.Hdlc_control h) -> (
      match t.profile with
      | Hdlc { seq_bits; _ } ->
          let modulus = 1 lsl seq_bits in
          if h.Frame.Hframe.nr < 0 || h.Frame.Hframe.nr >= modulus then
            violate t ~time:now "hframe-range"
              (Printf.sprintf "N(R) %d outside [0, %d)" h.Frame.Hframe.nr
                 modulus)
      | _ -> ())
  | _ -> ()

let observe_reverse t link =
  (* the tap carries no timestamp; read the emission clock via the
     checkpoint's own issue_time — Tap_tx fires synchronously inside
     Link.send, so the frame's issue_time (set at creation, same event)
     is the current simulated instant for every frame the protocol sends
     itself. The one exception is a stale frame replayed by the
     corruption injector, whose issue_time is its original (older)
     emission; that only skews the timestamp recorded on the resulting
     anomaly, and toleration is decided by window state, never by this
     clock. *)
  Channel.Link.add_tap link (fun ev ->
      let now =
        match ev with
        | Channel.Link.Tap_tx (Frame.Wire.Control c) -> Frame.Cframe.issue_time c
        | _ -> nan
      in
      on_reverse_tap t ev ~now)

let attach t ~probe ~duplex =
  observe t probe;
  observe_reverse t duplex.Channel.Duplex.reverse

(* --- finalisation ------------------------------------------------------- *)

(* The order in which [Hashtbl.iter] would visit these NAK runs, had
   they been added to a [Hashtbl.create 256] keyed by seq in ordinal
   order (as the oracle kept them before its state went flat): bucket
   by bucket, newest first within a bucket. Violation lists and flight
   dumps keep their order. *)
let in_table_order t runs =
  let total = Dlc.Int_index.length t.nak_seqs in
  let rec buckets b = if total > 2 * b then buckets (2 * b) else b in
  let mask = buckets 256 - 1 in
  let bucket n = Hashtbl.hash (Dlc.Int_index.key t.nak_seqs n) land mask in
  List.stable_sort
    (fun a b ->
      match Int.compare (bucket a) (bucket b) with 0 -> Int.compare b a | c -> c)
    runs

let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    (match t.window with Some w -> finish w t.ledger | None -> ());
    match t.profile with
    | Lams { c_depth; _ } ->
        (* a run still open when the session stopped is truncated, not
           wrong; only runs that ended early mid-session under-report *)
        let count n = t.nak_ints.((n * n_fields) + n_count)
        and last_r n = t.nak_ints.((n * n_fields) + n_last_r) in
        let short_runs = ref [] in
        for n = Dlc.Int_index.length t.nak_seqs - 1 downto 0 do
          if count n < c_depth && last_r n < t.regular_cps - 1 then
            short_runs := n :: !short_runs
        done;
        List.iter
          (fun n ->
            violate t ~time:nan "nak-underrun"
              (Printf.sprintf
                 "NAK for seq %d advertised only %d of %d times and its run \
                  ended at checkpoint #%d of %d"
                 (Dlc.Int_index.key t.nak_seqs n)
                 (count n) c_depth (last_r n) (t.regular_cps - 1)))
          (in_table_order t !short_runs)
    | Hdlc _ | Nbdt -> ()
  end

let violations t = recorded t.ledger

let violation_count t = t.ledger.count

let wrongful_releases t = t.wrongful_releases

let convergence t = summary t.window

module Transfer = struct
  (* Per-payload state lives in [ints], one row of [t_fields] ints per
     id that [frames] gives a payload, in first-seen order: its offers,
     its deliveries and its flags. The flags mark a payload granted a
     duplicate budget, one destroyed by state corruption (its loss is a
     declared casualty, not a transfer violation) and one the handover
     layer still held at finalize. *)
  let t_offers = 0 and t_deliveries = 1 and t_flags = 2 and t_fields = 3

  let suspicious_bit = 1 and casualty_bit = 2 and retained_bit = 4

  type nonrec t = {
    frames : Frame.Payload.Index.t;
    mutable ints : int array;
    sink_seen : (int, float) Hashtbl.t;
    mutable sessions_spanned : int;
    mutable failures_declared : int;
    ledger : ledger;
    mutable finalized : bool;
    mutable window : window option;
    mutable casualties_lost : int;
  }

  let create () =
    {
      frames = Frame.Payload.Index.create ();
      ints = Array.make (1024 * t_fields) 0;
      sink_seen = Hashtbl.create 256;
      sessions_spanned = 0;
      failures_declared = 0;
      ledger = ledger ();
      finalized = false;
      window = None;
      casualties_lost = 0;
    }

  let set_convergence s ~k = s.window <- Some (window ~who:"Oracle.Transfer" ~k)

  (* The payload's row offset in [ints], adding the payload when new. *)
  let row s payload =
    let row = Frame.Payload.Index.add s.frames payload * t_fields in
    if row + t_fields > Array.length s.ints then
      s.ints <- grow_ints s.ints (row + t_fields);
    row

  let[@inline] bump s row field =
    let n = Array.unsafe_get s.ints (row + field) + 1 in
    Array.unsafe_set s.ints (row + field) n;
    n

  let flag s row bit = s.ints.(row + t_flags) <- s.ints.(row + t_flags) lor bit

  let declare_casualty s payload = flag s (row s payload) casualty_bit

  let violate s ~time invariant detail =
    (* unlike the per-session oracle there is no post-mortem tolerance
       here: finalize-time losses attributable to corruption are exempted
       one by one through the casualty flag, so any remaining
       transfer-loss is a real violation *)
    match s.window with
    | Some w when suspect w -> tolerate w ~time
    | _ -> record s.ledger { time; invariant; detail }

  let mark_suspicious s payload = flag s (row s payload) suspicious_bit

  let on_delivered s clock payload =
    let row = row s payload in
    let deliveries = bump s row t_deliveries
    and offers = Array.unsafe_get s.ints (row + t_offers) in
    if offers = 0 then
      violate s ~time:(Array.unsafe_get clock 0) "transfer-unoffered"
        (Printf.sprintf "%s delivered but never offered" (short payload))
    else if deliveries > offers then
      violate s ~time:(Array.unsafe_get clock 0) "transfer-duplicate"
        (Printf.sprintf
           "%s delivered %d times against %d offer(s): more copies than the \
            handover replayed"
           (short payload) deliveries offers)
    else if
      deliveries > 1
      && Array.unsafe_get s.ints (row + t_flags) land suspicious_bit = 0
    then
      violate s ~time:(Array.unsafe_get clock 0) "transfer-verdict"
        (Printf.sprintf
           "%s delivered %d times but was never classified `Suspicious: the \
            §3.3 handoff verdict lied"
           (short payload) deliveries)

  let observe s probe =
    Dlc.Probe.listen probe
      {
        Dlc.Probe.no_handlers with
        offered = (fun payload -> ignore (bump s (row s payload) t_offers : int));
        released =
          (fun ~seq:_ ~payload ->
            (* a buffer slot freed while the state is suspect and the
               payload was never delivered is a casualty candidate: the
               corruption may have destroyed it outright (Dolev et al.
               allow bounded casualties during stabilisation) *)
            match s.window with
            | Some w when suspect w ->
                let row = row s payload in
                if s.ints.(row + t_deliveries) = 0 then flag s row casualty_bit
            | _ -> ());
        delivered =
          (fun ~seq:_ ~payload -> on_delivered s (Dlc.Probe.clock probe) payload);
        cp_emitted =
          (fun ~cp_seq:_ ~next_expected:_ ~enforced:_ ~stop_go:_ ~naks:_ ->
            match s.window with Some w -> checkpoint w probe | None -> ());
        other =
          (fun ~now ev ->
            match (ev : Dlc.Probe.event) with
            | State_corrupted _ -> (
                match s.window with Some w -> inject w ~now | None -> ())
            | Link_transition { state = Dlc.Probe.Link_up } ->
                s.sessions_spanned <- s.sessions_spanned + 1
            | Failure_declared -> (
                s.failures_declared <- s.failures_declared + 1;
                match s.window with Some w -> fail w | None -> ())
            | _ -> ());
      }

  let on_sink s ~now key =
    if Hashtbl.mem s.sink_seen key then
      violate s ~time:now "transfer-sink-duplicate"
        (Printf.sprintf
           "message %d completed twice past the resequencer: the continuity \
            witness saw a duplicate escape dedup"
           key)
    else Hashtbl.replace s.sink_seen key now

  let sessions_spanned s = s.sessions_spanned

  let failures_declared s = s.failures_declared

  let finalize ?(retained = []) s =
    if not s.finalized then begin
      s.finalized <- true;
      (match s.window with Some w -> finish w s.ledger | None -> ());
      List.iter (fun p -> flag s (row s p) retained_bit) retained;
      (* losses in first-seen order, which is id order *)
      for id = 0 to Frame.Payload.Index.length s.frames - 1 do
        let row = id * t_fields in
        let flags = s.ints.(row + t_flags) in
        if
          s.ints.(row + t_offers) > 0
          && s.ints.(row + t_deliveries) = 0
          && flags land retained_bit = 0
        then
          if flags land casualty_bit <> 0 then
            (* destroyed by an injected corruption: a counted casualty
               of self-stabilisation, not a protocol violation *)
            s.casualties_lost <- s.casualties_lost + 1
          else
            violate s ~time:nan "transfer-loss"
              (Printf.sprintf
                 "%s offered but neither delivered nor retained: lost \
                  across the handover"
                 (short (Frame.Payload.Index.key s.frames id)))
      done
    end

  let violations s = recorded s.ledger

  let violation_count s = s.ledger.count

  let convergence s = summary s.window

  let casualties_lost s = s.casualties_lost
end

module Feedback = struct
  (* Feedback-safety mode: under lying feedback the headline invariant —
     no wrongly-released data, ever — is already enforced by the base
     oracle ("released-undelivered" fires at release time, and
     "release-before-ack" compares against checkpoint EMISSION, which is
     upstream of the lie injection point and therefore never fooled).
     Beside it, this module keeps the degradation ledger: lie exposure, guard
     reactions (quarantines, forced resyncs), time from the first
     disturbance of an episode to the recovery that resolves it, and a
     bucketed goodput series for blackout floors. *)

  type t = {
    bucket : float;  (* goodput bucket width, seconds *)
    mutable faults_seen : int;  (* any reverse-channel fault hit *)
    mutable lies_seen : int;  (* clean-looking forgeries among them *)
    mutable quarantines : int;
    mutable resyncs : int;
    mutable failure_declared : bool;
    mutable episode_open : float option;  (* first disturbance, open *)
    mutable resync_times : float list;  (* newest first *)
    mutable buckets : int array;
        (* payload bytes per bucket index, grown by doubling: its length
           follows the last delivery time over [bucket] *)
  }

  let create ?(bucket = 10e-3) () =
    if bucket <= 0. then invalid_arg "Oracle.Feedback.create: bucket <= 0";
    {
      bucket;
      faults_seen = 0;
      lies_seen = 0;
      quarantines = 0;
      resyncs = 0;
      failure_declared = false;
      episode_open = None;
      resync_times = [];
      buckets = Array.make 256 0;
    }

  let mark_disturbance t ~now =
    match t.episode_open with
    | None -> t.episode_open <- Some now
    | Some _ -> ()

  let on_fault t ~now ~lie =
    t.faults_seen <- t.faults_seen + 1;
    if lie then t.lies_seen <- t.lies_seen + 1;
    mark_disturbance t ~now

  let on_delivered t clock payload =
    let i = int_of_float (Array.unsafe_get clock 0 /. t.bucket) in
    let n = Array.length t.buckets in
    if i >= n then begin
      let grown = Array.make (max (i + 1) (2 * n)) 0 in
      Array.blit t.buckets 0 grown 0 n;
      t.buckets <- grown
    end;
    t.buckets.(i) <- t.buckets.(i) + Frame.Payload.length payload

  let observe t probe =
    Dlc.Probe.listen probe
      {
        Dlc.Probe.no_handlers with
        delivered =
          (fun ~seq:_ ~payload -> on_delivered t (Dlc.Probe.clock probe) payload);
        other =
          (fun ~now ev ->
            match (ev : Dlc.Probe.event) with
            | Cp_quarantined _ ->
                t.quarantines <- t.quarantines + 1;
                mark_disturbance t ~now
            | Resync_forced _ -> t.resyncs <- t.resyncs + 1
            | Recovery_completed -> (
                match t.episode_open with
                | Some t0 ->
                    t.resync_times <- (now -. t0) :: t.resync_times;
                    t.episode_open <- None
                | None -> ())
            | Failure_declared ->
                t.failure_declared <- true;
                (* a declared failure resolves the episode explicitly:
                   the sender refuses further progress instead of
                   resyncing *)
                t.episode_open <- None
            | _ -> ());
      }

  let faults_seen t = t.faults_seen

  let lies_seen t = t.lies_seen

  let quarantines t = t.quarantines

  let resyncs t = t.resyncs

  let failure_declared t = t.failure_declared

  let resync_times t = List.rev t.resync_times

  let unresolved t = t.episode_open <> None

  let goodput_floor t ~lo ~hi =
    let first = int_of_float (ceil (lo /. t.bucket)) in
    let last = int_of_float (floor (hi /. t.bucket)) - 1 in
    if last < first then nan
    else begin
      let worst = ref max_int in
      for i = first to last do
        let b =
          if i >= 0 && i < Array.length t.buckets then t.buckets.(i) else 0
        in
        if b < !worst then worst := b
      done;
      float_of_int (8 * !worst) /. t.bucket
    end
end
