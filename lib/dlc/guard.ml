type config = {
  distrust_threshold : int;
  resync_retries : int;
  max_cp_jump : int;
  confirm_hold : bool;
}

let default_config =
  {
    distrust_threshold = 1;
    resync_retries = 3;
    max_cp_jump = 1024;
    confirm_hold = true;
  }

let validate_config c =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if c.distrust_threshold < 1 then
    err "distrust_threshold must be >= 1 (got %d)" c.distrust_threshold
  else if c.resync_retries < 0 then
    err "resync_retries must be >= 0 (got %d)" c.resync_retries
  else if c.max_cp_jump < 1 then
    err "max_cp_jump must be >= 1 (got %d)" c.max_cp_jump
  else Ok c

let validate_opt = function
  | None -> Ok ()
  | Some c -> (
      match validate_config c with
      | Ok _ -> Ok ()
      | Error msg -> Error ("guard: " ^ msg))

type feedback_hooks =
  | Checkpointed of {
      next_seq : unit -> int;
      is_outstanding : int -> bool;
    }
  | Supervisory of {
      modulus : int;
      v_s : unit -> int;
      v_a : unit -> int;
      is_outstanding : int -> bool;
    }

type hooks = {
  now : unit -> float;
  feedback : feedback_hooks;
  force_resync : unit -> unit;
  declare_failure : unit -> unit;
}

type t = {
  config : config;
  probe : Probe.t;
  hooks : hooks;
  deliver : Channel.Link.rx -> unit;
  mutable last_cp_seq : int;  (* -1 = no baseline *)
  mutable max_ne : int;
  mutable held : Channel.Link.rx option;  (* awaiting cross-CP confirmation *)
  requeued : Int_index.t;
      (* naks already forwarded to the sender, and the sender's own requeues *)
  mutable distrust : int;
  mutable resync_attempts : int;
  mutable failed : bool;
  mutable c_ordinal : int;  (* supervisory-frame ordinal, for event ids *)
}

let create config ~probe ~hooks ~deliver =
  let config =
    match validate_config config with
    | Ok c -> c
    | Error msg -> invalid_arg ("Guard.create: " ^ msg)
  in
  let t =
    {
      config;
      probe;
      hooks;
      deliver;
      last_cp_seq = -1;
      max_ne = 0;
      held = None;
      requeued = Int_index.create ();
      distrust = 0;
      resync_attempts = 0;
      failed = false;
      c_ordinal = 0;
    }
  in
  (* The sender also requeues on its own: a frame that its coverage scan
     finds lost goes out again under a new number, and the receiver may
     honestly NAK the old one afterwards. Those numbers are retired, not
     released, so [nak-after-release] must not count them. *)
  (match hooks.feedback with
  | Checkpointed _ ->
      Probe.listen probe
        {
          Probe.no_handlers with
          requeued =
            (fun ~seq ~payload:_ -> ignore (Int_index.add t.requeued seq : int));
        }
  | Supervisory _ -> ());
  t

(* --- escalation ladder --------------------------------------------------- *)

let escalate t =
  if (not t.failed) && t.distrust >= t.config.distrust_threshold then begin
    t.distrust <- 0;
    (* whatever we were holding belongs to the feedback stream we just
       stopped trusting; the resynchronisation answer supersedes it *)
    t.held <- None;
    t.resync_attempts <- t.resync_attempts + 1;
    if t.resync_attempts > t.config.resync_retries then begin
      t.failed <- true;
      t.hooks.declare_failure ()
    end
    else begin
      Probe.emit t.probe ~now:(t.hooks.now ())
        (Probe.Resync_forced { attempt = t.resync_attempts });
      (* the resync answer re-anchors the cp_seq baseline: a forged
         first checkpoint must not poison monotonicity forever *)
      t.last_cp_seq <- -1;
      t.hooks.force_resync ()
    end
  end

let quarantine t ~id ~reason =
  t.distrust <- t.distrust + 1;
  Probe.emit t.probe ~now:(t.hooks.now ())
    (Probe.Cp_quarantined { cp_seq = id; reason; distrust = t.distrust });
  escalate t

(* --- checkpointed feedback (LAMS, NBDT) ---------------------------------- *)

let cp_of rx =
  match rx.Channel.Link.frame with
  | Frame.Wire.Control (Frame.Cframe.Checkpoint cp) -> Some cp
  | _ -> None

(* Plausibility of one checkpoint against the sender's ground truth.
   Returns the failed check's name, or None when the frame is
   believable. *)
let implausible_cp t ~next_seq (cp : Frame.Cframe.checkpoint) =
  if t.last_cp_seq >= 0 && cp.Frame.Cframe.cp_seq <= t.last_cp_seq then
    Some "cp-seq-stale"
  else if
    t.last_cp_seq >= 0
    && cp.Frame.Cframe.cp_seq > t.last_cp_seq + t.config.max_cp_jump
  then Some "cp-seq-jump"
  else if cp.Frame.Cframe.next_expected > next_seq then Some "ne-overrun"
  else if cp.Frame.Cframe.next_expected < t.max_ne then Some "ne-regression"
  else if
    List.exists
      (fun s -> s >= cp.Frame.Cframe.next_expected || s >= next_seq)
      cp.Frame.Cframe.naks
  then Some "nak-out-of-range"
  else None

(* A NAK for a sequence number that is neither outstanding nor ever
   requeued means the receiver still misses a frame whose buffer slot
   is gone: some earlier checkpoint lied its way past a release. *)
let nak_after_release t ~is_outstanding ~next_seq
    (cp : Frame.Cframe.checkpoint) =
  List.exists
    (fun s ->
      s < next_seq
      && (not (is_outstanding s))
      && Int_index.find t.requeued s < 0)
    cp.Frame.Cframe.naks

(* Does [later] accuse [earlier] of forging an implicit ACK? [earlier]
   covered s (passed it without a NAK below its frontier) while [later]
   still reports s missing and the sender still holds it. *)
let contradicts ~is_outstanding ~(earlier : Frame.Cframe.checkpoint)
    ~(later : Frame.Cframe.checkpoint) =
  List.exists
    (fun s ->
      s < earlier.Frame.Cframe.next_expected
      && (not (List.mem s earlier.Frame.Cframe.naks))
      && is_outstanding s)
    later.Frame.Cframe.naks

let deliver_cp t rx (cp : Frame.Cframe.checkpoint) =
  List.iter
    (fun s -> ignore (Int_index.add t.requeued s : int))
    cp.Frame.Cframe.naks;
  t.deliver rx

let on_checkpoint t rx (cp : Frame.Cframe.checkpoint) ~next_seq
    ~is_outstanding =
  match implausible_cp t ~next_seq cp with
  | Some reason -> quarantine t ~id:cp.Frame.Cframe.cp_seq ~reason
  | None ->
      if nak_after_release t ~is_outstanding ~next_seq cp then
        quarantine t ~id:cp.Frame.Cframe.cp_seq ~reason:"nak-after-release"
      else begin
        t.last_cp_seq <- cp.Frame.Cframe.cp_seq;
        t.max_ne <- max t.max_ne cp.Frame.Cframe.next_expected;
        if cp.Frame.Cframe.enforced then begin
          (* solicited resynchronisation answer: ground truth. It
             supersedes anything held, restores trust, and resets the
             retry budget. *)
          (match t.held with
          | Some held_rx ->
              (match cp_of held_rx with
              | Some held_cp
                when contradicts ~is_outstanding ~earlier:held_cp ~later:cp
                ->
                  quarantine t ~id:held_cp.Frame.Cframe.cp_seq
                    ~reason:"forged-ack-contradiction"
              | _ -> ());
              t.held <- None
          | None -> ());
          t.distrust <- 0;
          t.resync_attempts <- 0;
          deliver_cp t rx cp
        end
        else if not t.config.confirm_hold then deliver_cp t rx cp
        else begin
          (match t.held with
          | Some held_rx -> (
              match cp_of held_rx with
              | Some held_cp ->
                  if contradicts ~is_outstanding ~earlier:held_cp ~later:cp
                  then
                    quarantine t ~id:held_cp.Frame.Cframe.cp_seq
                      ~reason:"forged-ack-contradiction"
                  else deliver_cp t held_rx held_cp
              | None -> ())
          | None -> ());
          (* the escalation path may have cleared the pipeline *)
          if not t.failed then t.held <- Some rx
        end
      end

(* --- supervisory feedback (HDLC) ----------------------------------------- *)

let sub m a b = ((a - b) mod m + m) mod m

let hframe_of rx =
  match rx.Channel.Link.frame with
  | Frame.Wire.Hdlc_control h -> Some h
  | _ -> None

let on_supervisory t rx (h : Frame.Hframe.t) ~modulus ~v_s ~v_a
    ~is_outstanding =
  let id = t.c_ordinal in
  t.c_ordinal <- t.c_ordinal + 1;
  let va = v_a () and vs = v_s () in
  let nr_dist = sub modulus h.Frame.Hframe.nr va in
  let send_dist = sub modulus vs va in
  if nr_dist > send_dist then
    (* acknowledging (or rejecting) beyond the outstanding window: no
       honest peer has seen those frames *)
    quarantine t ~id ~reason:"nr-out-of-window"
  else begin
    let confirm_then k =
      (match t.held with
      | Some held_rx -> (
          match hframe_of held_rx with
          | Some held_h ->
              (* a held RR claimed everything below its N(R) received; a
                 reject cyclically below that frontier, for a frame the
                 sender still holds, exposes the claim as forged *)
              if
                held_h.Frame.Hframe.kind = Frame.Hframe.Rr
                && h.Frame.Hframe.kind <> Frame.Hframe.Rr
                && sub modulus h.Frame.Hframe.nr va
                   < sub modulus held_h.Frame.Hframe.nr va
                && is_outstanding h.Frame.Hframe.nr
              then quarantine t ~id:(id - 1) ~reason:"forged-ack-contradiction"
              else t.deliver held_rx
          | None -> ());
          t.held <- None
      | None -> ());
      if not t.failed then k ()
    in
    if not t.config.confirm_hold then t.deliver rx
    else if h.Frame.Hframe.pf then
      (* solicited Final responses complete timeout/poll recovery; the
         sender needs them now, so they bypass the hold *)
      confirm_then (fun () -> t.deliver rx)
    else confirm_then (fun () -> t.held <- Some rx)
  end

(* --- entry point --------------------------------------------------------- *)

let on_rx t (rx : Channel.Link.rx) =
  if rx.Channel.Link.status <> Channel.Link.Rx_ok then
    (* CRC already told the sender not to trust this arrival *)
    t.deliver rx
  else
    match (rx.Channel.Link.frame, t.hooks.feedback) with
    | ( Frame.Wire.Control (Frame.Cframe.Checkpoint cp),
        Checkpointed { next_seq; is_outstanding } ) ->
        on_checkpoint t rx cp ~next_seq:(next_seq ()) ~is_outstanding
    | ( Frame.Wire.Hdlc_control h,
        Supervisory { modulus; v_s; v_a; is_outstanding } ) ->
        on_supervisory t rx h ~modulus ~v_s ~v_a ~is_outstanding
    | _ -> t.deliver rx
