type action =
  | Drop
  | Corrupt_payload
  | Corrupt_header
  | Forge_ack
  | Rewrite_cp_seq of { delta : int }
  | Inject_stale_cp of { back : int }

let is_lie = function
  | Forge_ack | Rewrite_cp_seq _ | Inject_stale_cp _ -> true
  | Drop | Corrupt_payload | Corrupt_header -> false

type selector =
  | I_seq of int
  | I_payload of Frame.Payload.t
  | I_nth of int
  | Cp_seq of int
  | Cp_range of int * int
  | Cp_nak
  | Cp_enforced
  | Req_nak
  | Control_nth of int
  | Any_iframe
  | Any_control
  | Any_frame

type rule = {
  sel : selector;
  action : action;
  copies : int;  (* remaining budget; max_int = unlimited *)
  window : (float * float) option;
}

type adversary = {
  seed : int;
  p_iframe : float;
  p_control : float;
  window : (float * float) option;
  p_corrupt_payload : float;
  p_corrupt_header : float;
  p_lie : float;
  lies : action list;
}

type spec = Rules of rule list | Adversary of adversary

let rule ?(copies = max_int) ?window sel action =
  if copies < 1 then invalid_arg "Fault.rule: copies must be >= 1";
  (match window with
  | Some (lo, hi) when not (lo <= hi) ->
      invalid_arg "Fault.rule: window must satisfy lo <= hi"
  | _ -> ());
  { sel; action; copies; window }

let blackout ~from ~until =
  if not (from <= until) then
    invalid_arg "Fault.blackout: window must satisfy from <= until";
  rule ~window:(from, until) Any_frame Drop

let adversary ?(p_iframe = 0.) ?(p_control = 0.) ?window
    ?(p_corrupt_payload = 0.) ?(p_corrupt_header = 0.) ?(p_lie = 0.)
    ?(lies = []) ~seed () =
  Adversary
    {
      seed;
      p_iframe;
      p_control;
      window;
      p_corrupt_payload;
      p_corrupt_header;
      p_lie;
      lies;
    }

type compiled_rule = { r : rule; mutable left : int }

type mode =
  | Scripted of compiled_rule list
  | Random of {
      rng : Sim.Rng.t;
      p_iframe : float;
      p_control : float;
      window : (float * float) option;
      p_corrupt_payload : float;
      p_corrupt_header : float;
      p_lie : float;
      lies : action array;
    }

(* Stale-replay memory: the last few control frames seen crossing this
   link. Control frames are low-rate, so a short ring suffices. *)
let stale_ring_depth = 16

(* Inert frame filling the rings' unused slots. *)
let no_frame =
  Frame.Wire.Data (Frame.Iframe.create ~seq:0 ~payload:Frame.Payload.empty)

type t = {
  mode : mode;
  spec : spec;
  mutable i_count : int;  (* I-frames classified so far *)
  mutable c_count : int;  (* control frames classified so far *)
  stale_ring : Frame.Wire.t array;  (* [stale_ring_depth] slots *)
  mutable stale_head : int;  (* slot of the newest frame *)
  mutable stale_len : int;  (* frames held *)
  mutable observers : (now:float -> action -> Frame.Wire.t -> unit) list;
      (* newest last; all invoked *)
}

let compile spec =
  let check name p =
    if not (p >= 0. && p <= 1.) then
      invalid_arg (Printf.sprintf "Fault.compile: %s must be in [0,1]" name)
  in
  let mode =
    match spec with
    | Rules rules -> Scripted (List.map (fun r -> { r; left = r.copies }) rules)
    | Adversary a ->
        check "p_iframe" a.p_iframe;
        check "p_control" a.p_control;
        check "p_corrupt_payload" a.p_corrupt_payload;
        check "p_corrupt_header" a.p_corrupt_header;
        check "p_lie" a.p_lie;
        List.iter
          (fun l ->
            if not (is_lie l) then
              invalid_arg "Fault.compile: lies must be lie actions")
          a.lies;
        if a.p_lie > 0. && a.lies = [] then
          invalid_arg "Fault.compile: p_lie > 0 needs at least one lie class";
        Random
          {
            rng = Sim.Rng.create ~seed:a.seed;
            p_iframe = a.p_iframe;
            p_control = a.p_control;
            window = a.window;
            p_corrupt_payload = a.p_corrupt_payload;
            p_corrupt_header = a.p_corrupt_header;
            p_lie = a.p_lie;
            lies = Array.of_list a.lies;
          }
  in
  {
    mode;
    spec;
    i_count = 0;
    c_count = 0;
    stale_ring = Array.make stale_ring_depth no_frame;
    stale_head = 0;
    stale_len = 0;
    observers = [];
  }

let set_observer t f = t.observers <- t.observers @ [ f ]

let of_rules rules = compile (Rules rules)

let in_window window now =
  match window with None -> true | Some (lo, hi) -> now >= lo && now < hi

(* Does [sel] match this frame? [i_idx]/[c_idx] are the frame's arrival
   ordinals within its class. *)
let matches sel frame ~i_idx ~c_idx =
  match (sel, frame) with
  | I_seq seq, Frame.Wire.Data i -> i.Frame.Iframe.seq = seq
  | I_payload p, Frame.Wire.Data i -> Frame.Payload.equal i.Frame.Iframe.payload p
  | I_nth n, Frame.Wire.Data _ -> i_idx = n
  | Any_iframe, Frame.Wire.Data _ -> true
  | Cp_seq s, Frame.Wire.Control (Frame.Cframe.Checkpoint cp) ->
      cp.Frame.Cframe.cp_seq = s
  | Cp_range (lo, hi), Frame.Wire.Control (Frame.Cframe.Checkpoint cp) ->
      cp.Frame.Cframe.cp_seq >= lo && cp.Frame.Cframe.cp_seq <= hi
  | Cp_nak, Frame.Wire.Control (Frame.Cframe.Checkpoint cp) ->
      cp.Frame.Cframe.naks <> []
  | Cp_nak, Frame.Wire.Hdlc_control h -> h.Frame.Hframe.kind <> Frame.Hframe.Rr
  | Cp_enforced, Frame.Wire.Control (Frame.Cframe.Checkpoint cp) ->
      cp.Frame.Cframe.enforced
  | Req_nak, Frame.Wire.Control (Frame.Cframe.Request_nak _) -> true
  | Control_nth n, (Frame.Wire.Control _ | Frame.Wire.Hdlc_control _) ->
      c_idx = n
  | Any_control, (Frame.Wire.Control _ | Frame.Wire.Hdlc_control _) -> true
  | Any_frame, _ -> true
  | _ -> false

(* Build the forged substitute for a lie action, or [None] when the lie
   does not apply to this frame (a rule whose lie cannot be told here
   passes the frame on to later rules rather than burning its budget). *)
let forge t action frame =
  match (action, frame) with
  | Forge_ack, Frame.Wire.Control (Frame.Cframe.Checkpoint cp)
    when cp.Frame.Cframe.naks <> [] ->
      (* Flip every NAK entry into an implicit ACK: empty the list and
         make sure next_expected covers the flipped seqnums, so the
         sender's coverage scan releases the very frames the receiver
         asked to have retransmitted. *)
      let ne =
        List.fold_left
          (fun acc s -> max acc (s + 1))
          cp.Frame.Cframe.next_expected cp.Frame.Cframe.naks
      in
      Some
        (Frame.Wire.Control
           (Frame.Cframe.checkpoint ~cp_seq:cp.Frame.Cframe.cp_seq
              ~issue_time:cp.Frame.Cframe.issue_time
              ~stop_go:cp.Frame.Cframe.stop_go
              ~enforced:cp.Frame.Cframe.enforced ~next_expected:ne ~naks:[]))
  | Forge_ack, Frame.Wire.Hdlc_control h
    when h.Frame.Hframe.kind <> Frame.Hframe.Rr ->
      (* Suppress the selective/go-back reject: the sender sees a plain
         RR and never learns the frame was rejected. *)
      Some
        (Frame.Wire.Hdlc_control
           (Frame.Hframe.create ~kind:Frame.Hframe.Rr ~nr:h.Frame.Hframe.nr
              ~pf:h.Frame.Hframe.pf))
  | Rewrite_cp_seq { delta }, Frame.Wire.Control (Frame.Cframe.Checkpoint cp)
    ->
      Some
        (Frame.Wire.Control
           (Frame.Cframe.checkpoint
              ~cp_seq:(max 0 (cp.Frame.Cframe.cp_seq + delta))
              ~issue_time:cp.Frame.Cframe.issue_time
              ~stop_go:cp.Frame.Cframe.stop_go
              ~enforced:cp.Frame.Cframe.enforced
              ~next_expected:cp.Frame.Cframe.next_expected
              ~naks:cp.Frame.Cframe.naks))
  | ( Inject_stale_cp { back },
      (Frame.Wire.Control _ | Frame.Wire.Hdlc_control _) ) ->
      if t.stale_len = 0 then None
      else begin
        let age = min (max back 0) (t.stale_len - 1) in
        Some
          t.stale_ring.((t.stale_head - age + stale_ring_depth)
                        mod stale_ring_depth)
      end
  | _ -> None

(* Resolve an action against a concrete frame: [None] means the action
   is inapplicable here (only possible for lies). *)
let decision_of t action frame =
  match action with
  | Drop -> Some Link.Drop
  | Corrupt_payload -> Some Link.Corrupt_payload
  | Corrupt_header -> Some Link.Corrupt_header
  | Forge_ack | Rewrite_cp_seq _ | Inject_stale_cp _ -> (
      match forge t action frame with
      | Some forged -> Some (Link.Replace forged)
      | None -> None)

let action_name = function
  | Drop -> "drop"
  | Corrupt_payload -> "corrupt-payload"
  | Corrupt_header -> "corrupt-header"
  | Forge_ack -> "forge-ack"
  | Rewrite_cp_seq _ -> "rewrite-cp-seq"
  | Inject_stale_cp _ -> "inject-stale-cp"

let record t ~now action frame =
  List.iter (fun f -> f ~now action frame) t.observers

(* Remember control frames after deciding their fate, so a stale-replay
   lie always substitutes a strictly earlier arrival. *)
let note_frame t frame =
  match frame with
  | Frame.Wire.Control _ | Frame.Wire.Hdlc_control _ ->
      t.stale_head <- (t.stale_head + 1) mod stale_ring_depth;
      t.stale_ring.(t.stale_head) <- frame;
      if t.stale_len < stale_ring_depth then t.stale_len <- t.stale_len + 1
  | Frame.Wire.Data _ -> ()

let decision t ~now frame =
  let is_iframe = not (Frame.Wire.is_control frame) in
  let i_idx = t.i_count and c_idx = t.c_count in
  if is_iframe then t.i_count <- t.i_count + 1 else t.c_count <- t.c_count + 1;
  let result =
    match t.mode with
    | Scripted rules ->
        let rec pick = function
          | [] -> Link.Pass
          | cr :: rest ->
              if
                cr.left > 0
                && in_window cr.r.window now
                && matches cr.r.sel frame ~i_idx ~c_idx
              then
                match decision_of t cr.r.action frame with
                | Some d ->
                    cr.left <- cr.left - 1;
                    record t ~now cr.r.action frame;
                    d
                | None -> pick rest
              else pick rest
        in
        pick rules
    | Random
        {
          rng;
          p_iframe;
          p_control;
          window;
          p_corrupt_payload;
          p_corrupt_header;
          p_lie;
          lies;
        } ->
        if not (in_window window now) then Link.Pass
        else begin
          (* Draw order is part of the seed contract: the historic drop
             draw comes first, and every new draw is guarded by p > 0,
             so adversaries with the new fields at 0 consume exactly the
             historic stream. *)
          let p = if is_iframe then p_iframe else p_control in
          if p > 0. && Sim.Rng.bernoulli rng ~p then begin
            record t ~now Drop frame;
            Link.Drop
          end
          else if
            is_iframe && p_corrupt_payload > 0.
            && Sim.Rng.bernoulli rng ~p:p_corrupt_payload
          then begin
            record t ~now Corrupt_payload frame;
            Link.Corrupt_payload
          end
          else if
            p_corrupt_header > 0.
            && Sim.Rng.bernoulli rng ~p:p_corrupt_header
          then begin
            record t ~now Corrupt_header frame;
            Link.Corrupt_header
          end
          else if
            (not is_iframe)
            && p_lie > 0.
            && Array.length lies > 0
            && Sim.Rng.bernoulli rng ~p:p_lie
          then begin
            let a = lies.(Sim.Rng.int rng (Array.length lies)) in
            match decision_of t a frame with
            | Some d ->
                record t ~now a frame;
                d
            | None -> Link.Pass
          end
          else Link.Pass
        end
  in
  note_frame t frame;
  result

let install t link = Link.set_fault link (fun ~now frame -> decision t ~now frame)

let sel_name = function
  | I_seq s -> Printf.sprintf "I-frame seq=%d" s
  | I_payload p -> Printf.sprintf "I-frame payload=%S" (Frame.Payload.to_string p)
  | I_nth n -> Printf.sprintf "I-frame #%d" n
  | Cp_seq s -> Printf.sprintf "checkpoint #%d" s
  | Cp_range (lo, hi) -> Printf.sprintf "checkpoints #%d-%d" lo hi
  | Cp_nak -> "NAK-carrying checkpoints"
  | Cp_enforced -> "enforced checkpoints"
  | Req_nak -> "request-NAKs"
  | Control_nth n -> Printf.sprintf "control frame #%d" n
  | Any_iframe -> "any I-frame"
  | Any_control -> "any control frame"
  | Any_frame -> "any frame"

let action_describe = function
  | Rewrite_cp_seq { delta } -> Printf.sprintf "rewrite-cp-seq(%+d)" delta
  | Inject_stale_cp { back } -> Printf.sprintf "inject-stale-cp(back=%d)" back
  | a -> action_name a

let describe t =
  match t.spec with
  | Rules rules ->
      rules
      |> List.map (fun r ->
             Printf.sprintf "%s %s%s%s" (action_describe r.action)
               (sel_name r.sel)
               (if r.copies = max_int then ""
                else Printf.sprintf " (first %d)" r.copies)
               (match r.window with
               | None -> ""
               | Some (lo, hi) -> Printf.sprintf " in [%g,%g)" lo hi))
      |> String.concat "; "
      |> Printf.sprintf "script[%s]"
  | Adversary a ->
      Printf.sprintf "adversary[seed=%d pI=%g pC=%g%s%s%s%s]" a.seed a.p_iframe
        a.p_control
        (if a.p_corrupt_payload > 0. || a.p_corrupt_header > 0. then
           Printf.sprintf " pcp=%g pch=%g" a.p_corrupt_payload
             a.p_corrupt_header
         else "")
        (if a.p_lie > 0. then Printf.sprintf " pL=%g" a.p_lie else "")
        (match a.lies with
        | [] -> ""
        | lies ->
            Printf.sprintf " lies=%s"
              (String.concat "," (List.map action_describe lies)))
        (match a.window with
        | None -> ""
        | Some (lo, hi) -> Printf.sprintf " in [%g,%g)" lo hi)

(* ---- script text format ------------------------------------------------- *)

let parse_kv = Script.parse_kv

let int_of = Script.int_of

let float_of = Script.float_of

let ( let* ) = Result.bind

let selector_of_token tok =
  match parse_kv tok with
  | Some ("i-seq", v) ->
      let* n = int_of ~what:"i-seq" v in
      Ok (I_seq n)
  | Some ("i-payload", v) -> Ok (I_payload (Frame.Payload.of_string v))
  | Some ("i-nth", v) ->
      let* n = int_of ~what:"i-nth" v in
      Ok (I_nth n)
  | Some ("cp-seq", v) ->
      let* n = int_of ~what:"cp-seq" v in
      Ok (Cp_seq n)
  | Some ("cp-range", v) -> (
      match String.split_on_char ',' v with
      | [ lo; hi ] ->
          let* lo = int_of ~what:"cp-range lo" lo in
          let* hi = int_of ~what:"cp-range hi" hi in
          Ok (Cp_range (lo, hi))
      | _ -> Error "cp-range: expected lo,hi")
  | Some ("control-nth", v) ->
      let* n = int_of ~what:"control-nth" v in
      Ok (Control_nth n)
  | None -> (
      match tok with
      | "cp-nak" -> Ok Cp_nak
      | "cp-enforced" -> Ok Cp_enforced
      | "req-nak" -> Ok Req_nak
      | "any-iframe" -> Ok Any_iframe
      | "any-control" -> Ok Any_control
      | "any-frame" -> Ok Any_frame
      | _ -> Error (Printf.sprintf "unknown selector %S" tok))
  | Some (k, _) -> Error (Printf.sprintf "unknown selector %S" k)

let action_of_name name ~find =
  match name with
  | "drop" -> Ok Drop
  | "corrupt-payload" -> Ok Corrupt_payload
  | "corrupt-header" -> Ok Corrupt_header
  | "forge-ack" -> Ok Forge_ack
  | "rewrite-cp-seq" ->
      let* delta =
        match find "delta" with
        | None -> Ok (-1)
        | Some v -> int_of ~what:"delta" v
      in
      if delta = 0 then Error "rewrite-cp-seq: delta must be nonzero"
      else Ok (Rewrite_cp_seq { delta })
  | "inject-stale-cp" ->
      let* back =
        match find "back" with None -> Ok 1 | Some v -> int_of ~what:"back" v
      in
      if back < 0 then Error "inject-stale-cp: back must be >= 0"
      else Ok (Inject_stale_cp { back })
  | _ -> Error (Printf.sprintf "unknown fault action %S" name)

let window_of ~find =
  let* from =
    match find "from" with
    | None -> Ok None
    | Some v ->
        let* f = float_of ~what:"from" v in
        Ok (Some f)
  in
  let* until =
    match find "until" with
    | None -> Ok None
    | Some v ->
        let* f = float_of ~what:"until" v in
        Ok (Some f)
  in
  match (from, until) with
  | None, None -> Ok None
  | Some lo, Some hi -> Ok (Some (lo, hi))
  | Some lo, None -> Ok (Some (lo, Float.infinity))
  | None, Some hi -> Ok (Some (0., hi))

let parse_rule_line tokens =
  (* ACTION SELECTOR [k=v ...]   |   blackout from=T until=T *)
  match tokens with
  | "blackout" :: args ->
      let kvs = List.filter_map parse_kv args in
      if List.length kvs <> List.length args then
        Error "malformed argument in blackout line"
      else
        let find k = List.assoc_opt k kvs in
        let* window = window_of ~find in
        (match window with
        | Some (lo, hi) when hi < Float.infinity && lo >= 0. ->
            Ok (blackout ~from:lo ~until:hi)
        | _ -> Error "blackout: needs from=T and until=T")
  | action_tok :: sel_tok :: args ->
      let kvs = List.filter_map parse_kv args in
      if List.length kvs <> List.length args then
        Error (Printf.sprintf "malformed argument in %s line" action_tok)
      else
        let find k = List.assoc_opt k kvs in
        let* sel = selector_of_token sel_tok in
        let* action = action_of_name action_tok ~find in
        let* copies =
          match find "copies" with
          | None -> Ok max_int
          | Some v -> int_of ~what:"copies" v
        in
        let* window = window_of ~find in
        let* r =
          try Ok (rule ~copies ?window sel action)
          with Invalid_argument m -> Error m
        in
        Ok r
  | _ -> Error "rule line must read ACTION SELECTOR [k=v ...]"

let parse_adversary_line tokens =
  let kvs = List.filter_map parse_kv tokens in
  if List.length kvs <> List.length tokens then
    Error "malformed argument in adversary line"
  else
    let find k = List.assoc_opt k kvs in
    let* seed =
      match find "seed" with
      | None -> Error "adversary: seed=N is required"
      | Some v -> int_of ~what:"seed" v
    in
    let prob k =
      match find k with
      | None -> Ok 0.
      | Some v ->
          let* p = float_of ~what:k v in
          if p >= 0. && p <= 1. then Ok p
          else Error (Printf.sprintf "%s: must be in [0,1]" k)
    in
    let* p_iframe = prob "p-iframe" in
    let* p_control = prob "p-control" in
    let* p_corrupt_payload = prob "p-corrupt-payload" in
    let* p_corrupt_header = prob "p-corrupt-header" in
    let* p_lie = prob "p-lie" in
    let* lies =
      match find "lies" with
      | None -> Ok []
      | Some v ->
          String.split_on_char ',' v
          |> List.fold_left
               (fun acc name ->
                 let* acc = acc in
                 let* a = action_of_name name ~find:(fun _ -> None) in
                 if is_lie a then Ok (a :: acc)
                 else Error (Printf.sprintf "lies: %S is not a lie action" name))
               (Ok [])
          |> Result.map List.rev
    in
    let* window = window_of ~find in
    if p_lie > 0. && lies = [] then
      Error "adversary: p-lie > 0 needs lies=a,b"
    else
      Ok
        (Adversary
           {
             seed;
             p_iframe;
             p_control;
             window;
             p_corrupt_payload;
             p_corrupt_header;
             p_lie;
             lies;
           })

let of_string =
  Script.parse ~what:"fault script" ~adversary:parse_adversary_line
    ~rule:parse_rule_line ~rules:(fun rules -> Rules rules)

let load = Script.load of_string
