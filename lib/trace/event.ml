module Json = Bench_report.Json

type kind =
  | Probe of Dlc.Probe.event
  | Fault of { link : string; action : string; frame : string }
  | Violation of { invariant : string; detail : string }

type t = { i : int; time : float; kind : kind }

(* Tag numbers: the six per-frame probe kinds first, as the recorder's
   ring stores them without an event value. *)
let tag_names =
  [|
    "offered"; "tx"; "retx"; "released"; "requeued"; "delivered";
    "recovery-started"; "recovery-completed"; "failure-declared"; "link-up";
    "link-retargeting"; "link-down"; "link-failed"; "cp"; "cp-nak";
    "state-corrupted"; "converged"; "cp-quarantined"; "resync-forced"; "fault";
    "violation";
  |]

let tags = Array.length tag_names

let tag_offered = 0

let tag_tx ~retx = if retx then 2 else 1

let tag_released = 3

let tag_requeued = 4

let tag_delivered = 5

let tag_cp ~naks = if naks = [] then 13 else 14

let tag_fault = 19

let tag_violation = 20

let tag_name tag = tag_names.(tag)

let probe_tag : Dlc.Probe.event -> int = function
  | Offered _ -> tag_offered
  | Tx { retx; _ } -> tag_tx ~retx
  | Released _ -> tag_released
  | Requeued _ -> tag_requeued
  | Delivered _ -> tag_delivered
  | Recovery_started -> 6
  | Recovery_completed -> 7
  | Failure_declared -> 8
  | Link_transition { state = Link_up } -> 9
  | Link_transition { state = Link_retargeting } -> 10
  | Link_transition { state = Link_down } -> 11
  | Link_transition { state = Link_failed } -> 12
  | Cp_emitted { naks; _ } -> tag_cp ~naks
  | State_corrupted _ -> 15
  | Converged _ -> 16
  | Cp_quarantined _ -> 17
  | Resync_forced _ -> 18

let tag e =
  match e.kind with
  | Probe ev -> probe_tag ev
  | Fault _ -> tag_fault
  | Violation _ -> tag_violation

let name e = tag_names.(tag e)

let payload_label p = Frame.Payload.prefix p 16

let payload_fields payload =
  [
    ("payload", Json.String (payload_label payload));
    ("len", Json.Int (Frame.Payload.length payload));
  ]

let kind_fields = function
  | Probe (Dlc.Probe.Offered { payload }) -> payload_fields payload
  | Probe (Dlc.Probe.Tx { seq; payload; retx = _ })
  | Probe (Dlc.Probe.Released { seq; payload })
  | Probe (Dlc.Probe.Requeued { seq; payload })
  | Probe (Dlc.Probe.Delivered { seq; payload }) ->
      ("seq", Json.Int seq) :: payload_fields payload
  | Probe Dlc.Probe.Recovery_started
  | Probe Dlc.Probe.Recovery_completed
  | Probe Dlc.Probe.Failure_declared
  | Probe (Dlc.Probe.Link_transition _) -> []
  | Probe (Dlc.Probe.Cp_emitted { cp_seq; next_expected; enforced; stop_go; naks })
    ->
      [
        ("cp_seq", Json.Int cp_seq);
        ("next_expected", Json.Int next_expected);
        ("enforced", Json.Bool enforced);
        ("stop_go", Json.Bool stop_go);
        ("naks", Json.List (List.map (fun n -> Json.Int n) naks));
      ]
  | Probe (Dlc.Probe.State_corrupted { klass; detail }) ->
      [ ("class", Json.String klass); ("detail", Json.String detail) ]
  | Probe (Dlc.Probe.Converged { after; anomalies }) ->
      [ ("after", Json.Float after); ("anomalies", Json.Int anomalies) ]
  | Probe (Dlc.Probe.Cp_quarantined { cp_seq; reason; distrust }) ->
      [
        ("cp_seq", Json.Int cp_seq);
        ("reason", Json.String reason);
        ("distrust", Json.Int distrust);
      ]
  | Probe (Dlc.Probe.Resync_forced { attempt }) ->
      [ ("attempt", Json.Int attempt) ]
  | Fault { link; action; frame } ->
      [
        ("link", Json.String link);
        ("action", Json.String action);
        ("frame", Json.String frame);
      ]
  | Violation { invariant; detail } ->
      [
        ("invariant", Json.String invariant);
        ("detail", Json.String detail);
      ]

let to_json e =
  Json.Obj
    (("i", Json.Int e.i)
    :: ("t", Json.Float e.time)
    :: ("ev", Json.String (name e))
    :: kind_fields e.kind)

let to_line e = Json.to_string ~indent:0 (to_json e)

(* --- decoding ----------------------------------------------------------- *)

let ( let* ) r f = Result.bind r f

let field j key conv =
  match Json.member key j with
  | None -> Error (Printf.sprintf "missing field %S" key)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S has the wrong type" key))

let int_field j key = field j key Json.to_int

let str_field j key = field j key Json.to_str

let bool_field j key =
  field j key (function Json.Bool b -> Some b | _ -> None)

let float_field j key = field j key Json.to_float

(* The label is the image's first 16 bytes; the fill stands in for the
   rest, so the rebuilt descriptor has the recorded length. *)
let payload_field j =
  let* label = str_field j "payload" in
  let* len = int_field j "len" in
  if String.length label <> min 16 len then
    Error (Printf.sprintf "payload label %S does not fit len %d" label len)
  else Ok (Frame.Payload.make ~stem:label ~len)

let seq_payload j mk =
  let* seq = int_field j "seq" in
  let* payload = payload_field j in
  Ok (mk ~seq ~payload)

let kind_of_json j = function
  | "offered" ->
      let* payload = payload_field j in
      Ok (Probe (Dlc.Probe.Offered { payload }))
  | "tx" | "retx" ->
      let retx = Json.member "ev" j = Some (Json.String "retx") in
      seq_payload j (fun ~seq ~payload ->
          Probe (Dlc.Probe.Tx { seq; payload; retx }))
  | "released" ->
      seq_payload j (fun ~seq ~payload ->
          Probe (Dlc.Probe.Released { seq; payload }))
  | "requeued" ->
      seq_payload j (fun ~seq ~payload ->
          Probe (Dlc.Probe.Requeued { seq; payload }))
  | "delivered" ->
      seq_payload j (fun ~seq ~payload ->
          Probe (Dlc.Probe.Delivered { seq; payload }))
  | "recovery-started" -> Ok (Probe Dlc.Probe.Recovery_started)
  | "recovery-completed" -> Ok (Probe Dlc.Probe.Recovery_completed)
  | "failure-declared" -> Ok (Probe Dlc.Probe.Failure_declared)
  | "link-up" -> Ok (Probe (Dlc.Probe.Link_transition { state = Link_up }))
  | "link-retargeting" ->
      Ok (Probe (Dlc.Probe.Link_transition { state = Link_retargeting }))
  | "link-down" -> Ok (Probe (Dlc.Probe.Link_transition { state = Link_down }))
  | "link-failed" ->
      Ok (Probe (Dlc.Probe.Link_transition { state = Link_failed }))
  | "cp" | "cp-nak" ->
      let* cp_seq = int_field j "cp_seq" in
      let* next_expected = int_field j "next_expected" in
      let* enforced = bool_field j "enforced" in
      let* stop_go = bool_field j "stop_go" in
      let* naks =
        field j "naks" (fun v ->
            match Json.to_list v with
            | None -> None
            | Some items ->
                let rec ints acc = function
                  | [] -> Some (List.rev acc)
                  | Json.Int n :: rest -> ints (n :: acc) rest
                  | _ -> None
                in
                ints [] items)
      in
      Ok
        (Probe
           (Dlc.Probe.Cp_emitted
              { cp_seq; next_expected; enforced; stop_go; naks }))
  | "state-corrupted" ->
      let* klass = str_field j "class" in
      let* detail = str_field j "detail" in
      Ok (Probe (Dlc.Probe.State_corrupted { klass; detail }))
  | "converged" ->
      let* after = float_field j "after" in
      let* anomalies = int_field j "anomalies" in
      Ok (Probe (Dlc.Probe.Converged { after; anomalies }))
  | "cp-quarantined" ->
      let* cp_seq = int_field j "cp_seq" in
      let* reason = str_field j "reason" in
      let* distrust = int_field j "distrust" in
      Ok (Probe (Dlc.Probe.Cp_quarantined { cp_seq; reason; distrust }))
  | "resync-forced" ->
      let* attempt = int_field j "attempt" in
      Ok (Probe (Dlc.Probe.Resync_forced { attempt }))
  | "fault" ->
      let* link = str_field j "link" in
      let* action = str_field j "action" in
      let* frame = str_field j "frame" in
      Ok (Fault { link; action; frame })
  | "violation" ->
      let* invariant = str_field j "invariant" in
      let* detail = str_field j "detail" in
      Ok (Violation { invariant; detail })
  | other -> Error (Printf.sprintf "unknown event tag %S" other)

let of_json j =
  let* i = int_field j "i" in
  let* time = float_field j "t" in
  let* ev = str_field j "ev" in
  let* kind = kind_of_json j ev in
  if i < 0 then Error "negative event index"
  else if not (Float.is_finite time) then Error "non-finite timestamp"
  else
    let e = { i; time; kind } in
    (* the tag must agree with the payload it claims to carry *)
    if name e <> ev then
      Error (Printf.sprintf "tag %S does not match fields (expected %S)" ev (name e))
    else Ok e

let of_line line =
  match Json.of_string line with
  | Error e -> Error e
  | Ok j -> of_json j
