(* Differential property: [Hdlc.Session], whose sender and receiver keep
   their per-frame state in columns indexed by the sequence number,
   against the reference in ref_hdlc.ml (the hashed tables and queues it
   replaced), both instances of [Dlc.Session.Make]. On random parameters,
   wire fault scripts on both links and state-corruption schedules, the
   two must publish the same probe events and put the same traffic on
   both links, at the same instants and in the same order. *)

module Ref_session = Dlc.Session.Make (Ref_hdlc)

module type SESSION = Dlc.Session.S with type params = Hdlc.Params.t

type case = {
  params : Hdlc.Params.t;
  seed : int;
  ber : float;
  frames : int;
  forward : (Channel.Fault.selector * Channel.Fault.action * int) list;
  reverse : (Channel.Fault.selector * Channel.Fault.action * int) list;
  corrupt : Dlc.Corrupt.rule list;
}

let print_case c =
  let p = c.params in
  Printf.sprintf
    "%s stutter=%b seq_bits=%d window=%d guard=%b, seed %d, ber %g, %d frames\n\
    \  forward: [%s]\n\
    \  reverse: [%s]\n\
    \  %s"
    (match p.Hdlc.Params.mode with
    | Hdlc.Params.Selective_repeat -> "SR"
    | Hdlc.Params.Go_back_n -> "GBN")
    p.Hdlc.Params.stutter p.Hdlc.Params.seq_bits p.Hdlc.Params.window
    (p.Hdlc.Params.guard <> None) c.seed c.ber c.frames
    (Test_oracle.script_to_string c.forward)
    (Test_oracle.script_to_string c.reverse)
    (Dlc.Corrupt.describe (Dlc.Corrupt.compile (Dlc.Corrupt.Rules c.corrupt)))

let gen_params =
  QCheck2.Gen.(
    let* mode = oneofl [ Hdlc.Params.Selective_repeat; Hdlc.Params.Go_back_n ] in
    let* stutter = bool in
    let* seq_bits = int_range 3 8 in
    let m = 1 lsl seq_bits in
    let* window =
      int_range 1
        (match mode with
        | Hdlc.Params.Selective_repeat -> m / 2
        | Hdlc.Params.Go_back_n -> m - 1)
    in
    let* guard = opt (return Dlc.Guard.default_config) in
    return { Hdlc.Params.default with mode; stutter; seq_bits; window; guard })

(* Any selector an HDLC link can match, and every action, lies included. *)
let gen_rule ~m ~frames =
  QCheck2.Gen.(
    let* sel =
      oneof
        [
          map (fun n -> Channel.Fault.I_seq n) (int_range 0 (m - 1));
          map
            (fun i -> Channel.Fault.I_payload (Proto_harness.payload i))
            (int_range 0 (frames - 1));
          map (fun n -> Channel.Fault.I_nth n) (int_range 0 200);
          map (fun n -> Channel.Fault.Control_nth n) (int_range 0 200);
          oneofl
            Channel.Fault.[ Cp_nak; Any_iframe; Any_control; Any_frame ];
        ]
    and* act =
      oneof
        [
          oneofl
            Channel.Fault.[ Drop; Corrupt_payload; Corrupt_header; Forge_ack ];
          map (fun back -> Channel.Fault.Inject_stale_cp { back }) (int_range 1 8);
        ]
    and* copies = int_range 1 4 in
    return (sel, act, copies))

(* Every class a session supports. Poisoned offsets reach from a whole
   modulus below V(R) to two above it, and receiver scrambles go both
   ways, so corrupted state lands anywhere in the sequence space. *)
let gen_corrupt ~bits =
  let m = 1 lsl bits in
  QCheck2.Gen.(
    let* klass =
      oneof
        [
          map
            (fun delta -> Dlc.Corrupt.Seq_scramble { side = Send; delta })
            (int_range 1 m);
          map
            (fun delta -> Dlc.Corrupt.Seq_scramble { side = Recv; delta })
            (int_range (-m) m);
          map
            (fun seqs -> Dlc.Corrupt.Nak_poison { seqs })
            (list_size (int_range 1 6) (int_range (-m) ((2 * m) - 1)));
          return Dlc.Corrupt.Nak_truncate;
          return Dlc.Corrupt.Buffer_duplicate;
          map2
            (fun copies back -> Dlc.Corrupt.Reverse_replay { copies; back })
            (int_range 1 3) (int_range 0 8);
        ]
    and* at = float_range 0. 0.3
    and* copies = int_range 1 3
    and* period = opt (float_range 1e-3 5e-2) in
    return (Dlc.Corrupt.rule ~copies ?period ~at klass))

let gen_case =
  QCheck2.Gen.(
    let* params = gen_params in
    let* frames = int_range 1 150 in
    let m = Hdlc.Params.modulus params in
    let* seed = int_range 0 1000
    and* ber = oneofl [ 0.; 1e-4; 5e-4 ]
    and* forward = list_size (int_range 0 4) (gen_rule ~m ~frames)
    and* reverse = list_size (int_range 0 4) (gen_rule ~m ~frames)
    and* corrupt =
      list_size (int_range 0 5) (gen_corrupt ~bits:params.Hdlc.Params.seq_bits)
    in
    return { params; seed; ber; frames; forward; reverse; corrupt })

type observation =
  | Probe of float * Dlc.Probe.event
  | Tap of float * string * Channel.Link.tap_event

let show_wire w = Format.asprintf "%a" Frame.Wire.pp w

let show_probe = function
  | Dlc.Probe.Offered { payload } -> "offered " ^ Frame.Payload.to_string payload
  | Tx { seq; payload; retx } ->
      Printf.sprintf "tx %d %s%s" seq (Frame.Payload.to_string payload)
        (if retx then " retx" else "")
  | Released { seq; _ } -> Printf.sprintf "released %d" seq
  | Requeued { seq; _ } -> Printf.sprintf "requeued %d" seq
  | Delivered { seq; payload } ->
      Printf.sprintf "delivered %d %s" seq (Frame.Payload.to_string payload)
  | Cp_emitted { cp_seq; next_expected; naks; _ } ->
      Printf.sprintf "cp %d nr=%d naks=[%s]" cp_seq next_expected
        (String.concat ";" (List.map string_of_int naks))
  | State_corrupted { klass; detail } ->
      Printf.sprintf "corrupted %s: %s" klass detail
  | Cp_quarantined { cp_seq; reason; distrust } ->
      Printf.sprintf "quarantined %d %s %d" cp_seq reason distrust
  | Resync_forced { attempt } -> Printf.sprintf "resync %d" attempt
  | Recovery_started -> "recovery started"
  | Recovery_completed -> "recovery completed"
  | Failure_declared -> "failure declared"
  | Link_transition _ | Converged _ -> "other"

let show = function
  | Probe (now, ev) -> Printf.sprintf "[%h] probe %s" now (show_probe ev)
  | Tap (now, link, Channel.Link.Tap_tx w) ->
      Printf.sprintf "[%h] %s tx %s" now link (show_wire w)
  | Tap (now, link, Channel.Link.Tap_rx rx) ->
      Printf.sprintf "[%h] %s rx %s" now link (show_wire rx.Channel.Link.frame)
  | Tap (now, link, Channel.Link.Tap_lost w) ->
      Printf.sprintf "[%h] %s lost %s" now link (show_wire w)

(* Everything one session publishes, in order, over 0.8 s of simulated
   time: long enough for N2 timeouts to exhaust, at a line rate slow
   enough that a stuttering sender stays cheap. *)
let observe (module S : SESSION) c =
  let engine = Sim.Engine.create () in
  let duplex =
    Channel.Duplex.create_static engine
      ~rng:(Sim.Rng.create ~seed:c.seed)
      ~distance_m:1e6 ~data_rate_bps:1e6
      ~iframe_error:(Channel.Error_model.uniform ~ber:c.ber ())
      ~cframe_error:(Channel.Error_model.uniform ~ber:(c.ber /. 4.) ())
  in
  let session = S.create engine ~params:c.params ~duplex in
  let log = ref [] in
  let tap name link =
    Channel.Link.add_tap link (fun ev ->
        log := Tap (Sim.Engine.now engine, name, ev) :: !log)
  in
  tap "forward" duplex.Channel.Duplex.forward;
  tap "reverse" duplex.Channel.Duplex.reverse;
  Dlc.Probe.subscribe (S.probe session) (fun ~now ev ->
      log := Probe (now, ev) :: !log);
  Channel.Fault.install (Test_oracle.compile_script c.forward)
    duplex.Channel.Duplex.forward;
  Channel.Fault.install (Test_oracle.compile_script c.reverse)
    duplex.Channel.Duplex.reverse;
  Dlc.Corrupt.install
    (Dlc.Corrupt.compile (Dlc.Corrupt.Rules c.corrupt))
    engine ~surface:(S.corrupt_surface session) ~probe:(S.probe session);
  let dlc = S.as_dlc session in
  for i = 0 to c.frames - 1 do
    ignore (dlc.Dlc.Session.offer (Proto_harness.payload i) : bool)
  done;
  Sim.Engine.run engine ~until:0.8;
  Array.of_list (List.rev !log)

let check_case c =
  let got = observe (module Hdlc.Session) c
  and want = observe (module Ref_session) c in
  let n = min (Array.length got) (Array.length want) in
  let i = ref 0 in
  while !i < n && got.(!i) = want.(!i) do
    incr i
  done;
  if !i < n || Array.length got <> Array.length want then begin
    let at a j = if j < Array.length a then show a.(j) else "(end)" in
    let context = ref [] in
    for j = max 0 (!i - 3) to !i - 1 do
      context := ("  " ^ show want.(j)) :: !context
    done;
    QCheck2.Test.fail_reportf
      "observation %d of %d/%d differs:\n%s\n  columns:   %s\n  reference: %s" !i
      (Array.length got) (Array.length want)
      (String.concat "\n" (List.rev !context))
      (at got !i) (at want !i)
  end;
  true

let prop_matches_reference =
  QCheck2.Test.make ~name:"Hdlc.Session matches the reference" ~count:150
    ~print:print_case gen_case check_case

let suite = [ QCheck_alcotest.to_alcotest prop_matches_reference ]
