(* Unit-level LAMS-DLC sender tests: hand-built checkpoints in, I-frame
   transmissions and buffer-lifecycle probe events out. These pin down
   the outstanding-frame bookkeeping (NAK requeueing, the coverage scan,
   draining, the corruption surface) without a receiver in the loop. *)

type harness = {
  engine : Sim.Engine.t;
  sender : Lams_dlc.Sender.t;
  metrics : Dlc.Metrics.t;
  txed : (int * string) list ref;  (* (seq, payload), newest first *)
  resolved : string list ref;  (* "released 3", "requeued 4"; newest first *)
}

let make () =
  let engine = Sim.Engine.create () in
  let forward =
    Channel.Link.create engine
      ~rng:(Sim.Rng.create ~seed:1)
      ~distance:(Channel.Link.Fixed 1000.) ~data_rate_bps:1e9
      ~iframe_error:Channel.Error_model.perfect
      ~cframe_error:Channel.Error_model.perfect
  in
  let txed = ref [] in
  Channel.Link.add_tap forward (fun ev ->
      match ev with
      | Channel.Link.Tap_tx (Frame.Wire.Data i) ->
          txed :=
            (i.Frame.Iframe.seq, Frame.Payload.to_string i.Frame.Iframe.payload)
            :: !txed
      | _ -> ());
  Channel.Link.set_receiver forward (fun _ -> ());
  let resolved = ref [] in
  let probe = Dlc.Probe.create () in
  Dlc.Probe.subscribe probe (fun ~now:_ ev ->
      match ev with
      | Dlc.Probe.Released { seq; _ } ->
          resolved := Printf.sprintf "released %d" seq :: !resolved
      | Dlc.Probe.Requeued { seq; _ } ->
          resolved := Printf.sprintf "requeued %d" seq :: !resolved
      | _ -> ());
  (* a 1 s checkpoint interval keeps the checkpoint timer, and with it
     enforced recovery, out of every test *)
  let params = { Lams_dlc.Params.default with Lams_dlc.Params.w_cp = 1. } in
  let metrics = Dlc.Metrics.create () in
  let sender =
    Lams_dlc.Sender.create engine ~params ~forward ~metrics ~probe
  in
  { engine; sender; metrics; txed; resolved }

let run_for h dt = Sim.Engine.run h.engine ~until:(Sim.Engine.now h.engine +. dt)

(* Offer payloads "p<first>".."p<first+n-1>"; the caller decides whether
   the engine runs (and so whether all of them go out). *)
let offer h ~first n =
  for i = first to first + n - 1 do
    let payload = Frame.Payload.of_string (Printf.sprintf "p%d" i) in
    if not (Lams_dlc.Sender.offer h.sender payload) then
      Alcotest.failf "offer p%d refused" i
  done

(* A checkpoint issued at [issue_time] (default: now). One issued now
   covers every frame sent at least a flight time ago; one issued at 0
   covers nothing, so only its NAKs act. *)
let checkpoint h ?issue_time ~next_expected naks =
  let issue_time =
    match issue_time with Some t -> t | None -> Sim.Engine.now h.engine
  in
  Lams_dlc.Sender.on_rx h.sender
    {
      Channel.Link.frame =
        Frame.Wire.Control
          (Frame.Cframe.checkpoint ~cp_seq:0 ~issue_time ~stop_go:false
             ~enforced:false ~next_expected ~naks:(Array.of_list naks));
      status = Channel.Link.Rx_ok;
    }

let txed_seqs h = List.rev_map fst !(h.txed)

(* Report the delivery of [seq] now: the delay the sender adds to the
   [delivery_delay] metric, or [None] when it adds none. *)
let deliver h seq =
  let d = h.metrics.Dlc.Metrics.delivery_delay in
  let total () =
    let n = Stats.Online.count d in
    if n = 0 then 0. else Stats.Online.mean d *. float_of_int n
  in
  let n = Stats.Online.count d and before = total () in
  Lams_dlc.Sender.note_delivered h.sender seq;
  if Stats.Online.count d = n then None else Some (total () -. before)

let resolved h = List.rev !(h.resolved)

let check_outstanding h seqs ~expect =
  List.iter
    (fun seq ->
      Alcotest.(check bool)
        (Printf.sprintf "seq %d outstanding" seq)
        expect
        (Lams_dlc.Sender.is_outstanding h.sender seq))
    seqs

let test_coverage_releases_and_requeues () =
  let h = make () in
  offer h ~first:0 6;
  run_for h 1e-3;
  Alcotest.(check (list int)) "sent" [ 0; 1; 2; 3; 4; 5 ] (txed_seqs h);
  checkpoint h ~next_expected:4 [];
  Alcotest.(check (list string)) "below next_expected released, the rest requeued"
    [
      "released 0"; "released 1"; "released 2"; "released 3"; "requeued 4";
      "requeued 5";
    ]
    (resolved h);
  Alcotest.(check int) "released count" 4 h.metrics.Dlc.Metrics.released;
  run_for h 1e-3;
  Alcotest.(check (list (pair int string)))
    "tail frames renumbered" [ (6, "p4"); (7, "p5") ]
    (List.filteri (fun i _ -> i < 2) !(h.txed) |> List.rev);
  check_outstanding h [ 0; 3; 4; 5 ] ~expect:false;
  check_outstanding h [ 6; 7 ] ~expect:true;
  Alcotest.(check int) "outstanding" 2 (Lams_dlc.Sender.outstanding h.sender);
  Alcotest.(check int) "backlog" 2 (Lams_dlc.Sender.backlog h.sender)

let test_coverage_stops_at_first_uncovered () =
  let h = make () in
  offer h ~first:0 2;
  run_for h 1e-3;
  offer h ~first:2 2;
  run_for h 1e-3;
  (* issued at 1 ms: seqs 0 and 1 (predicted to arrive a few µs after
     t = 0) are covered, seqs 2 and 3 (sent at 1 ms) are not *)
  checkpoint h ~issue_time:1e-3 ~next_expected:2 [];
  Alcotest.(check (list string))
    "only the early frames" [ "released 0"; "released 1" ] (resolved h);
  check_outstanding h [ 2; 3 ] ~expect:true

let test_stale_naks_ignored () =
  let h = make () in
  offer h ~first:0 6;
  run_for h 1e-3;
  checkpoint h ~next_expected:4 [];
  run_for h 1e-3;
  h.resolved := [];
  let retx = h.metrics.Dlc.Metrics.retransmissions in
  (* 0 was released, 4 requeued (and resent as 6), 100 never sent *)
  checkpoint h ~issue_time:0. ~next_expected:4 [ 0; 4; 100 ];
  run_for h 1e-3;
  Alcotest.(check (list string)) "nothing resolved" [] (resolved h);
  Alcotest.(check int)
    "no retransmission" retx h.metrics.Dlc.Metrics.retransmissions;
  (* a NAK repeated within one list acts once *)
  checkpoint h ~issue_time:0. ~next_expected:4 [ 6; 6 ];
  run_for h 1e-3;
  Alcotest.(check (list string)) "one requeue" [ "requeued 6" ] (resolved h);
  Alcotest.(check int) "one retransmission" (retx + 1)
    h.metrics.Dlc.Metrics.retransmissions

let test_drain_order () =
  let h = make () in
  offer h ~first:0 4;
  run_for h 1e-3;
  (* without running the engine: p4 takes the idle link as seq 4, p5
     waits behind it, and the NAKed p1 and p2 wait for retransmission *)
  offer h ~first:4 2;
  checkpoint h ~issue_time:0. ~next_expected:0 [ 1; 2 ];
  Alcotest.(check int) "backlog" 6 (Lams_dlc.Sender.backlog h.sender);
  let drained =
    List.map
      (fun (u : Lams_dlc.Sender.unresolved) ->
        ( Frame.Payload.to_string u.Lams_dlc.Sender.payload,
          match u.Lams_dlc.Sender.verdict with
          | `Suspicious -> "suspicious"
          | `Not_delivered -> "not delivered" ))
      (Lams_dlc.Sender.drain_unresolved h.sender)
  in
  Alcotest.(check (list (pair string string)))
    "outstanding in transmission order, then retx, then fresh"
    [
      ("p0", "suspicious"); ("p3", "suspicious"); ("p4", "suspicious");
      ("p1", "not delivered"); ("p2", "not delivered"); ("p5", "not delivered");
    ]
    drained;
  Alcotest.(check int) "emptied" 0 (Lams_dlc.Sender.backlog h.sender);
  check_outstanding h [ 0; 3; 4 ] ~expect:false

let test_duplicate_entry_and_span_peak () =
  let h = make () in
  Alcotest.(check (option string)) "nothing outstanding" None
    (Lams_dlc.Sender.duplicate_buffer_entry h.sender);
  offer h ~first:0 3;
  run_for h 1e-3;
  Alcotest.(check int)
    "span of 0..2" 3
    (Lams_dlc.Sender.outstanding_span_peak h.sender);
  Alcotest.(check (option string)) "oldest duplicated"
    (Some "duplicated unreleased seq 0 into the retx queue")
    (Lams_dlc.Sender.duplicate_buffer_entry h.sender);
  run_for h 1e-3;
  Alcotest.(check (pair int string))
    "extra copy renumbered" (3, "p0") (List.hd !(h.txed));
  Alcotest.(check int)
    "both copies outstanding" 4
    (Lams_dlc.Sender.outstanding h.sender);
  Alcotest.(check int)
    "span of 0..3" 4
    (Lams_dlc.Sender.outstanding_span_peak h.sender);
  (* resolving the two oldest moves the front: 4 and 5 span only 2..5 *)
  checkpoint h ~issue_time:0. ~next_expected:0 [ 0; 1 ];
  run_for h 1e-3;
  Alcotest.(check (list int)) "resent" [ 0; 1; 2; 3; 4; 5 ] (txed_seqs h);
  Alcotest.(check int)
    "peak kept" 4
    (Lams_dlc.Sender.outstanding_span_peak h.sender);
  Alcotest.(check (option string)) "front skips resolved frames"
    (Some "duplicated unreleased seq 2 into the retx queue")
    (Lams_dlc.Sender.duplicate_buffer_entry h.sender)

let test_scrambled_seq_gap () =
  let h = make () in
  offer h ~first:0 3;
  run_for h 1e-3;
  Alcotest.(check (option string)) "jump"
    (Some "sender next_seq 3 -> 1000003")
    (Lams_dlc.Sender.scramble_send_seq h.sender ~delta:1_000_000);
  offer h ~first:3 3;
  run_for h 1e-3;
  Alcotest.(check (list int)) "numbers jump the gap"
    [ 0; 1; 2; 1_000_003; 1_000_004; 1_000_005 ]
    (txed_seqs h);
  Alcotest.(check int) "span across the gap" 1_000_006
    (Lams_dlc.Sender.outstanding_span_peak h.sender);
  Alcotest.(check int)
    "six outstanding" 6
    (Lams_dlc.Sender.outstanding h.sender);
  (* delays on both sides of the gap: seq 1 sits at its slot from the
     front, 1_000_004 only a binary search finds *)
  let now = Sim.Engine.now h.engine in
  Alcotest.(check (option (float 1e-12))) "delay below the gap" (Some now)
    (deliver h 1);
  Alcotest.(check (option (float 1e-12))) "delay across the gap"
    (Some (now -. 1e-3))
    (deliver h 1_000_004);
  Alcotest.(check (option (float 0.))) "no delay inside the gap" None
    (deliver h 500_000);
  (* NAKs on both sides of the gap act; one inside it is a phantom *)
  checkpoint h ~issue_time:0. ~next_expected:0 [ 1; 500_000; 1_000_004 ];
  run_for h 1e-3;
  Alcotest.(check (list string)) "requeued on both sides"
    [ "requeued 1"; "requeued 1000004" ]
    (resolved h);
  Alcotest.(check (list (pair int string)))
    "resent above the gap" [ (1_000_006, "p1"); (1_000_007, "p4") ]
    (List.filteri (fun i _ -> i < 2) !(h.txed) |> List.rev);
  Alcotest.(check (option (float 1e-12))) "retransmission keeps the offer time"
    (Some (Sim.Engine.now h.engine))
    (deliver h 1_000_006);
  check_outstanding h [ 500_000; 1_000_002 ] ~expect:false;
  (* coverage releases on both sides, requeues at and above the frontier *)
  h.resolved := [];
  checkpoint h ~next_expected:1_000_005 [];
  Alcotest.(check (list string)) "coverage across the gap"
    [
      "released 0"; "released 2"; "released 1000003"; "requeued 1000005";
      "requeued 1000006"; "requeued 1000007";
    ]
    (resolved h);
  (* the checkpoint's own send attempt takes the first requeued frame *)
  Alcotest.(check (list int)) "only the new copy outstanding" [ 1_000_008 ]
    (List.filter (Lams_dlc.Sender.is_outstanding h.sender) (txed_seqs h));
  Alcotest.(check int)
    "three awaiting delivery" 3
    (Lams_dlc.Sender.backlog h.sender)

(* A duplicated entry has a buffer slot of its own. Here the copy is
   still queued when its original is released, and new payloads are
   offered before the copy goes out: a copy that shared the original's
   slot would find it freed and handed to one of them. *)
let test_duplicate_outlives_original () =
  let h = make () in
  (* 1,000 bytes keep the 1 Gbit/s link busy for about 8 us *)
  let big = String.make 1000 'a' in
  Alcotest.(check bool) "offered" true
    (Lams_dlc.Sender.offer h.sender (Frame.Payload.of_string big));
  run_for h 2e-6;
  Alcotest.(check (option string)) "duplicated while seq 0 is on the wire"
    (Some "duplicated unreleased seq 0 into the retx queue")
    (Lams_dlc.Sender.duplicate_buffer_entry h.sender);
  checkpoint h ~issue_time:1. ~next_expected:1 [];
  Alcotest.(check (list string)) "original released" [ "released 0" ] (resolved h);
  offer h ~first:1 2;
  run_for h 1e-3;
  Alcotest.(check (list (pair int string)))
    "the copy carries its own payload"
    [ (0, big); (1, big); (2, "p1"); (3, "p2") ]
    (List.rev !(h.txed));
  Alcotest.(check (option (float 1e-12))) "copy's delay runs from the original offer"
    (Some (Sim.Engine.now h.engine))
    (deliver h 1);
  Alcotest.(check (option (float 1e-12))) "a new payload's from its own"
    (Some (Sim.Engine.now h.engine -. 2e-6))
    (deliver h 2)

let suite =
  [
    Alcotest.test_case "coverage releases below next_expected, requeues the rest"
      `Quick test_coverage_releases_and_requeues;
    Alcotest.test_case "coverage stops at the first uncovered frame" `Quick
      test_coverage_stops_at_first_uncovered;
    Alcotest.test_case "NAKs for resolved seqs ignored" `Quick
      test_stale_naks_ignored;
    Alcotest.test_case "drain order" `Quick test_drain_order;
    Alcotest.test_case "duplicate buffer entry and span peak" `Quick
      test_duplicate_entry_and_span_peak;
    Alcotest.test_case "scrambled seq gap of 1,000,000" `Quick
      test_scrambled_seq_gap;
    Alcotest.test_case "duplicate outlives its released original" `Quick
      test_duplicate_outlives_original;
  ]
