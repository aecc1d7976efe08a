(* Unit-level LAMS-DLC receiver tests: synthetic arrivals in, emitted
   checkpoint commands out. These pin down the NAK state machine (gap
   detection, cumulation window, enforced replay) without a sender in the
   loop. *)

type harness = {
  engine : Sim.Engine.t;
  receiver : Lams_dlc.Receiver.t;
  sent : Frame.Cframe.checkpoint list ref;  (* newest first *)
}

let make ?(w_cp = 1e-3) ?(c_depth = 3) ?(tune = Fun.id) () =
  let engine = Sim.Engine.create () in
  (* reverse link: captures what the receiver emits *)
  let reverse =
    Channel.Link.create engine
      ~rng:(Sim.Rng.create ~seed:1)
      ~distance_m:(fun _ -> 1000.) ~data_rate_bps:1e9
      ~iframe_error:Channel.Error_model.perfect
      ~cframe_error:Channel.Error_model.perfect
  in
  let sent = ref [] in
  Channel.Link.add_tap reverse (fun ev ->
      match ev with
      | Channel.Link.Tap_tx (Frame.Wire.Control (Frame.Cframe.Checkpoint cp)) ->
          sent := cp :: !sent
      | _ -> ());
  Channel.Link.set_receiver reverse (fun _ -> ());
  let params =
    tune { Lams_dlc.Params.default with Lams_dlc.Params.w_cp; c_depth }
  in
  let receiver =
    Lams_dlc.Receiver.create engine ~params ~reverse
      ~metrics:(Dlc.Metrics.create ()) ~probe:(Dlc.Probe.create ())
  in
  { engine; receiver; sent }

let arrive h ?(status = Channel.Link.Rx_ok) seq =
  Lams_dlc.Receiver.on_rx h.receiver
    {
      Channel.Link.frame =
        Frame.Wire.Data
          (Frame.Iframe.create ~seq ~payload:(Frame.Payload.of_string "unit"));
      status;
    }

let run_for h dt = Sim.Engine.run h.engine ~until:(Sim.Engine.now h.engine +. dt)

let latest_cp h =
  match !(h.sent) with
  | cp :: _ -> cp
  | [] -> Alcotest.fail "no checkpoint emitted"

let test_clean_stream_empty_naks () =
  let h = make () in
  arrive h 0;
  arrive h 1;
  arrive h 2;
  run_for h 1.5e-3;
  let cp = latest_cp h in
  Alcotest.(check (list int)) "no naks" [] cp.Frame.Cframe.naks;
  Alcotest.(check int) "frontier" 3 cp.Frame.Cframe.next_expected

let test_gap_is_naked () =
  let h = make () in
  arrive h 0;
  arrive h 3;
  (* 1 and 2 skipped *)
  run_for h 1.5e-3;
  let cp = latest_cp h in
  Alcotest.(check (list int)) "gap naks" [ 1; 2 ] cp.Frame.Cframe.naks;
  Alcotest.(check int) "frontier past the gap" 4 cp.Frame.Cframe.next_expected

let test_payload_corrupt_naked_and_frontier_advances () =
  let h = make () in
  arrive h 0;
  arrive h ~status:Channel.Link.Rx_payload_corrupt 1;
  arrive h 2;
  run_for h 1.5e-3;
  let cp = latest_cp h in
  Alcotest.(check (list int)) "corrupt frame naked" [ 1 ] cp.Frame.Cframe.naks;
  Alcotest.(check int) "frontier includes it" 3 cp.Frame.Cframe.next_expected

let test_header_corrupt_invisible_until_gap () =
  let h = make () in
  arrive h 0;
  arrive h ~status:Channel.Link.Rx_header_corrupt 1;
  run_for h 1.5e-3;
  (* the unidentifiable arrival alone reveals nothing *)
  Alcotest.(check (list int)) "nothing to nak yet" []
    (latest_cp h).Frame.Cframe.naks;
  (* a later identifiable frame reveals the hole *)
  arrive h 2;
  run_for h 1e-3;
  Alcotest.(check (list int)) "gap detected now" [ 1 ]
    (latest_cp h).Frame.Cframe.naks

let test_cumulation_depth_exactly_c_checkpoints () =
  let h = make ~c_depth:3 () in
  arrive h 0;
  arrive h 2;
  (* seq 1 missing: it must appear in exactly 3 consecutive checkpoints *)
  run_for h 4.5e-3;
  (* >= 4 checkpoints have fired by now *)
  let with_nak =
    List.filter (fun cp -> List.mem 1 cp.Frame.Cframe.naks) !(h.sent)
  in
  Alcotest.(check int) "reported exactly c_depth times" 3 (List.length with_nak)

let test_enforced_nak_replays_old_errors () =
  let h = make ~c_depth:2 () in
  arrive h 0;
  arrive h 5;
  (* errors 1-4 recorded *)
  run_for h 10e-3;
  (* far beyond the cumulation window: regular checkpoints no longer
     carry them *)
  Alcotest.(check (list int)) "window expired" [] (latest_cp h).Frame.Cframe.naks;
  (* a Request-NAK forces the complete log back out *)
  Lams_dlc.Receiver.on_rx h.receiver
    {
      Channel.Link.frame =
        Frame.Wire.Control (Frame.Cframe.request_nak ~issue_time:0.);
      status = Channel.Link.Rx_ok;
    };
  run_for h 1e-4;
  (* a regular checkpoint may interleave; find the enforced answer *)
  match List.find_opt (fun cp -> cp.Frame.Cframe.enforced) !(h.sent) with
  | None -> Alcotest.fail "no enforced checkpoint emitted"
  | Some cp ->
      Alcotest.(check (list int)) "full log replayed" [ 1; 2; 3; 4 ]
        cp.Frame.Cframe.naks

let test_duplicate_arrival_counted () =
  let h = make () in
  arrive h 0;
  arrive h 1;
  arrive h 0;
  (* impossible on a FIFO link; receiver tolerates and counts it *)
  Alcotest.(check int) "frontier unchanged" 2
    (Lams_dlc.Receiver.next_expected h.receiver);
  run_for h 1.5e-3;
  Alcotest.(check (list int)) "no naks" [] (latest_cp h).Frame.Cframe.naks

let test_checkpoint_cadence () =
  let h = make ~w_cp:1e-3 () in
  run_for h 10.5e-3;
  Alcotest.(check int) "one checkpoint per interval" 10
    (Lams_dlc.Receiver.checkpoints_sent h.receiver);
  Lams_dlc.Receiver.stop h.receiver;
  Sim.Engine.run h.engine;
  Alcotest.(check int) "stop halts the schedule" 10
    (Lams_dlc.Receiver.checkpoints_sent h.receiver)

(* --- the NAK ledger against a Set.Make(Int) reference ------------------- *)

module Ref = Set.Make (Int)

let prop_seq_set_matches_set =
  (* ascending runs, repeats and inserts below the maximum, in any mix *)
  let gen_sets =
    QCheck2.Gen.(
      list_size (int_range 1 4) (list_size (int_range 0 60) (int_range (-5) 200)))
  in
  QCheck2.Test.make ~name:"Seq_set: add, to_list and union equal Set.Make(Int)"
    ~count:1000
    ~print:QCheck2.Print.(list (list int))
    gen_sets
    (fun lists ->
      let sets =
        Array.of_list (List.map (fun _ -> Lams_dlc.Seq_set.create ()) lists)
      in
      let refs = Array.make (Array.length sets) Ref.empty in
      List.iteri
        (fun j xs ->
          List.iter
            (fun x ->
              Lams_dlc.Seq_set.add sets.(j) x;
              refs.(j) <- Ref.add x refs.(j);
              if Lams_dlc.Seq_set.to_list sets.(j) <> Ref.elements refs.(j) then
                QCheck2.Test.fail_reportf "set %d after adding %d" j x)
            xs)
        lists;
      Lams_dlc.Seq_set.union_to_list sets
      = Ref.elements (Array.fold_left Ref.union Ref.empty refs))

(* The reference ledger, in Set.Make(Int) trees: the current interval,
   the last c_depth closed intervals (newest first) and the error log. *)
type reference = {
  depth : int;
  mutable next_expected : int;
  mutable current : Ref.t;
  mutable history : Ref.t list;
  mutable log : Ref.t;
}

let ref_mark r seq =
  r.current <- Ref.add seq r.current;
  r.log <- Ref.add seq r.log

let ref_checkpoint r =
  r.history <- List.filteri (fun i _ -> i < r.depth) (r.current :: r.history);
  r.current <- Ref.empty;
  Ref.elements (List.fold_left Ref.union Ref.empty r.history)

let ref_enforced r = Ref.elements (Ref.union r.log r.current)

type op =
  | Arrive of int * bool  (* next_expected + k, payload intact? *)
  | Late of int  (* a duplicate k + 1 below next_expected *)
  | Poison of int list  (* offsets from next_expected *)
  | Scramble of int  (* shift next_expected *)
  | Checkpoint
  | Truncate
  | Request_nak

let print_op = function
  | Arrive (k, ok) -> Printf.sprintf "Arrive(%d,%b)" k ok
  | Late k -> Printf.sprintf "Late %d" k
  | Poison l -> "Poison[" ^ String.concat ";" (List.map string_of_int l) ^ "]"
  | Scramble d -> Printf.sprintf "Scramble %d" d
  | Checkpoint -> "Checkpoint"
  | Truncate -> "Truncate"
  | Request_nak -> "Request_nak"

let gen_op =
  QCheck2.Gen.(
    frequency
      [
        (6, map2 (fun k ok -> Arrive (k, ok)) (int_range 0 4) bool);
        (1, map (fun k -> Late k) (int_range 0 5));
        ( 1,
          map (fun l -> Poison l) (list_size (int_range 1 4) (int_range (-20) 5))
        );
        (1, map (fun d -> Scramble d) (int_range (-15) 10));
        (3, pure Checkpoint);
        (1, pure Truncate);
        (1, pure Request_nak);
      ])

(* Drive a receiver (c_depth 0 included: built directly, as Params.validate
   would refuse it) and the reference through the same steps; after every
   step the Enforced-NAK ledger must agree, and every emitted checkpoint
   must carry the reference's NAK list. *)
let prop_ledger_matches_reference =
  QCheck2.Test.make ~name:"receiver NAK ledger equals the Set.Make(Int) reference"
    ~count:1000
    ~print:
      QCheck2.Print.(
        pair int (fun ops -> String.concat " " (List.map print_op ops)))
    QCheck2.Gen.(pair (int_range 0 4) (list_size (int_range 0 80) gen_op))
    (fun (c_depth, ops) ->
      (* w_cp = 1 s: checkpoints fire at whole seconds, steps run between *)
      let h = make ~w_cp:1. ~c_depth () in
      let r =
        {
          depth = c_depth;
          next_expected = 0;
          current = Ref.empty;
          history = [];
          log = Ref.empty;
        }
      in
      let ticks = ref 0 in
      run_for h 0.5;
      let last_cp what expect =
        let cp = latest_cp h in
        if cp.Frame.Cframe.naks <> expect then
          QCheck2.Test.fail_reportf "%s: receiver [%s], reference [%s]" what
            (String.concat ";" (List.map string_of_int cp.Frame.Cframe.naks))
            (String.concat ";" (List.map string_of_int expect))
      in
      let step op =
        (match op with
        | Arrive (k, ok) ->
            let seq = r.next_expected + k in
            for m = r.next_expected to seq - 1 do
              ref_mark r m
            done;
            r.next_expected <- seq + 1;
            if not ok then ref_mark r seq;
            let status =
              if ok then Channel.Link.Rx_ok else Channel.Link.Rx_payload_corrupt
            in
            arrive h ~status seq
        | Late k ->
            if r.next_expected > k then arrive h (r.next_expected - 1 - k)
        | Poison offsets ->
            List.iter (fun s -> ref_mark r (max 0 (r.next_expected + s))) offsets;
            ignore (Lams_dlc.Receiver.poison_nak_ledger h.receiver ~seqs:offsets)
        | Scramble d ->
            r.next_expected <- max 0 (r.next_expected + d);
            ignore (Lams_dlc.Receiver.scramble_recv_seq h.receiver ~delta:d)
        | Checkpoint ->
            incr ticks;
            run_for h (float_of_int !ticks +. 0.5 -. Sim.Engine.now h.engine);
            last_cp "checkpoint" (ref_checkpoint r)
        | Truncate ->
            let n = Ref.cardinal (Ref.union r.log r.current) in
            r.current <- Ref.empty;
            r.history <- [];
            r.log <- Ref.empty;
            if
              Lams_dlc.Receiver.truncate_nak_ledger h.receiver
              <> Some (Printf.sprintf "erased NAK ledger (%d entries forgotten)" n)
            then QCheck2.Test.fail_reportf "truncation count (reference %d)" n
        | Request_nak ->
            Lams_dlc.Receiver.on_rx h.receiver
              {
                Channel.Link.frame =
                  Frame.Wire.Control (Frame.Cframe.request_nak ~issue_time:0.);
                status = Channel.Link.Rx_ok;
              };
            (* long enough for the link to serialise any earlier answer *)
            run_for h 1e-3;
            last_cp "enforced-NAK" (ref_enforced r));
        if Lams_dlc.Receiver.next_expected h.receiver <> r.next_expected then
          QCheck2.Test.fail_reportf "next_expected after %s" (print_op op);
        if Lams_dlc.Receiver.outstanding_naks h.receiver <> ref_enforced r then
          QCheck2.Test.fail_reportf "ledger after %s" (print_op op)
      in
      List.iter step ops;
      true)

(* Drains settle in the engine's (time, seq) order, ties included. A
   frame arrives at 1/8 s and drains at 1/4 s, the instant of the first
   checkpoint. The checkpoint tick was scheduled before the drain, so it
   still counts the frame: with both watermarks at 0 it says Stop. An
   event scheduled after the drain, at the same instant, finds it gone.
   All instants are dyadic, so the tie is exact. *)
let test_drain_tie_order () =
  let h =
    make ~w_cp:0.25
      ~tune:(fun p ->
        {
          p with
          Lams_dlc.Params.t_proc = 0.125;
          recv_high_watermark = 0;
          recv_low_watermark = 0;
        })
      ()
  in
  let after = ref None in
  let at time f = ignore (Sim.Engine.schedule_at h.engine ~time f : Sim.Engine.event_id) in
  at 0.125 (fun () ->
      arrive h 0;
      at 0.25 (fun () ->
          after :=
            Some
              ( Lams_dlc.Receiver.queue_length h.receiver,
                Lams_dlc.Receiver.stop_state h.receiver )));
  Sim.Engine.run h.engine ~until:0.375;
  let cp = latest_cp h in
  Alcotest.(check int) "one checkpoint" 0 cp.Frame.Cframe.cp_seq;
  Alcotest.(check bool) "the earlier tick sees the frame: Stop" true
    cp.Frame.Cframe.stop_go;
  Alcotest.(check (option (pair int bool)))
    "a later event at the drain instant sees it drained" (Some (0, false)) !after;
  Alcotest.(check int) "drained for good" 0
    (Lams_dlc.Receiver.queue_length h.receiver)

let suite =
  [
    Alcotest.test_case "clean stream: empty naks" `Quick test_clean_stream_empty_naks;
    Alcotest.test_case "gap is NAKed" `Quick test_gap_is_naked;
    Alcotest.test_case "payload corrupt NAKed" `Quick
      test_payload_corrupt_naked_and_frontier_advances;
    Alcotest.test_case "header corrupt via gap" `Quick
      test_header_corrupt_invisible_until_gap;
    Alcotest.test_case "cumulation = c_depth reports" `Quick
      test_cumulation_depth_exactly_c_checkpoints;
    Alcotest.test_case "enforced replays full log" `Quick
      test_enforced_nak_replays_old_errors;
    Alcotest.test_case "duplicate arrival tolerated" `Quick
      test_duplicate_arrival_counted;
    Alcotest.test_case "checkpoint cadence" `Quick test_checkpoint_cadence;
    QCheck_alcotest.to_alcotest prop_seq_set_matches_set;
    QCheck_alcotest.to_alcotest prop_ledger_matches_reference;
    Alcotest.test_case "drains settle in (time, seq) order" `Quick
      test_drain_tie_order;
  ]
