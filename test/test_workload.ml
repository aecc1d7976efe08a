(* Workload generator tests. *)

let null_session () =
  let metrics = Dlc.Metrics.create () in
  let accepted = ref [] in
  let refuse = ref false in
  let session =
    {
      Dlc.Session.name = "null";
      offer =
        (fun p ->
          if !refuse then false
          else begin
            accepted := p :: !accepted;
            true
          end);
      set_on_deliver = (fun _ -> ());
      sender_backlog = (fun () -> 0);
      stop = (fun () -> ());
      metrics;
    }
  in
  (session, accepted, refuse)

let image ~size i =
  Frame.Payload.to_string (Workload.Arrivals.default_payload ~size i)

(* [n] consecutive indices from [first] give [n] distinct images *)
let check_distinct ~size ~first n =
  let seen = Hashtbl.create n in
  for i = first to first + n - 1 do
    Hashtbl.replace seen (image ~size i) ()
  done;
  Alcotest.(check int)
    (Printf.sprintf "%d distinct payloads at size %d" n size)
    n (Hashtbl.length seen)

let test_default_payload () =
  let p = Workload.Arrivals.default_payload ~size:64 42 in
  Alcotest.(check int) "size" 64 (Frame.Payload.length p);
  Alcotest.(check string) "image" ("0000000042|" ^ String.make 53 'x')
    (Frame.Payload.to_string p);
  Alcotest.(check bool) "distinct per index" true
    (not (Frame.Payload.equal p (Workload.Arrivals.default_payload ~size:64 43)));
  let tiny = Workload.Arrivals.default_payload ~size:4 1 in
  Alcotest.(check int) "tiny size" 4 (Frame.Payload.length tiny);
  (* below 10 bytes the low-order digits are kept *)
  Alcotest.(check string) "tiny image" "0001" (Frame.Payload.to_string tiny);
  Alcotest.(check string) "size 8 image" "00012345" (image ~size:8 12345);
  check_distinct ~size:4 ~first:0 10_000;
  check_distinct ~size:8 ~first:0 2_000;
  check_distinct ~size:8 ~first:99_999_000 1_000

(* The parent's symptom: at 8 bytes, runs of 100 indices shared one
   payload, and the oracle read the copies as double releases. *)
let test_small_payload_checked_run () =
  let cfg =
    {
      Experiments.Scenario.default with
      Experiments.Scenario.payload_bytes = 8;
      n_frames = 2_000;
      seed = 1;
    }
  in
  let proto =
    Experiments.Scenario.Lams (Experiments.Scenario.default_lams_params cfg)
  in
  let result, violations = Experiments.Scenario.run_checked cfg proto in
  Alcotest.(check bool) "completed" true result.Experiments.Scenario.completed;
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun v -> v.Oracle.invariant) violations)

let test_deterministic_timing () =
  let engine = Sim.Engine.create () in
  let session, accepted, _ = null_session () in
  let gen =
    Workload.Arrivals.deterministic engine ~session ~rate:100. ~count:5
      ~payload:(fun i -> Frame.Payload.of_string (Printf.sprintf "p%d" i))
  in
  Sim.Engine.run engine;
  Alcotest.(check bool) "finished" true (Workload.Arrivals.finished gen);
  Alcotest.(check int) "all accepted" 5 (List.length !accepted);
  (* 5 arrivals at 100/s: last at t = 40 ms *)
  Alcotest.(check (float 1e-9)) "spacing" 0.04 (Sim.Engine.now engine)

let test_deterministic_retries_on_refusal () =
  let engine = Sim.Engine.create () in
  let session, accepted, refuse = null_session () in
  refuse := true;
  let gen =
    Workload.Arrivals.deterministic engine ~session ~rate:1000. ~count:3
      ~payload:(fun i -> Frame.Payload.of_string (Printf.sprintf "p%d" i))
  in
  ignore (Sim.Engine.schedule engine ~delay:0.01 (fun () -> refuse := false));
  Sim.Engine.run engine ~until:1.;
  Sim.Engine.run engine;
  Alcotest.(check bool) "finished eventually" true (Workload.Arrivals.finished gen);
  Alcotest.(check (list string)) "in order without loss" [ "p0"; "p1"; "p2" ]
    (List.rev_map Frame.Payload.to_string !accepted)

let test_saturating_fills_fast () =
  let engine = Sim.Engine.create () in
  let session, accepted, _ = null_session () in
  let gen =
    Workload.Arrivals.saturating engine ~session ~count:1000
      ~payload:(fun i -> Frame.Payload.of_string (Printf.sprintf "p%d" i))
  in
  Sim.Engine.run engine ~until:0.001;
  Alcotest.(check bool) "finished immediately when accepted" true
    (Workload.Arrivals.finished gen);
  Alcotest.(check int) "all in" 1000 (List.length !accepted)

let test_saturating_respects_refusal () =
  let engine = Sim.Engine.create () in
  let session, accepted, refuse = null_session () in
  refuse := true;
  let gen =
    Workload.Arrivals.saturating engine ~session ~count:10
      ~payload:(fun i -> Frame.Payload.of_string (Printf.sprintf "p%d" i))
  in
  ignore (Sim.Engine.schedule engine ~delay:0.01 (fun () -> refuse := false));
  Sim.Engine.run engine ~until:1.;
  Alcotest.(check bool) "finished after unblock" true (Workload.Arrivals.finished gen);
  Alcotest.(check int) "no duplicates offered" 10 (List.length !accepted)

let suite =
  [
    Alcotest.test_case "default payload" `Quick test_default_payload;
    Alcotest.test_case "8-byte payloads: clean checked run" `Quick
      test_small_payload_checked_run;
    Alcotest.test_case "deterministic timing" `Quick test_deterministic_timing;
    Alcotest.test_case "deterministic retry" `Quick test_deterministic_retries_on_refusal;
    Alcotest.test_case "saturating fills" `Quick test_saturating_fills_fast;
    Alcotest.test_case "saturating respects refusal" `Quick
      test_saturating_respects_refusal;
  ]
