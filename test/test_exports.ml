(* The library exports only what a caller needs: every [val] of
   lib/**/*.mli is named by a file outside its own module and outside
   test/ (lib, bin, perfbench or examples), or it is listed below with
   the reason it stays. A new export nothing calls, or one only a test
   calls, fails this suite; so does an entry whose value is gone or has
   gained a caller. The scan itself is Export_scan. *)

module S = Export_scan

(* Why an export with no caller outside test/ stays. The README's
   library quickstart would be a fourth reason; every value it names has
   callers in examples/. *)
type reason =
  | Closed_form  (** a §4 closed form of lib/analysis *)
  | Reference  (** a reference implementation a test compares against *)
  | Accessor of string
      (** state that the named unit test reads and no public path shows *)

(* Exported values with no caller outside test/, and why each stays. *)
let allowlist =
  [
    ("Analysis.Hdlc_model.d_retrn", Closed_form, "HDLC retransmission delay");
    ("Analysis.Hdlc_model.d_trans", Closed_form, "HDLC delay of n rounds");
    ("Analysis.Hdlc_model.p_r", Closed_form, "HDLC round-failure probability");
    ("Analysis.Hdlc_model.transparent_buffer", Closed_form, "unbounded for HDLC");
    ("Analysis.Lams_model.d_high", Closed_form, "high-traffic delay");
    ("Analysis.Lams_model.d_retrn", Closed_form, "LAMS retransmission delay");
    ("Analysis.Lams_model.d_trans", Closed_form, "LAMS delay of n rounds");
    ("Analysis.Lams_model.n_cp_bar", Closed_form, "mean checkpoints per frame");
    ("Analysis.Lams_model.p_r", Closed_form, "LAMS round-failure probability");
    ("Analysis.Lams_model.resolving_period", Closed_form, "holding-time bound");
    ( "Channel.Coded_path.transmit",
      Reference,
      "bit-level ground truth of the link's fates: channel coded path tests" );
    ( "Channel.Coded_path.transmit_status",
      Reference,
      "the same path, status only: its allocation gate in alloc" );
    ( "Channel.Model.frame_error_prob",
      Reference,
      "analytic FER the channel tests hold sampled rates to" );
    ( "Fec.Conv_code.decode_reference",
      Reference,
      "plain trellis the fast Viterbi must match: fec differential" );
    ( "Lams_dlc.Params.failure_declaration_bound",
      Reference,
      "§2 enforced-recovery bound lams-dlc failure tests hold runs to" );
    ("Channel.Link.is_up", Accessor "handover: lifecycle schedule", "link state");
    ("Dlc.Tracer.events", Accessor "dlc-metrics: tracer both directions", "ring");
    ( "Handover.Lifecycle.history",
      Accessor "handover: lifecycle schedule",
      "transitions from creation, the initial Down included" );
    ("Hdlc.Receiver.buffered", Accessor "hdlc-receiver-unit", "reorder buffer");
    ("Hdlc.Sender.in_window", Accessor "hdlc-sender-unit", "frames in the window");
    ("Hdlc.Sender.window_stalled", Accessor "hdlc-sender-unit", "window full");
    ( "Lams_dlc.Receiver.checkpoints_sent",
      Accessor "lams-receiver-unit",
      "checkpoint counter" );
    ("Lams_dlc.Receiver.next_expected", Accessor "lams-receiver-unit", "frontier");
    ( "Lams_dlc.Receiver.outstanding_naks",
      Accessor "lams-receiver-unit",
      "the NAK ledger, also gated in alloc" );
    ("Lams_dlc.Sender.outstanding", Accessor "lams-sender-unit", "in flight");
    ("Nbdt.Receiver.frontier", Accessor "nbdt-receiver-unit", "receive frontier");
    ("Nbdt.Receiver.missing_count", Accessor "nbdt-receiver-unit", "holes");
    ("Nbdt.Receiver.reports_sent", Accessor "nbdt-receiver-unit", "report counter");
    ( "Nbdt.Sender.batches_completed",
      Accessor "nbdt: multiphase alternates",
      "batch counter" );
    ( "Netstack.Network.fragments_in_transit",
      Accessor "netstack",
      "fragments on the mesh" );
    ("Netstack.Network.reachable", Accessor "netstack", "routing table");
    ("Netstack.Resequencer.completed", Accessor "netstack", "messages completed");
    ( "Netstack.Resequencer.pending_messages",
      Accessor "netstack",
      "partial messages held" );
    ( "Oracle.Transfer.failures_declared",
      Accessor "handover: manager mid-window failure successor",
      "the transfer oracle's own tally" );
    ( "Oracle.Transfer.sessions_spanned",
      Accessor "handover: manager three windows zero loss",
      "sessions the transfer oracle saw" );
    ( "Orbit.Circular_orbit.raan_rate",
      Accessor "orbit: J2 precession",
      "nodal rate; positions show it only integrated" );
    ("Orbit.Constellation.size", Accessor "orbit: walker structure", "satellites");
    ("Sim.Timer.remaining", Accessor "engine: timer remaining", "time to expiry");
    ( "Stats.Histogram.underflow",
      Accessor "stats: histogram basics",
      "no metric exports it" );
  ]

(* Every way [uses] breaks the contract, one line each. *)
let violations ~allowlist uses =
  let listed k = List.exists (fun (n, _, _) -> n = k) allowlist in
  let unlisted =
    List.filter_map
      (fun (k, use) ->
        match use with
        | S.Used -> None
        | _ when listed k -> None
        | S.Unused ->
            Some (k ^ ": exported, but nothing outside its module names it")
        | S.Test_only files ->
            Some
              (Printf.sprintf "%s: exported, but only test/ names it (%s)" k
                 (String.concat ", " files)))
      uses
  in
  let stale =
    List.filter_map
      (fun (k, _, _) ->
        match List.assoc_opt k uses with
        | None -> Some (k ^ ": listed, but no longer exported")
        | Some S.Used -> Some (k ^ ": listed, but a caller outside test/ names it")
        | Some _ -> None)
      allowlist
  in
  unlisted @ stale

let root = if Sys.file_exists "lib" then "." else ".."

let test_gate () =
  let libs, mlis, mls = S.load ~root in
  match violations ~allowlist (S.uses libs ~mlis ~mls) with
  | [] -> ()
  | vs ->
      Alcotest.failf "%d exports break the contract:\n%s" (List.length vs)
        (String.concat "\n" vs)

let test_reasons () =
  List.iter
    (fun (name, why, line) ->
      if String.trim line = "" then Alcotest.failf "%s: no reason" name;
      match why with
      | Accessor test when String.trim test = "" ->
          Alcotest.failf "%s: an accessor's reason names its test" name
      | _ -> ())
    allowlist;
  let names = List.map (fun (n, _, _) -> n) allowlist in
  Alcotest.(check int) "no duplicates" (List.length names)
    (List.length (List.sort_uniq compare names))

(* --- the resolver, on small inline sources ------------------------------ *)

let libs =
  [
    { S.dir = "lib/sim"; name = "sim" };
    { S.dir = "lib/experiments"; name = "experiments" };
  ]

let mlis =
  [
    {
      S.path = "lib/sim/engine.mli";
      text = "type t\nval run : t -> unit\nval step : t -> bool\n";
    };
    { S.path = "lib/sim/timer.mli"; text = "type t\nval start : t -> unit\n" };
    {
      S.path = "lib/experiments/e24_feedback.mli";
      text = "val run : unit -> unit\nval points : int list\n";
    };
  ]

let refs path text =
  let iface = S.interface libs mlis in
  List.sort_uniq compare (S.references libs iface { S.path; text })

let check_refs what expect path text =
  Alcotest.(check (list string)) what expect (refs path text)

let test_qualified () =
  check_refs "qualified path" [ "Sim.Engine.run" ] "bin/main.ml"
    "let () = Sim.Engine.run e";
  check_refs "sibling inside its library" [ "Sim.Engine.step" ] "lib/sim/timer.ml"
    "let f e = Engine.step e";
  check_refs "a record field is no value" [] "bin/main.ml"
    "let f r = r.Sim.Engine.run"

let test_alias () =
  check_refs "module alias" [ "Experiments.E24_feedback.run" ] "test/t.ml"
    "module E = Experiments.E24_feedback\nlet () = E.run ()";
  check_refs "local module alias" [ "Experiments.E24_feedback.points" ] "test/t.ml"
    "let n = let module E = Experiments.E24_feedback in List.length E.points";
  check_refs "an alias shadowed by a local structure" [] "test/t.ml"
    "module E = struct let run () = () end\nlet () = E.run ()"

let test_open () =
  check_refs "open" [ "Sim.Engine.run"; "Sim.Engine.step" ] "bin/main.ml"
    "open Sim.Engine\nlet f e = run e; step e";
  check_refs "open of a library, then its module" [ "Sim.Engine.step" ]
    "bin/main.ml" "open Sim\nlet f e = Engine.step e";
  check_refs "local open" [ "Sim.Engine.step" ] "bin/main.ml"
    "let f e = Sim.Engine.(step e)";
  check_refs "a local open ends with its bracket" [] "bin/main.ml"
    "let f e = (Sim.Engine.(ignore e)) ; step e";
  check_refs "let open" [ "Experiments.E24_feedback.points" ] "bin/main.ml"
    "let n = let open Experiments.E24_feedback in List.length points"

let test_comments_strings () =
  check_refs "comments and strings name nothing" [] "bin/main.ml"
    "(* Sim.Engine.run (* nested Sim.Engine.step *) \"Sim.Engine.run\" *)\n\
     let s = \"Sim.Engine.step\" and q = {|Sim.Engine.run|} and c = '\"'\n\
     let () = print_string s"

(* --- the gate, on small inline trees ------------------------------------ *)

let uses mls = S.uses libs ~mlis ~mls

let ml path text = { S.path; text }

let callers =
  [
    ml "bin/main.ml" "let () = Sim.Engine.run e; Sim.Timer.start t";
    ml "examples/ex.ml" "let () = Experiments.E24_feedback.run ()";
    ml "perfbench/bench.ml" "let n = Experiments.E24_feedback.points";
  ]

let test_gate_rejects () =
  let only_test = ml "test/test_engine.ml" "let _ = Sim.Engine.step e" in
  Alcotest.(check (list string)) "only test/ names it"
    [ "Sim.Engine.step: exported, but only test/ names it (test/test_engine.ml)" ]
    (violations ~allowlist:[] (uses (only_test :: callers)));
  Alcotest.(check (list string)) "nothing names it"
    [ "Sim.Engine.step: exported, but nothing outside its module names it" ]
    (violations ~allowlist:[]
       (uses (ml "lib/sim/engine.ml" "let step e = step e" :: callers)));
  Alcotest.(check (list string)) "a stale entry"
    [ "Sim.Engine.run: listed, but a caller outside test/ names it" ]
    (violations
       ~allowlist:
         [ ("Sim.Engine.step", Reference, "r"); ("Sim.Engine.run", Reference, "r") ]
       (uses callers))

let test_gate_accepts () =
  let perfbench_only = ml "perfbench/b.ml" "let _ = Sim.Engine.step" in
  Alcotest.(check (list string)) "perfbench is a caller" []
    (violations ~allowlist:[] (uses (perfbench_only :: callers)));
  Alcotest.(check (list string)) "a listed value" []
    (violations ~allowlist:[ ("Sim.Engine.step", Reference, "r") ] (uses callers))

let suite =
  [
    Alcotest.test_case "lib exports only what a caller needs" `Quick test_gate;
    Alcotest.test_case "every allowlist entry has a reason" `Quick test_reasons;
    Alcotest.test_case "scan: qualified paths" `Quick test_qualified;
    Alcotest.test_case "scan: module aliases" `Quick test_alias;
    Alcotest.test_case "scan: open and local open" `Quick test_open;
    Alcotest.test_case "scan: comments and strings" `Quick test_comments_strings;
    Alcotest.test_case "scan: gate rejects" `Quick test_gate_rejects;
    Alcotest.test_case "scan: gate accepts" `Quick test_gate_accepts;
  ]
