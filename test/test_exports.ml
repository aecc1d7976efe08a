(* The library exports only what a caller needs: every [val] of
   lib/**/*.mli is named by a file outside its own module and outside
   test/ (lib, bin, perfbench or examples), or it is listed below with
   the reason it stays. A new export nothing calls, or one only a test
   calls, fails this suite; so does an entry whose value is gone or has
   gained a caller. Likewise every optional argument of such a [val] is
   passed to that value by some file outside test/ and outside its own
   module, or listed with its reason. The scan itself is Export_scan. *)

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
    ("Orbit.Constellation.size", Accessor "orbit: walker structure", "satellites");
    ("Sim.Timer.remaining", Accessor "engine: timer remaining", "time to expiry");
    ( "Stats.Histogram.underflow",
      Accessor "stats: histogram basics",
      "no metric exports it" );
  ]

(* Optional arguments that no file outside test/ and outside their own
   module passes, and why each stays. *)
let optional_allowlist =
  [
    ( "Channel.Fault.rule ?window",
      "the fault-script grammar's [window=]: Fault's own parser and \
       [blackout] pass it" );
    ( "Dlc.Corrupt.rule ?copies",
      "the corruption-script grammar's [copies N]: Corrupt's own parser \
       passes it" );
    ( "Dlc.Corrupt.rule ?period",
      "the corruption-script grammar's [every P]: Corrupt's own parser \
       passes it" );
    ( "Experiments.Scenario.run_session ?reverse_faults",
      "[run_checked] forwards its own [?reverse_faults], which the \
       golden scripted transfer passes" );
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

(* Every way the optional-argument [uses] break the contract. *)
let optional_violations ~allowlist uses =
  let unlisted =
    List.filter_map
      (fun (k, passed) ->
        if passed || List.mem_assoc k allowlist then None
        else Some (k ^ ": optional, but no caller outside test/ passes it"))
      uses
  in
  let stale =
    List.filter_map
      (fun (k, _) ->
        match List.assoc_opt k uses with
        | None -> Some (k ^ ": listed, but no longer an optional argument")
        | Some true -> Some (k ^ ": listed, but a caller outside test/ passes it")
        | Some false -> None)
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

let test_optional_gate () =
  let libs, mlis, mls = S.load ~root in
  match
    optional_violations ~allowlist:optional_allowlist
      (S.optional_uses libs ~mlis ~mls)
  with
  | [] -> ()
  | vs ->
      Alcotest.failf "%d optional arguments break the contract:\n%s"
        (List.length vs) (String.concat "\n" vs)

let test_reasons () =
  List.iter
    (fun (name, line) ->
      if String.trim line = "" then Alcotest.failf "%s: no reason" name)
    optional_allowlist;
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

let test_optional_args () =
  let mlis =
    [
      {
        S.path = "lib/sim/engine.mli";
        text =
          "type t\n\
           val run : ?until:float -> ?max:int -> t -> unit\n\
           val step : ?hook:(?late:bool -> unit) -> t -> bool\n\
           type u = ?gone:int -> unit\n";
      };
    ]
  in
  Alcotest.(check (list (pair string bool)))
    "passed by label outside test/ and outside its module"
    [
      ("Sim.Engine.run ?max", false);
      ("Sim.Engine.run ?until", true);
      ("Sim.Engine.step ?hook", true);
    ]
    (S.optional_uses libs ~mlis
       ~mls:
         [
           ml "bin/main.ml"
             "let () = Sim.Engine.run ~until:1. e; Sim.Engine.step ?hook e";
           ml "lib/sim/engine.ml" "let run ?until ?max t = step ?max t";
           ml "test/t.ml" "let () = Sim.Engine.run ~max:3 e";
         ])

(* A label counts for the value it is applied to, whatever path names
   that value, and for no other. *)
let optional_engine =
  [
    {
      S.path = "lib/sim/engine.mli";
      text =
        "type t\n\
         val run : ?until:float -> t -> unit\n\
         val step : ?hook:(unit -> unit) -> t -> bool\n";
    };
  ]

let passed text =
  S.optional_uses libs ~mlis:optional_engine ~mls:[ ml "bin/main.ml" text ]

let test_optional_callee () =
  let none = [ ("Sim.Engine.run ?until", false); ("Sim.Engine.step ?hook", false) ] in
  Alcotest.(check (list (pair string bool)))
    "a label applied to another function" none
    (passed "let () = Sim.Engine.run e; Other.start ~until:1. e");
  Alcotest.(check (list (pair string bool)))
    "a label inside a bracketed argument" none
    (passed "let () = Sim.Engine.run (f ~until:1. e)");
  Alcotest.(check (list (pair string bool)))
    "a label after an operator" none
    (passed "let () = Sim.Engine.run e |> g ~hook");
  Alcotest.(check (list (pair string bool)))
    "labels after arguments and brackets"
    [ ("Sim.Engine.run ?until", true); ("Sim.Engine.step ?hook", true) ]
    (passed
       "let () = Sim.Engine.run (x y) !r ~until:1.;\n\
        ignore (Sim.Engine.step e ?hook)")

let test_optional_alias () =
  Alcotest.(check (list (pair string bool)))
    "a label after an aliased path"
    [ ("Sim.Engine.run ?until", true); ("Sim.Engine.step ?hook", false) ]
    (passed "module E = Sim.Engine\nlet () = E.run ~until:1. (g ~hook e)");
  Alcotest.(check (list (pair string bool)))
    "a label after a local open"
    [ ("Sim.Engine.run ?until", false); ("Sim.Engine.step ?hook", true) ]
    (passed "let () = ignore Sim.Engine.(step ~hook:ignore (g ~until:1.))")

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
    Alcotest.test_case "every optional argument has a caller" `Quick
      test_optional_gate;
    Alcotest.test_case "scan: optional arguments" `Quick test_optional_args;
    Alcotest.test_case "scan: a label counts for its callee only" `Quick
      test_optional_callee;
    Alcotest.test_case "scan: a label after an aliased path" `Quick
      test_optional_alias;
  ]
