(* The session skeleton's contract, written once against Dlc.Session.S
   and checked for every variant: parameter validation, the generic
   face's name, guard wiring and the reverse-link replay ring. *)

module Contract (S : Dlc.Session.S) = struct
  let fresh params =
    let engine = Sim.Engine.create () in
    let duplex =
      Channel.Duplex.create_static engine ~rng:(Sim.Rng.create ~seed:1)
        ~distance_m:150_000. ~data_rate_bps:100e6
        ~iframe_error:Channel.Error_model.perfect
        ~cframe_error:Channel.Error_model.perfect
    in
    (engine, S.create engine ~params ~duplex)

  let check ~name ~valid ~invalid ~guarded () =
    (match fresh invalid with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "create accepted invalid params");
    Alcotest.(check bool) "guard when params ask" true
      (Option.is_some (S.guard (snd (fresh guarded))));
    let engine, s = fresh valid in
    let dlc = S.as_dlc s in
    Alcotest.(check string) "as_dlc name" name dlc.Dlc.Session.name;
    Alcotest.(check bool) "no guard otherwise" true (Option.is_none (S.guard s));
    let replay = (S.corrupt_surface s).Dlc.Corrupt.replay_reverse in
    Alcotest.(check (option string)) "empty ring" None (replay ~copies:1 ~back:0);
    for i = 1 to 20 do
      ignore (dlc.offer (Workload.Arrivals.default_payload ~size:100 i) : bool)
    done;
    Sim.Engine.run engine ~until:0.5;
    (* the face reads the record both halves write *)
    let m = dlc.metrics in
    Alcotest.(check bool) "one metrics record" true
      (m.Dlc.Metrics.iframes_sent = 20 && m.control_sent > 0 && m.delivered = 20);
    (* far more than 9 feedback frames went out; the ring keeps 8 *)
    (match replay ~copies:1 ~back:100 with
    | Some d when Astring.String.is_suffix ~affix:"x1 (age 7)" d -> ()
    | d ->
        Alcotest.failf "replay of the oldest frame: %s"
          (Option.value d ~default:"None"));
    Alcotest.(check (option string)) "zero copies" None (replay ~copies:0 ~back:0)
end

module Lams_c = Contract (Lams_dlc.Session)
module Hdlc_c = Contract (Hdlc.Session)
module Nbdt_c = Contract (Nbdt.Session)

let guard = Some Dlc.Guard.default_config

let lams =
  let d = Lams_dlc.Params.default in
  Lams_c.check ~name:"lams-dlc" ~valid:d
    ~invalid:{ d with Lams_dlc.Params.recv_drain_rate = Some (-1.) }
    ~guarded:{ d with Lams_dlc.Params.guard }

let hdlc ~name valid =
  Hdlc_c.check ~name ~valid
    ~invalid:{ valid with Hdlc.Params.t_out = nan }
    ~guarded:{ valid with Hdlc.Params.guard }

let nbdt =
  let d = Nbdt.Params.default in
  Nbdt_c.check ~name:"nbdt-continuous" ~valid:d
    ~invalid:{ d with Nbdt.Params.report_interval = nan }
    ~guarded:{ d with Nbdt.Params.guard }

let suite =
  [
    Alcotest.test_case "lams-dlc" `Quick lams;
    Alcotest.test_case "sr-hdlc" `Quick (hdlc ~name:"sr-hdlc" Hdlc.Params.default);
    Alcotest.test_case "gbn-hdlc+st" `Quick
      (hdlc ~name:"gbn-hdlc+st"
         { Hdlc.Params.default with Hdlc.Params.mode = Go_back_n; stutter = true });
    Alcotest.test_case "nbdt-continuous" `Quick nbdt;
  ]
