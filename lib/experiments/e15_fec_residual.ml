let name = "E15 FEC residual frame error rates (bit-level)"

let codes () =
  [
    ("identity", Fec.Code.identity);
    ("hamming74", Fec.Code.hamming74);
    ("conv k=7", Fec.Code.conv_default);
    ( "conv+il32x32",
      Fec.Code.with_interleaver (Fec.Interleaver.create ~rows:32 ~cols:32)
        Fec.Code.conv_default );
    ("rs(64,48)", Fec.Reed_solomon.code ~n:64 ~k:48);
  ]

let test_frame =
  (* a small I-frame keeps Viterbi affordable across many trials *)
  Frame.Wire.Data
    (Frame.Iframe.create ~seq:7
       ~payload:(Workload.Arrivals.default_payload ~size:128 1))

let measure ~seed ~trials ~error_model code =
  let path =
    Channel.Coded_path.create
      ~rng:(Sim.Rng.create ~seed)
      ~iframe_code:code ~cframe_code:code ~error_model
  in
  ( Channel.Coded_path.residual_fer path test_frame ~trials,
    Channel.Coded_path.coded_bits path test_frame )

let points ~quick =
  let trials = if quick then 60 else 400 in
  (* error models are stateful (Gilbert-Elliott chain), so each replicate
     builds its own from a constructor *)
  let models =
    [
      ("uniform=1e-4", fun () -> Channel.Error_model.uniform ~ber:1e-4 ());
      ("uniform=1e-3", fun () -> Channel.Error_model.uniform ~ber:1e-3 ());
      ( "burst=24b",
        fun () ->
          Channel.Error_model.gilbert_elliott ~ber_good:1e-5 ~ber_bad:0.5
            ~mean_burst_bits:24. ~mean_gap_bits:4000. () );
    ]
  in
  let code_labels = List.map fst (codes ()) in
  List.concat_map
    (fun (mlabel, mk_model) ->
      List.map
        (fun clabel ->
          {
            Runner.label = Printf.sprintf "%s/%s" clabel mlabel;
            run =
              (fun ~seed ->
                let code = List.assoc clabel (codes ()) in
                let fer, bits =
                  measure ~seed ~trials ~error_model:(mk_model ()) code
                in
                [ ("residual_fer", fer); ("coded_bits", float_of_int bits) ]);
          })
        code_labels)
    models

let report ~quick e ppf =
  Report.section ppf ~id:"E15" ~title:"FEC residual frame error rates";
  let trials = if quick then 60 else 400 in
  let raw_bits = 8 * Frame.Wire.size_bytes test_frame in
  Format.fprintf ppf "frame: %d raw bits; %d trials per cell@." raw_bits trials;
  let fer clabel mlabel =
    Report.cell e (Printf.sprintf "%s/%s" clabel mlabel) "residual_fer"
  in
  (* part 1: random errors *)
  let t1 =
    Stats.Table.create
      ~header:[ "code"; "rate"; "residual FER @1e-4"; "residual FER @1e-3" ]
  in
  List.iter
    (fun (label, code) ->
      Stats.Table.add_row t1
        [
          label;
          Printf.sprintf "%.3f" (Fec.Code.rate code ~data_bits:raw_bits);
          fer label "uniform=1e-4";
          fer label "uniform=1e-3";
        ])
    (codes ());
  Report.table ppf t1;
  Report.note ppf
    "Expect: FER drops by orders of magnitude from identity to the\n\
     convolutional code — the strong code carries the control frames\n\
     (assumption 4), making P_C << P_F at equal channel BER.";
  (* part 2: burst errors, with and without interleaving *)
  let t2 = Stats.Table.create ~header:[ "code"; "burst FER (24-bit bursts)" ] in
  List.iter
    (fun (label, _) -> Stats.Table.add_row t2 [ label; fer label "burst=24b" ])
    (codes ());
  Report.table ppf t2;
  Report.note ppf
    "Expect: bursts defeat the bare convolutional code (errors exceed its\n\
     free distance locally); the interleaver disperses them back into the\n\
     correctable regime (Paul et al.'s burst-to-random conversion, §2.1)."
