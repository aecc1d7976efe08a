type t = {
  rng : Sim.Rng.t;
  iframe_code : Fec.Code.t;
  cframe_code : Fec.Code.t;
  error_model : Error_model.t;
  (* Per-path scratch, reused every frame: encode buffer, three bit
     buffers (clean serialisation, codeword, decoded image), and the
     flipped-position vector. With an in-place code (encode_into /
     decode_into present, e.g. identity) a steady-state transmit touches
     only these and allocates nothing. *)
  scratch : Frame.Codec.scratch;
  clean : Fec.Bitbuf.t;
  coded : Fec.Bitbuf.t;
  decoded : Fec.Bitbuf.t;
  flips : Model.Positions.t;
  (* results of the last channel pass; mutable fields rather than a
     returned tuple so the status-only path stays allocation-free *)
  mutable last_decoded : Fec.Bitbuf.t;
  mutable last_clean_len : int;
  mutable last_bit_errors : int;
  mutable last_residual_errors : int;
}

type outcome = {
  status : Link.status;
  bit_errors : int;
  residual_errors : int;
}

let create ~rng ~iframe_code ~cframe_code ~error_model =
  let decoded = Fec.Bitbuf.create () in
  {
    rng;
    iframe_code;
    cframe_code;
    error_model;
    scratch = Frame.Codec.create_scratch ();
    clean = Fec.Bitbuf.create ();
    coded = Fec.Bitbuf.create ();
    decoded;
    flips = Model.Positions.create ();
    last_decoded = decoded;
    last_clean_len = 0;
    last_bit_errors = 0;
    last_residual_errors = 0;
  }

let code_for t frame =
  if Frame.Wire.is_control frame then t.cframe_code else t.iframe_code

let coded_bits t frame =
  let code = code_for t frame in
  code.Fec.Code.coded_bits ~data_bits:(8 * Frame.Wire.size_bytes frame)

(* One pass through encode → FEC → bit flips → FEC⁻¹, leaving the decoded
   byte image in [t.last_decoded] (first [t.last_clean_len] bytes valid)
   and the error counts in the [last_*] fields. Codes without in-place
   entry points fall back to their allocating closures. *)
let channel_pass t frame =
  let code = code_for t frame in
  let clean_len = Frame.Codec.encode_scratch_into t.scratch frame in
  let data_bits = 8 * clean_len in
  Fec.Bitbuf.fill_bytes t.clean
    (Frame.Codec.scratch_buffer t.scratch)
    ~pos:0 ~len:clean_len;
  let coded =
    match code.Fec.Code.encode_into with
    | Some f ->
        f t.clean t.coded;
        t.coded
    | None -> code.Fec.Code.encode t.clean
  in
  let n = Fec.Bitbuf.length coded in
  Model.Positions.clear t.flips;
  Model.error_positions_into t.error_model t.rng ~bits:n t.flips;
  let nflips = Model.Positions.length t.flips in
  for i = 0 to nflips - 1 do
    let pos = Model.Positions.unsafe_get t.flips i in
    Fec.Bitbuf.set coded pos (not (Fec.Bitbuf.get coded pos))
  done;
  let decoded =
    match code.Fec.Code.decode_into with
    | Some f ->
        f coded ~data_bits t.decoded;
        t.decoded
    | None -> code.Fec.Code.decode coded ~data_bits
  in
  t.last_decoded <- decoded;
  t.last_clean_len <- clean_len;
  t.last_bit_errors <- nflips;
  (* residual popcount against the clean serialisation still sitting in
     the encode scratch ([fill_bytes] copied it out, nothing overwrote
     the scratch since) *)
  let rx = Fec.Bitbuf.bytes decoded in
  let clean_bytes = Frame.Codec.scratch_buffer t.scratch in
  let d = ref 0 in
  for i = 0 to clean_len - 1 do
    let x =
      Char.code (Bytes.unsafe_get rx i)
      lxor Char.code (Bytes.unsafe_get clean_bytes i)
    in
    let x = ref x in
    while !x <> 0 do
      incr d;
      x := !x land (!x - 1)
    done
  done;
  t.last_residual_errors <- !d

let transmit t frame =
  channel_pass t frame;
  let bit_errors = t.last_bit_errors in
  let residual_errors = t.last_residual_errors in
  let rx = Fec.Bitbuf.bytes t.last_decoded in
  match Frame.Codec.decode ~pos:0 ~len:t.last_clean_len rx with
  | Ok decoded ->
      ({ status = Link.Rx_ok; bit_errors; residual_errors }, Some decoded)
  | Error (Frame.Codec.Payload_corrupt { seq }) ->
      (* header readable: the receiver can identify (and NAK) the frame *)
      ( { status = Link.Rx_payload_corrupt; bit_errors; residual_errors },
        Some
          (Frame.Wire.Data
             (Frame.Iframe.create ~seq ~payload:Frame.Payload.empty)) )
  | Error _ ->
      ({ status = Link.Rx_header_corrupt; bit_errors; residual_errors }, None)

let transmit_status t frame =
  channel_pass t frame;
  match
    Frame.Codec.verify_slice
      (Fec.Bitbuf.bytes t.last_decoded)
      ~pos:0 ~len:t.last_clean_len
  with
  | Frame.Codec.V_ok -> Link.Rx_ok
  | Frame.Codec.V_payload_corrupt -> Link.Rx_payload_corrupt
  | Frame.Codec.V_header_corrupt -> Link.Rx_header_corrupt

let residual_fer t frame ~trials =
  if trials <= 0 then invalid_arg "Coded_path.residual_fer: trials must be > 0";
  let bad = ref 0 in
  for _ = 1 to trials do
    if transmit_status t frame <> Link.Rx_ok then incr bad
  done;
  float_of_int !bad /. float_of_int trials
