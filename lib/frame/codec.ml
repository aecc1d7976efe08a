type error =
  | Truncated
  | Unknown_tag of int
  | Header_corrupt
  | Payload_corrupt of { seq : int }
  | Control_corrupt

let tag_iframe = 0x01

let tag_checkpoint = 0x02

let tag_request_nak = 0x03

let tag_hdlc = 0x04

let put_u8 b pos v = Bytes.set_uint8 b pos v

let put_u16 b pos v = Bytes.set_uint16_be b pos v

let put_u32 b pos v = Bytes.set_int32_be b pos (Int32.of_int v)

let put_f64 b pos v = Bytes.set_int64_be b pos (Int64.bits_of_float v)

let get_u8 b pos = Bytes.get_uint8 b pos

let get_u16 b pos = Bytes.get_uint16_be b pos

let get_u32 b pos = Int32.to_int (Bytes.get_int32_be b pos) land 0xFFFFFFFF

let get_f64 b pos = Int64.float_of_bits (Bytes.get_int64_be b pos)

(* The widest value a 16-bit count field carries. *)
let max_count = 0xFFFF

(* Write [frame] into [b] starting at [base]; the caller guarantees
   [Wire.size_bytes frame] bytes of room. Returns the bytes written. *)
let encode_into frame b ~pos:base =
  let size = Wire.size_bytes frame in
  if base < 0 || base + size > Bytes.length b then
    invalid_arg "Codec.encode_into: buffer too small";
  (match frame with
  | Wire.Data i ->
      let len = Payload.length i.Iframe.payload in
      if len > max_count then
        invalid_arg "Codec.encode_into: payload longer than 65535 bytes";
      put_u8 b (base + 0) tag_iframe;
      put_u32 b (base + 1) i.Iframe.seq;
      put_u16 b (base + 5) len;
      put_u16 b (base + 7) (Crc.crc16 b ~pos:base ~len:7);
      Payload.blit i.Iframe.payload b (base + 9);
      put_u32 b (base + 9 + len) (Crc.crc32_int b ~pos:(base + 9) ~len)
  | Wire.Control (Cframe.Checkpoint c) ->
      let n = List.length c.Cframe.naks in
      if n > max_count then
        invalid_arg "Codec.encode_into: more than 65535 NAKs in a checkpoint";
      put_u8 b (base + 0) tag_checkpoint;
      let flags =
        (if c.Cframe.stop_go then 1 else 0) lor if c.Cframe.enforced then 2 else 0
      in
      put_u8 b (base + 1) flags;
      put_u32 b (base + 2) c.Cframe.cp_seq;
      put_f64 b (base + 6) c.Cframe.issue_time;
      put_u32 b (base + 14) c.Cframe.next_expected;
      put_u16 b (base + 18) n;
      List.iteri (fun i s -> put_u32 b (base + 20 + (4 * i)) s) c.Cframe.naks;
      let body = 20 + (4 * n) in
      put_u16 b (base + body) (Crc.crc16 b ~pos:base ~len:body)
  | Wire.Control (Cframe.Request_nak { issue_time }) ->
      put_u8 b (base + 0) tag_request_nak;
      put_f64 b (base + 1) issue_time;
      put_u16 b (base + 9) (Crc.crc16 b ~pos:base ~len:9)
  | Wire.Hdlc_control h ->
      put_u8 b (base + 0) tag_hdlc;
      let kind =
        match h.Hframe.kind with Hframe.Rr -> 0 | Hframe.Rej -> 1 | Hframe.Srej -> 2
      in
      put_u8 b (base + 1) kind;
      put_u32 b (base + 2) h.Hframe.nr;
      put_u8 b (base + 6) (if h.Hframe.pf then 1 else 0);
      put_u16 b (base + 7) (Crc.crc16 b ~pos:base ~len:7));
  size

(* Reusable encode buffer: grows monotonically, never shrinks, so a
   steady-state sender allocates nothing per frame. *)
type scratch = { mutable buf : Bytes.t }

let create_scratch ?(capacity = 2048) () = { buf = Bytes.create (max 16 capacity) }

(* Returns only the length so the steady-state path (buffer already big
   enough) allocates nothing at all — not even the result pair. The
   buffer is reached via [scratch_buffer]. *)
let encode_scratch_into scratch frame =
  let size = Wire.size_bytes frame in
  if Bytes.length scratch.buf < size then
    scratch.buf <- Bytes.create (max size (2 * Bytes.length scratch.buf));
  let _ = encode_into frame scratch.buf ~pos:0 in
  size

let scratch_buffer scratch = scratch.buf

(* Decoders read from the slice [base, base+len) of [b]; [len] checks are
   against the slice, not the whole buffer, so a scratch buffer longer
   than the frame decodes identically to an exact-size one. *)

let decode_iframe b ~base ~len:avail =
  if avail < 9 then Error Truncated
  else begin
    let hcrc = get_u16 b (base + 7) in
    if Crc.crc16 b ~pos:base ~len:7 <> hcrc then Error Header_corrupt
    else begin
      let seq = get_u32 b (base + 1) in
      let len = get_u16 b (base + 5) in
      if avail < 9 + len + 4 then Error Truncated
      else begin
        let pcrc = get_u32 b (base + 9 + len) in
        if Crc.crc32_int b ~pos:(base + 9) ~len <> pcrc then
          Error (Payload_corrupt { seq })
        else
          Ok
            (Wire.Data
               (Iframe.create ~seq
                  ~payload:(Payload.of_string (Bytes.sub_string b (base + 9) len))))
      end
    end
  end

let decode_checkpoint b ~base ~len:avail =
  if avail < 22 then Error Truncated
  else begin
    let n = get_u16 b (base + 18) in
    let body = 20 + (4 * n) in
    if avail < body + 2 then Error Truncated
    else if Crc.crc16 b ~pos:base ~len:body <> get_u16 b (base + body) then
      Error Control_corrupt
    else begin
      let flags = get_u8 b (base + 1) in
      let naks = List.init n (fun i -> get_u32 b (base + 20 + (4 * i))) in
      Ok
        (Wire.Control
           (Cframe.checkpoint ~cp_seq:(get_u32 b (base + 2))
              ~issue_time:(get_f64 b (base + 6))
              ~stop_go:(flags land 1 <> 0)
              ~enforced:(flags land 2 <> 0)
              ~next_expected:(get_u32 b (base + 14))
              ~naks))
    end
  end

let decode_request_nak b ~base ~len:avail =
  if avail < 11 then Error Truncated
  else if Crc.crc16 b ~pos:base ~len:9 <> get_u16 b (base + 9) then
    Error Control_corrupt
  else Ok (Wire.Control (Cframe.request_nak ~issue_time:(get_f64 b (base + 1))))

let decode_hdlc b ~base ~len:avail =
  if avail < 9 then Error Truncated
  else if Crc.crc16 b ~pos:base ~len:7 <> get_u16 b (base + 7) then
    Error Control_corrupt
  else begin
    match get_u8 b (base + 1) with
    | (0 | 1 | 2) as k ->
        let kind =
          match k with 0 -> Hframe.Rr | 1 -> Hframe.Rej | _ -> Hframe.Srej
        in
        Ok
          (Wire.Hdlc_control
             (Hframe.create ~kind ~nr:(get_u32 b (base + 2))
                ~pf:(get_u8 b (base + 6) <> 0)))
    | _ -> Error Control_corrupt
  end

let decode ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Codec.decode: slice out of bounds";
  if len < 1 then Error Truncated
  else begin
    match get_u8 b pos with
    | t when t = tag_iframe -> decode_iframe b ~base:pos ~len
    | t when t = tag_checkpoint -> decode_checkpoint b ~base:pos ~len
    | t when t = tag_request_nak -> decode_request_nak b ~base:pos ~len
    | t when t = tag_hdlc -> decode_hdlc b ~base:pos ~len
    | t -> Error (Unknown_tag t)
  end

(* --- allocation-free validation ----------------------------------------- *)

type verdict = V_ok | V_payload_corrupt | V_header_corrupt

(* Big-endian 32-bit read returning an immediate int: [get_u32] goes
   through a boxed [int32], which [verify] must not allocate. *)
let get_u32i b pos =
  (get_u8 b pos lsl 24)
  lor (get_u8 b (pos + 1) lsl 16)
  lor (get_u8 b (pos + 2) lsl 8)
  lor get_u8 b (pos + 3)

(* Mirrors [decode]'s checks exactly — same thresholds, same CRCs — but
   only classifies; nothing is materialised. [Payload_corrupt] maps to
   [V_payload_corrupt]; every other [error] case collapses to
   [V_header_corrupt] (the frame is unidentifiable either way). *)
let verify_slice b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Codec.verify: slice out of bounds";
  if len < 1 then V_header_corrupt
  else begin
    let base = pos in
    match get_u8 b base with
    | t when t = tag_iframe ->
        if len < 9 then V_header_corrupt
        else if Crc.crc16 b ~pos:base ~len:7 <> get_u16 b (base + 7) then
          V_header_corrupt
        else begin
          let plen = get_u16 b (base + 5) in
          if len < 9 + plen + 4 then V_header_corrupt
          else if
            Crc.crc32_int b ~pos:(base + 9) ~len:plen
            <> get_u32i b (base + 9 + plen)
          then V_payload_corrupt
          else V_ok
        end
    | t when t = tag_checkpoint ->
        if len < 22 then V_header_corrupt
        else begin
          let n = get_u16 b (base + 18) in
          let body = 20 + (4 * n) in
          if len < body + 2 then V_header_corrupt
          else if Crc.crc16 b ~pos:base ~len:body <> get_u16 b (base + body)
          then V_header_corrupt
          else V_ok
        end
    | t when t = tag_request_nak ->
        if len < 11 then V_header_corrupt
        else if Crc.crc16 b ~pos:base ~len:9 <> get_u16 b (base + 9) then
          V_header_corrupt
        else V_ok
    | t when t = tag_hdlc ->
        if len < 9 then V_header_corrupt
        else if Crc.crc16 b ~pos:base ~len:7 <> get_u16 b (base + 7) then
          V_header_corrupt
        else if get_u8 b (base + 1) > 2 then V_header_corrupt
        else V_ok
    | _ -> V_header_corrupt
  end
