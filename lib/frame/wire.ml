type t =
  | Data of Iframe.t
  | Control of Cframe.t
  | Hdlc_control of Hframe.t

(* Layouts (must match Codec):
   I-frame:      tag(1) seq(4) len(2) hcrc16(2) payload(len) crc32(4)
   Checkpoint:   tag(1) flags(1) cp_seq(4) time(8) next_expected(4)
                 nak_count(2) naks(4n) crc16(2)
   Request-NAK:  tag(1) time(8) crc16(2)
   HDLC sup.:    tag(1) kind(1) nr(4) pf(1) crc16(2) *)

let iframe_overhead_bytes = 1 + 4 + 2 + 2 + 4

let cframe_base_bytes = 1 + 1 + 4 + 8 + 4 + 2 + 2

let cframe_nak_entry_bytes = 4

let request_nak_bytes = 1 + 8 + 2

let hframe_bytes = 1 + 1 + 4 + 1 + 2

let size_bytes = function
  | Data i -> iframe_overhead_bytes + Payload.length i.Iframe.payload
  | Control (Cframe.Checkpoint c) ->
      cframe_base_bytes + (cframe_nak_entry_bytes * List.length c.Cframe.naks)
  | Control (Cframe.Request_nak _) -> request_nak_bytes
  | Hdlc_control _ -> hframe_bytes

let size_bits t = 8 * size_bytes t

let is_control = function
  | Data _ -> false
  | Control _ | Hdlc_control _ -> true

let pp ppf = function
  | Data i -> Iframe.pp ppf i
  | Control c -> Cframe.pp ppf c
  | Hdlc_control h -> Hframe.pp ppf h
