type t = { buf : Buffer.t }

let fate_of_status = function
  | Channel.Link.Rx_ok -> Channel.Model.Clean
  | Channel.Link.Rx_payload_corrupt -> Channel.Model.Corrupt { header = false }
  | Channel.Link.Rx_header_corrupt -> Channel.Model.Corrupt { header = true }

let create () = { buf = Buffer.create 1024 }

let wants frame = not (Frame.Wire.is_control frame)

let observe t ev =
  match ev with
  | Channel.Link.Tap_tx _ -> ()
  | Channel.Link.Tap_rx rx ->
      if wants rx.Channel.Link.frame then
        Buffer.add_char t.buf
          (Channel.Trace_model.fate_token (fate_of_status rx.Channel.Link.status))
  | Channel.Link.Tap_lost frame ->
      if wants frame then
        Buffer.add_char t.buf (Channel.Trace_model.fate_token Channel.Model.Lost)

let attach t link = Channel.Link.add_tap link (observe t)

let length t = Buffer.length t.buf

let fates t =
  let s = Buffer.contents t.buf in
  Array.init (String.length s) (fun i ->
      match Channel.Trace_model.fate_of_token s.[i] with
      | Some f -> f
      | None -> assert false)

let save ?comment t path = Channel.Trace_model.save ?comment path (fates t)
