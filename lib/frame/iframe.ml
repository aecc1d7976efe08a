type t = { seq : int; payload : Payload.t }

let create ~seq ~payload =
  if seq < 0 then invalid_arg "Iframe.create: negative seq";
  { seq; payload }

let pp ppf t = Format.fprintf ppf "I(seq=%d, %dB)" t.seq (Payload.length t.payload)
