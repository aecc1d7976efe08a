type kind = Rr | Rej | Srej

type t = { kind : kind; nr : int; pf : bool }

let create ~kind ~nr ~pf =
  if nr < 0 then invalid_arg "Hframe.create: negative nr";
  { kind; nr; pf }

let kind_name = function Rr -> "RR" | Rej -> "REJ" | Srej -> "SREJ"

let pp ppf t =
  Format.fprintf ppf "%s(%d%s)" (kind_name t.kind) t.nr
    (if t.pf then ",P/F" else "")
