type t = { stem : string; len : int }

let fill = 'x'

(* Length of [s] without its trailing fill. *)
let rec stem_end s n =
  if n > 0 && String.unsafe_get s (n - 1) = fill then stem_end s (n - 1) else n

let canonical s =
  let n = stem_end s (String.length s) in
  if n = String.length s then s else String.sub s 0 n

let make ~stem ~len =
  if len < String.length stem then
    invalid_arg "Payload.make: length shorter than stem";
  { stem = canonical stem; len }

let of_string s = { stem = canonical s; len = String.length s }

let empty = { stem = ""; len = 0 }

let length p = p.len

let blit p b pos =
  if pos < 0 || pos > Bytes.length b - p.len then
    invalid_arg "Payload.blit: out of bounds";
  let sl = String.length p.stem in
  Bytes.unsafe_blit_string p.stem 0 b pos sl;
  Bytes.unsafe_fill b (pos + sl) (p.len - sl) fill

let prefix p n =
  let n = max 0 (min n p.len) in
  let sl = String.length p.stem in
  if n = sl then p.stem
  else if n < sl then String.sub p.stem 0 n
  else begin
    let b = Bytes.create n in
    Bytes.blit_string p.stem 0 b 0 sl;
    Bytes.fill b sl (n - sl) fill;
    Bytes.unsafe_to_string b
  end

let to_string p = prefix p p.len

let equal a b = a.len = b.len && String.equal a.stem b.stem

let hash p = Hashtbl.hash p.stem lxor p.len

let pp ppf p =
  let pad = p.len - String.length p.stem in
  if pad = 0 then Format.pp_print_string ppf p.stem
  else Format.fprintf ppf "%s+%d%c" p.stem pad fill

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)
