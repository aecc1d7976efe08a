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

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)

module Index = struct
  type payload = t

  (* Open addressing with linear probing, as [Dlc.Int_index]: [slots]
     holds [id + 1] (0 marks an empty slot) and stays at most half
     full, [keys] maps an id back to its payload. The hash is FNV-1a
     over the stem, computed here rather than by the runtime's
     [caml_hash]. *)
  type t = {
    mutable slots : int array;
    mutable keys : payload array;
    mutable count : int;
  }

  let create () = { slots = Array.make 64 0; keys = Array.make 32 empty; count = 0 }

  let length t = t.count

  let hash p =
    let h = ref (0x0bf29ce484222325 lxor p.len) in
    for i = 0 to String.length p.stem - 1 do
      h := (!h lxor Char.code (String.unsafe_get p.stem i)) * 0x100000001b3
    done;
    !h lxor (!h lsr 29)

  let[@inline] same a b = a == b || (a.len = b.len && String.equal a.stem b.stem)

  (* The slot holding [p]'s id, or the empty slot where it would go. *)
  let slot slots keys p =
    let mask = Array.length slots - 1 in
    let i = ref (hash p land mask) in
    while
      let s = Array.unsafe_get slots !i in
      s <> 0 && not (same (Array.unsafe_get keys (s - 1)) p)
    do
      i := (!i + 1) land mask
    done;
    !i

  let grow t =
    let n = 2 * Array.length t.slots in
    let slots = Array.make n 0 and keys = Array.make (n / 2) empty in
    Array.blit t.keys 0 keys 0 t.count;
    for id = 0 to t.count - 1 do
      Array.unsafe_set slots (slot slots keys (Array.unsafe_get keys id)) (id + 1)
    done;
    t.slots <- slots;
    t.keys <- keys

  let rec add t p =
    let i = slot t.slots t.keys p in
    let s = Array.unsafe_get t.slots i in
    if s <> 0 then s - 1
    else if t.count = Array.length t.keys then begin
      grow t;
      add t p
    end
    else begin
      let id = t.count in
      t.count <- id + 1;
      t.keys.(id) <- p;
      Array.unsafe_set t.slots i (id + 1);
      id
    end
end
