type t =
  | Stem of { stem : string; len : int }
  | Synthetic of { index : int; len : int }

let fill = 'x'

(* A synthetic image: the index as [digits] zero-padded decimal digits,
   a ['|'], then fill. *)
let digits = 10

let header = digits + 1

let index_bound = 10_000_000_000

(* Length of [s] without its trailing fill. *)
let rec stem_end s n =
  if n > 0 && String.unsafe_get s (n - 1) = fill then stem_end s (n - 1) else n

(* The index that the synthetic header [s.[0 .. n - 1]] names; -1 when
   those bytes are not one. *)
let rec header_digits s k acc =
  if k = digits then acc
  else
    match String.unsafe_get s k with
    | '0' .. '9' as c -> header_digits s (k + 1) ((10 * acc) + Char.code c - 48)
    | _ -> -1

let header_index s n =
  if n = header && String.unsafe_get s digits = '|' then header_digits s 0 0
  else -1

(* The canonical payload of [len] bytes whose image starts with the
   first [n] bytes of [s], where [n] excludes [s]'s trailing fill. *)
let canonical s n len =
  let index = header_index s n in
  if index >= 0 then Synthetic { index; len }
  else Stem { stem = (if n = String.length s then s else String.sub s 0 n); len }

let make ~stem ~len =
  if len < String.length stem then
    invalid_arg "Payload.make: length shorter than stem";
  canonical stem (stem_end stem (String.length stem)) len

let of_string s = canonical s (stem_end s (String.length s)) (String.length s)

let empty = Stem { stem = ""; len = 0 }

let length = function Stem { len; _ } | Synthetic { len; _ } -> len

let index = function Synthetic { index; _ } -> index | Stem _ -> -1

(* Write at [pos] the first [n] bytes of the image "[index] as [w]
   zero-padded decimal digits, a ['|'], then fill". *)
let write_numbered b pos index w n =
  let q = ref index in
  for k = w - 1 downto 0 do
    if k < n then Bytes.unsafe_set b (pos + k) (Char.unsafe_chr (48 + (!q mod 10)));
    q := !q / 10
  done;
  if n > w then begin
    Bytes.unsafe_set b (pos + w) '|';
    Bytes.unsafe_fill b (pos + w + 1) (n - w - 1) fill
  end

(* Decimal digits of [n >= 0]. *)
let rec width n = if n < 10 then 1 else 1 + width (n / 10)

(* Outside the synthetic form's domain (fewer than [header] bytes, or
   an index wider than [digits]) the image is a stem: the header, cut
   to [len] bytes. *)
let synthetic ~index ~len =
  if index < 0 || len < 0 then
    invalid_arg "Payload.synthetic: negative index or length";
  if index < index_bound && len >= header then Synthetic { index; len }
  else begin
    let w = max digits (width index) in
    let n = min len (w + 1) in
    let b = Bytes.create n in
    write_numbered b 0 index w n;
    canonical (Bytes.unsafe_to_string b) n len
  end

let blit p b pos =
  if pos < 0 || pos > Bytes.length b - length p then
    invalid_arg "Payload.blit: out of bounds";
  match p with
  | Stem { stem; len } ->
      let sl = String.length stem in
      Bytes.unsafe_blit_string stem 0 b pos sl;
      Bytes.unsafe_fill b (pos + sl) (len - sl) fill
  | Synthetic { index; len } -> write_numbered b pos index digits len

let prefix p n =
  let n = max 0 (min n (length p)) in
  match p with
  | Stem { stem; _ } ->
      let sl = String.length stem in
      if n = sl then stem
      else if n < sl then String.sub stem 0 n
      else begin
        let b = Bytes.create n in
        Bytes.blit_string stem 0 b 0 sl;
        Bytes.fill b sl (n - sl) fill;
        Bytes.unsafe_to_string b
      end
  | Synthetic { index; _ } ->
      let b = Bytes.create n in
      write_numbered b 0 index digits n;
      Bytes.unsafe_to_string b

let to_string p = prefix p (length p)

(* Canonical forms: equal images have the same form and fields. *)
let equal a b =
  a == b
  ||
  match (a, b) with
  | Synthetic a, Synthetic b -> a.index = b.index && a.len = b.len
  | Stem a, Stem b -> a.len = b.len && String.equal a.stem b.stem
  | _ -> false

(* Consecutive offer indices of one length hash two apart: the frames
   in flight sit in nearby slots of an [Index] and leave a free slot
   after each for a stem or a second length. *)
let hash = function
  | Stem { stem; len } -> Hashtbl.hash stem lxor len
  | Synthetic { index; len } -> (2 * index) + len

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)

module Index = struct
  type payload = t

  (* Open addressing with linear probing, as [Dlc.Int_index]: [slots]
     holds [id + 1] (0 marks an empty slot) and stays at most half
     full, [keys] maps an id back to its payload. A synthetic payload is
     hashed and compared as two ints, so finding one reads no string. *)
  type t = {
    mutable slots : int array;
    mutable keys : payload array;
    mutable count : int;
  }

  let create () = { slots = Array.make 64 0; keys = Array.make 32 empty; count = 0 }

  let length t = t.count

  let key t id =
    if id < 0 || id >= t.count then invalid_arg "Payload.Index.key: unknown id";
    Array.unsafe_get t.keys id

  (* The slot holding [p]'s id, or the empty slot where it would go. *)
  let slot slots keys p =
    let mask = Array.length slots - 1 in
    let i = ref (hash p land mask) in
    while
      let s = Array.unsafe_get slots !i in
      s <> 0 && not (equal (Array.unsafe_get keys (s - 1)) p)
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
