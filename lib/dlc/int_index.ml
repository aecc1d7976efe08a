(* Open addressing with linear probing. [slots] holds [id + 1] (0 marks
   an empty slot) and stays at most half full; [keys] maps an id back to
   its key. Ids are never freed, so they double as insertion ordinals. *)

type t = {
  mutable slots : int array;
  mutable keys : int array;
  mutable count : int;
  mutable shift : int;  (* 63 - log2 (Array.length slots) *)
}

let create () = { slots = Array.make 64 0; keys = Array.make 32 0; count = 0; shift = 57 }

let length t = t.count

let key t id = t.keys.(id)

(* Fibonacci hashing: the top bits of the product. Linear probing from a
   key's low bits would be faster on one run of consecutive wire
   numbers, but two runs whose home slots overlap (a scrambled sender
   numbering restarts far away) would merge into one long probe
   cluster. *)
let[@inline] home_of key shift = (key * 0x2545F4914F6CDD1D) lsr shift

let find t key =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let i = ref (home_of key t.shift) and id = ref (-2) in
  while !id = -2 do
    let s = Array.unsafe_get slots !i in
    if s = 0 then id := -1
    else if Array.unsafe_get t.keys (s - 1) = key then id := s - 1
    else i := (!i + 1) land mask
  done;
  !id

let rec place slots mask i id =
  if Array.unsafe_get slots i = 0 then Array.unsafe_set slots i (id + 1)
  else place slots mask ((i + 1) land mask) id

let grow t =
  let n = 2 * Array.length t.slots in
  let slots = Array.make n 0 in
  t.shift <- t.shift - 1;
  for id = 0 to t.count - 1 do
    place slots (n - 1) (home_of (Array.unsafe_get t.keys id) t.shift) id
  done;
  t.slots <- slots;
  let keys = Array.make (n / 2) 0 in
  Array.blit t.keys 0 keys 0 t.count;
  t.keys <- keys

let add t key =
  let id = find t key in
  if id >= 0 then id
  else begin
    if t.count = Array.length t.keys then grow t;
    let id = t.count in
    t.keys.(id) <- key;
    t.count <- id + 1;
    place t.slots (Array.length t.slots - 1) (home_of key t.shift) id;
    id
  end
