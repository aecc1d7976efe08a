(* Arena + one (time, seq) 4-ary min-heap. See the .mli for the
   contract; the notes here are about the invariants.

   Every pending event occupies an arena slot (parallel arrays: time,
   seq, payload, aux, generation, heap position) and exactly one heap
   entry, and [pos] maps the slot back to that entry. Popping or
   cancelling an event removes its heap entry at once and frees the
   slot, bumping its generation, so a handle whose generation still
   matches its slot names a pending event: no state column is needed.
   A freed slot holds the queue's [dummy], so vacated slots never pin
   payload closures.

   Ties at equal times are broken by seq, which [add] hands out in
   insertion order and [reserve_seq] hands out ahead of a later
   [add_reserved]: the pop order is the total (time, seq) order. *)

type 'a t = {
  dummy : 'a;
  (* arena *)
  mutable cap : int;
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable auxs : int array;
  mutable gens : int array;
  mutable pos : int array;  (* heap index of a pending slot *)
  mutable next_free : int array;  (* free list; -1 terminates *)
  mutable free_head : int;
  (* the heap: [size] slot indices, as long as the arena *)
  mutable heap : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable last_seq : int;  (* seq of the event popped last, -1 before any *)
}

type id = int

let never = -1

(* id = (generation lsl slot_bits) lor slot *)
let slot_bits = 24

let slot_mask = (1 lsl slot_bits) - 1

let create ?(capacity = 256) ~dummy () =
  let cap = if capacity > 16 then capacity else 16 in
  {
    dummy;
    cap;
    times = Array.make cap 0.;
    seqs = Array.make cap 0;
    payloads = Array.make cap dummy;
    auxs = Array.make cap 0;
    gens = Array.make cap 0;
    pos = Array.make cap 0;
    next_free = Array.init cap (fun i -> if i + 1 = cap then -1 else i + 1);
    free_head = 0;
    heap = Array.make cap 0;
    size = 0;
    next_seq = 0;
    last_seq = -1;
  }

let length t = t.size

let is_empty t = t.size = 0

let next_seq t = t.next_seq

let last_seq t = t.last_seq

(* --- arena -------------------------------------------------------------- *)

let[@inline never] grow t =
  let ncap = if 2 * t.cap < slot_mask + 1 then 2 * t.cap else slot_mask + 1 in
  if ncap <= t.cap then failwith "Event_queue: arena full";
  let blit_int src =
    let dst = Array.make ncap 0 in
    Array.blit src 0 dst 0 t.cap;
    dst
  in
  let ntimes = Array.make ncap 0. in
  Array.blit t.times 0 ntimes 0 t.cap;
  t.times <- ntimes;
  let npayloads = Array.make ncap t.dummy in
  Array.blit t.payloads 0 npayloads 0 t.cap;
  t.payloads <- npayloads;
  t.seqs <- blit_int t.seqs;
  t.auxs <- blit_int t.auxs;
  t.gens <- blit_int t.gens;
  t.pos <- blit_int t.pos;
  t.heap <- blit_int t.heap;
  let nfree = blit_int t.next_free in
  for i = t.cap to ncap - 1 do
    nfree.(i) <- (if i + 1 = ncap then t.free_head else i + 1)
  done;
  t.next_free <- nfree;
  t.free_head <- t.cap;
  t.cap <- ncap

let free_slot t slot =
  Array.unsafe_set t.payloads slot t.dummy;
  Array.unsafe_set t.gens slot (Array.unsafe_get t.gens slot + 1);
  Array.unsafe_set t.next_free slot t.free_head;
  t.free_head <- slot

(* --- the (time, seq) heap over slot indices ----------------------------- *)

let[@inline] before t a b =
  let ta = Array.unsafe_get t.times a and tb = Array.unsafe_get t.times b in
  ta < tb
  || (ta = tb && Array.unsafe_get t.seqs a < Array.unsafe_get t.seqs b)

let[@inline] place t i slot =
  Array.unsafe_set t.heap i slot;
  Array.unsafe_set t.pos slot i

(* Hole-based 4-ary sifts: [slot] goes into the hole at [i]. *)

let sift_up t i slot =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    let p = Array.unsafe_get t.heap parent in
    if before t slot p then begin
      place t !i p;
      i := parent
    end
    else continue := false
  done;
  place t !i slot

let sift_down t i slot =
  let size = t.size in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let first_child = (4 * !i) + 1 in
    if first_child >= size then continue := false
    else begin
      let last_child =
        if first_child + 3 < size then first_child + 3 else size - 1
      in
      let best = ref first_child in
      for c = first_child + 1 to last_child do
        if before t (Array.unsafe_get t.heap c) (Array.unsafe_get t.heap !best)
        then best := c
      done;
      let b = Array.unsafe_get t.heap !best in
      if before t b slot then begin
        place t !i b;
        i := !best
      end
      else continue := false
    end
  done;
  place t !i slot

(* Take the entry at heap index [i] out: the last entry fills the hole
   and sifts whichever way restores the order. *)
let remove_at t i =
  let n = t.size - 1 in
  t.size <- n;
  if i < n then begin
    let last = Array.unsafe_get t.heap n in
    if i > 0 && before t last (Array.unsafe_get t.heap ((i - 1) / 4)) then
      sift_up t i last
    else sift_down t i last
  end

(* --- adding ------------------------------------------------------------- *)

(* Every add path ends here, inlined, so its [time] stays unboxed: a
   non-flambda build boxes a float at a call it does not inline. *)
let[@inline always] insert t time seq aux payload =
  if t.free_head < 0 then grow t;
  let slot = t.free_head in
  t.free_head <- Array.unsafe_get t.next_free slot;
  Array.unsafe_set t.times slot time;
  Array.unsafe_set t.seqs slot seq;
  Array.unsafe_set t.payloads slot payload;
  Array.unsafe_set t.auxs slot aux;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) slot;
  (Array.unsafe_get t.gens slot lsl slot_bits) lor slot

let reserve_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let add_cell t ~cell ~aux payload =
  insert t (Array.unsafe_get cell 0) (reserve_seq t) aux payload

let[@inline never] not_reserved seq =
  invalid_arg (Printf.sprintf "Event_queue.add_reserved: seq %d not reserved" seq)

let add_reserved t ~cell ~seq ~aux payload =
  if seq < 0 || seq >= t.next_seq then not_reserved seq;
  insert t (Array.unsafe_get cell 0) seq aux payload

(* --- handles ------------------------------------------------------------ *)

(* The slot a handle names while its event is pending, else -1. *)
let[@inline] holder t id =
  if id < 0 then -1
  else begin
    let slot = id land slot_mask in
    if
      slot < t.cap
      && (Array.unsafe_get t.gens slot lsl slot_bits) lor slot = id
    then slot
    else -1
  end

let cancel t id =
  let slot = holder t id in
  if slot < 0 then false
  else begin
    remove_at t (Array.unsafe_get t.pos slot);
    free_slot t slot;
    true
  end

let is_pending t id = holder t id >= 0

(* --- popping ------------------------------------------------------------ *)

type run_stop = Drained | Deferred | Max_events

let pop_run t ~clock ~until ~max_events ~k =
  let executed = ref 0 in
  let stop = ref Drained in
  let running = ref true in
  while !running do
    if !executed >= max_events then begin
      stop := Max_events;
      running := false
    end
    else if t.size = 0 then begin
      stop := Drained;
      running := false
    end
    else begin
      let root = Array.unsafe_get t.heap 0 in
      let time = Array.unsafe_get t.times root in
      if time > until then begin
        stop := Deferred;
        running := false
      end
      else begin
        remove_at t 0;
        Array.unsafe_set clock 0 time;
        let payload = Array.unsafe_get t.payloads root in
        let aux = Array.unsafe_get t.auxs root in
        t.last_seq <- Array.unsafe_get t.seqs root;
        (* recycle before running: the callback may reuse the slot *)
        free_slot t root;
        incr executed;
        k payload aux
      end
    end
  done;
  !stop
