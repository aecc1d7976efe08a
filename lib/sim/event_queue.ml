(* Arena + timer wheel + two (time, seq) heaps. See the .mli for the
   architecture; the notes here are about the invariants.

   Every event occupies an arena slot (parallel arrays: time, seq,
   payload, aux, state, generation, chain link). A slot is in exactly
   one of three index tiers, chosen by its tick = floor(time * 2^14)
   relative to the cursor tick C:

     near heap   tick <= C          exact (time, seq) 4-ary min-heap
     wheel       C < tick < C + W   unsorted bucket chain, bucket = tick mod W
     overflow    tick >= C + W      (time, seq) 4-ary min-heap

   Any event in the near heap precedes any event in the wheel or
   overflow: near events have time < (C+1)*q and the others have
   time >= (C+1)*q, where q is the tick quantum. Equal times imply equal
   ticks, so ties are always resolved inside the near heap by the seq
   number — pop order is identical to a single global (time, seq) heap.

   Since a wheel event's tick lies in the open window (C, C+W), at most
   one tick can map to a given bucket at a time: a bucket never mixes
   ticks. The cursor only moves forward, to the smallest populated tick
   (so it never skips an event), and adds behind the cursor fall into
   the near heap where exact ordering covers them.

   The tick quantum is a power of two (2^-14 s ~ 61 us) so time*2^14 is
   exact float scaling, and W = 1024 puts the wheel horizon at ~62.5 ms
   — wide enough for frame serialisation and protocol timers at the
   simulated link rates, while checkpoint-scale timers spill into the
   overflow heap, which is just the old heap discipline.

   States form an explicit machine: Free -> Pending -> (Cancelled |
   popped -> Free), with Cancelled -> Free when the index tier lazily
   drops the slot. A Free slot reached through an index tier violates
   the invariants and asserts, rather than being silently tolerated.
   Cancelling clears the payload slot immediately (the index removal is
   lazy but the reference drop is not), and popping clears it on the
   spot — vacated slots never pin payload closures. *)

type 'a t = {
  dummy : 'a;
  (* arena *)
  mutable cap : int;
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable auxs : int array;
  mutable states : int array;
  mutable gens : int array;
  mutable link : int array; (* free list / bucket chains; -1 terminates *)
  mutable free_head : int;
  mutable next_seq : int;
  mutable last_seq : int; (* seq of the event popped last, -1 before any *)
  mutable live : int;
  (* near heap: slots with tick <= cursor, exact (time, seq) order *)
  mutable near : int array;
  mutable near_size : int;
  (* timer wheel: slots with cursor < tick < cursor + wheel_size *)
  wheel : int array; (* bucket -> chain head slot, or -1 *)
  occ : int array; (* bucket-occupancy bitmap, 32 bits per word *)
  mutable occupied : int; (* number of non-empty buckets *)
  mutable cursor : int; (* current tick *)
  (* overflow heap: slots with tick >= cursor + wheel_size at insertion *)
  mutable over : int array;
  mutable over_size : int;
}

type id = int

let never = -1

(* slot states *)
let st_free = 0

let st_pending = 1

let st_cancelled = 2

(* id = (generation lsl slot_bits) lor slot *)
let slot_bits = 24

let slot_mask = (1 lsl slot_bits) - 1

let wheel_bits = 10

let wheel_size = 1 lsl wheel_bits

let wheel_mask = wheel_size - 1

let ticks_per_sec = 16384. (* quantum 2^-14 s *)

(* Beyond this, tick computation saturates (int_of_float would overflow
   around 2^62 / 2^14 s). Saturated ticks always land in the overflow
   heap, which orders by exact time, so far timestamps stay correct. *)
let far_time = 1e13

let far_tick = max_int - (2 * wheel_size)

let create ?(capacity = 256) ~dummy () =
  let cap = if capacity > 16 then capacity else 16 in
  {
    dummy;
    cap;
    times = Array.make cap 0.;
    seqs = Array.make cap 0;
    payloads = Array.make cap dummy;
    auxs = Array.make cap 0;
    states = Array.make cap st_free;
    gens = Array.make cap 0;
    link = Array.init cap (fun i -> if i + 1 = cap then -1 else i + 1);
    free_head = 0;
    next_seq = 0;
    last_seq = -1;
    live = 0;
    near = Array.make 64 0;
    near_size = 0;
    wheel = Array.make wheel_size (-1);
    occ = Array.make (wheel_size / 32) 0;
    occupied = 0;
    cursor = 0;
    over = Array.make 64 0;
    over_size = 0;
  }

let length t = t.live

let is_empty t = t.live = 0

let next_seq t = t.next_seq

let last_seq t = t.last_seq

(* --- arena -------------------------------------------------------------- *)

let grow_arena t =
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
  t.seqs <- blit_int t.seqs;
  t.auxs <- blit_int t.auxs;
  t.gens <- blit_int t.gens;
  let npayloads = Array.make ncap t.dummy in
  Array.blit t.payloads 0 npayloads 0 t.cap;
  t.payloads <- npayloads;
  let nstates = Array.make ncap st_free in
  Array.blit t.states 0 nstates 0 t.cap;
  t.states <- nstates;
  let nlink = Array.make ncap (-1) in
  Array.blit t.link 0 nlink 0 t.cap;
  for i = t.cap to ncap - 1 do
    nlink.(i) <- (if i + 1 = ncap then t.free_head else i + 1)
  done;
  t.link <- nlink;
  t.free_head <- t.cap;
  t.cap <- ncap

let alloc_slot t =
  if t.free_head < 0 then grow_arena t;
  let slot = t.free_head in
  t.free_head <- Array.unsafe_get t.link slot;
  slot

let free_slot t slot =
  Array.unsafe_set t.states slot st_free;
  Array.unsafe_set t.payloads slot t.dummy;
  Array.unsafe_set t.gens slot (Array.unsafe_get t.gens slot + 1);
  Array.unsafe_set t.link slot t.free_head;
  t.free_head <- slot

(* --- (time, seq) heaps over slot indices -------------------------------- *)

let[@inline] before t a b =
  let ta = Array.unsafe_get t.times a and tb = Array.unsafe_get t.times b in
  ta < tb
  || (ta = tb && Array.unsafe_get t.seqs a < Array.unsafe_get t.seqs b)

(* Hole-based 4-ary sift shared by the near and overflow heaps. *)

let sift_up t heap i slot =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    let p = Array.unsafe_get heap parent in
    if before t slot p then begin
      Array.unsafe_set heap !i p;
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set heap !i slot

let sift_down t heap size i slot =
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
        if before t (Array.unsafe_get heap c) (Array.unsafe_get heap !best)
        then best := c
      done;
      let b = Array.unsafe_get heap !best in
      if before t b slot then begin
        Array.unsafe_set heap !i b;
        i := !best
      end
      else continue := false
    end
  done;
  Array.unsafe_set heap !i slot

let grow_heap heap size =
  if size = Array.length heap then begin
    let nheap = Array.make (2 * size) 0 in
    Array.blit heap 0 nheap 0 size;
    nheap
  end
  else heap

let near_push t slot =
  t.near <- grow_heap t.near t.near_size;
  t.near_size <- t.near_size + 1;
  sift_up t t.near (t.near_size - 1) slot

let near_pop_root t =
  let root = Array.unsafe_get t.near 0 in
  t.near_size <- t.near_size - 1;
  if t.near_size > 0 then
    sift_down t t.near t.near_size 0 (Array.unsafe_get t.near t.near_size);
  root

let over_push t slot =
  t.over <- grow_heap t.over t.over_size;
  t.over_size <- t.over_size + 1;
  sift_up t t.over (t.over_size - 1) slot

let over_pop_root t =
  let root = Array.unsafe_get t.over 0 in
  t.over_size <- t.over_size - 1;
  if t.over_size > 0 then
    sift_down t t.over t.over_size 0 (Array.unsafe_get t.over t.over_size);
  root

(* --- wheel bitmap ------------------------------------------------------- *)

let occ_set t b =
  let w = b lsr 5 and m = 1 lsl (b land 31) in
  let old = Array.unsafe_get t.occ w in
  if old land m = 0 then begin
    Array.unsafe_set t.occ w (old lor m);
    t.occupied <- t.occupied + 1
  end

let occ_clear t b =
  let w = b lsr 5 and m = 1 lsl (b land 31) in
  Array.unsafe_set t.occ w (Array.unsafe_get t.occ w land lnot m);
  t.occupied <- t.occupied - 1

(* 32-bit count-trailing-zeros via de Bruijn multiplication. *)
let debruijn32 = 0x077CB531

let ctz_table =
  let tbl = Array.make 32 0 in
  for i = 0 to 31 do
    tbl.((debruijn32 lsl i land 0xFFFFFFFF) lsr 27) <- i
  done;
  tbl

let[@inline] ctz32 x =
  Array.unsafe_get ctz_table (((x land -x) * debruijn32 land 0xFFFFFFFF) lsr 27)

(* Tick of the earliest occupied wheel bucket, or max_int. Scanning the
   bitmap circularly from the bucket after the cursor visits buckets in
   increasing-tick order, because bucket b at circular distance d from
   there holds exactly tick cursor + 1 + d. *)
let next_wheel_tick t =
  if t.occupied = 0 then max_int
  else begin
    let start = (t.cursor + 1) land wheel_mask in
    let nwords = wheel_size lsr 5 in
    let w0 = start lsr 5 and b0 = start land 31 in
    let first = Array.unsafe_get t.occ w0 lsr b0 in
    let bucket =
      if first <> 0 then start + ctz32 first
      else begin
        let found = ref (-1) in
        let k = ref 1 in
        while !found < 0 do
          (* the last stop is w0 again, for the bits below b0 *)
          let w = (w0 + !k) mod nwords in
          let bits =
            if !k = nwords then
              Array.unsafe_get t.occ w0 land ((1 lsl b0) - 1)
            else Array.unsafe_get t.occ w
          in
          if bits <> 0 then found := (w lsl 5) + ctz32 bits else incr k
          (* t.occupied > 0 guarantees termination *)
        done;
        !found
      end
    in
    t.cursor + 1 + ((bucket - start) land wheel_mask)
  end

(* --- tier selection ----------------------------------------------------- *)

(* The tick computation is written out at each use site, or shared
   only through [@inline always] helpers: non-flambda builds box floats
   at non-inlined call boundaries, and add/pop must stay allocation
   free. *)

let enqueue_slot t slot tick =
  if tick <= t.cursor then near_push t slot
  else if tick - t.cursor < wheel_size then begin
    let b = tick land wheel_mask in
    Array.unsafe_set t.link slot (Array.unsafe_get t.wheel b);
    Array.unsafe_set t.wheel b slot;
    occ_set t b
  end
  else over_push t slot

(* [@inline] is load-bearing: [time] arrives as an unboxed local in the
   add paths, and a non-inlined call here would box it per event. *)
let[@inline always] fill_slot t slot time aux payload =
  Array.unsafe_set t.times slot time;
  Array.unsafe_set t.seqs slot t.next_seq;
  t.next_seq <- t.next_seq + 1;
  Array.unsafe_set t.payloads slot payload;
  Array.unsafe_set t.auxs slot aux;
  Array.unsafe_set t.states slot st_pending;
  t.live <- t.live + 1

(* Every add path ends here, inlined, so its [time] stays unboxed. *)
let[@inline always] insert t time aux payload =
  let slot = alloc_slot t in
  fill_slot t slot time aux payload;
  let tick =
    if time >= far_time then far_tick
    else int_of_float (time *. ticks_per_sec)
  in
  enqueue_slot t slot tick;
  (Array.unsafe_get t.gens slot lsl slot_bits) lor slot

let add_aux t ~time ~aux payload = insert t time aux payload

let add t ~time payload = insert t time 0 payload

let add_cell t ~cell ~aux payload = insert t (Array.unsafe_get cell 0) aux payload

(* --- handles ------------------------------------------------------------ *)

let[@inline] holder t id =
  (* slot index when the handle is current, -1 when stale or [never] *)
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
    let st = Array.unsafe_get t.states slot in
    if st = st_pending then begin
      Array.unsafe_set t.states slot st_cancelled;
      (* index removal is lazy; the payload reference drop is not *)
      Array.unsafe_set t.payloads slot t.dummy;
      t.live <- t.live - 1;
      true
    end
    else false
  end

let is_pending t id =
  let slot = holder t id in
  slot >= 0 && Array.unsafe_get t.states slot = st_pending

(* --- cursor advance ----------------------------------------------------- *)

(* Drop cancelled slots surfacing at the overflow root so its tick is
   the tick of a live event. *)
let rec over_drop_cancelled t =
  if t.over_size > 0 then begin
    let root = Array.unsafe_get t.over 0 in
    let st = Array.unsafe_get t.states root in
    if st = st_cancelled then begin
      ignore (over_pop_root t : int);
      free_slot t root;
      over_drop_cancelled t
    end
    else assert (st = st_pending)
  end

(* Move every event of the next populated tick into the near heap.
   Returns false when no events remain outside the near heap. *)
let advance_fill t =
  over_drop_cancelled t;
  let wheel_tick = next_wheel_tick t in
  let over_tick =
    if t.over_size = 0 then max_int
    else begin
      let time = Array.unsafe_get t.times (Array.unsafe_get t.over 0) in
      if time >= far_time then far_tick
      else int_of_float (time *. ticks_per_sec)
    end
  in
  let tick = if wheel_tick < over_tick then wheel_tick else over_tick in
  if tick = max_int then false
  else begin
    t.cursor <- tick;
    if wheel_tick = tick then begin
      let b = tick land wheel_mask in
      let slot = ref (Array.unsafe_get t.wheel b) in
      Array.unsafe_set t.wheel b (-1);
      occ_clear t b;
      while !slot >= 0 do
        let s = !slot in
        slot := Array.unsafe_get t.link s;
        let st = Array.unsafe_get t.states s in
        if st = st_pending then near_push t s
        else if st = st_cancelled then free_slot t s
        else assert false
      done
    end;
    if over_tick = tick then begin
      let continue = ref true in
      while !continue && t.over_size > 0 do
        let root = Array.unsafe_get t.over 0 in
        let time = Array.unsafe_get t.times root in
        let root_tick =
          if time >= far_time then far_tick
          else int_of_float (time *. ticks_per_sec)
        in
        if root_tick = tick then begin
          ignore (over_pop_root t : int);
          let st = Array.unsafe_get t.states root in
          if st = st_pending then near_push t root
          else if st = st_cancelled then free_slot t root
          else assert false
        end
        else continue := false
      done
    end;
    true
  end

(* Establish: the near-heap root is a live event, or the queue is empty.
   Cancelled slots surfacing at the near root are dropped here — the one
   place a cancelled slot leaves the near heap, so the state machine is
   checked exhaustively. *)
let rec ensure_near t =
  let continue = ref true in
  while !continue && t.near_size > 0 do
    let root = Array.unsafe_get t.near 0 in
    let st = Array.unsafe_get t.states root in
    if st = st_cancelled then begin
      ignore (near_pop_root t : int);
      free_slot t root
    end
    else if st = st_pending then continue := false
    else assert false
  done;
  if t.near_size = 0 && advance_fill t then ensure_near t

(* --- pop ---------------------------------------------------------------- *)

let peek_time t =
  ensure_near t;
  if t.near_size = 0 then None
  else Some (Array.unsafe_get t.times (Array.unsafe_get t.near 0))

let pop t =
  ensure_near t;
  if t.near_size = 0 then None
  else begin
    let root = near_pop_root t in
    let time = Array.unsafe_get t.times root in
    let payload = Array.unsafe_get t.payloads root in
    t.last_seq <- Array.unsafe_get t.seqs root;
    t.live <- t.live - 1;
    free_slot t root;
    Some (time, payload)
  end

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
    else begin
      ensure_near t;
      if t.near_size = 0 then begin
        stop := Drained;
        running := false
      end
      else begin
        let root = Array.unsafe_get t.near 0 in
        let time = Array.unsafe_get t.times root in
        if time > until then begin
          stop := Deferred;
          running := false
        end
        else begin
          ignore (near_pop_root t : int);
          Array.unsafe_set clock 0 time;
          let payload = Array.unsafe_get t.payloads root in
          let aux = Array.unsafe_get t.auxs root in
          t.last_seq <- Array.unsafe_get t.seqs root;
          t.live <- t.live - 1;
          (* recycle before running: the callback may reuse the slot *)
          free_slot t root;
          incr executed;
          k payload aux
        end
      end
    end
  done;
  !stop
