(* Runs [lo.(i), hi.(i)] for i < runs, ascending and never adjacent
   (hi.(i) + 1 < lo.(i + 1)), so each run is maximal and a set has
   exactly one representation. [count] is the number of seqs. *)
type t = {
  mutable lo : int array;
  mutable hi : int array;
  mutable runs : int;
  mutable count : int;
}

let create () = { lo = Array.make 8 0; hi = Array.make 8 0; runs = 0; count = 0 }

let length t = t.count

let clear t =
  t.runs <- 0;
  t.count <- 0

let[@inline never] grow t =
  let n = 2 * Array.length t.lo in
  let lo = Array.make n 0 and hi = Array.make n 0 in
  Array.blit t.lo 0 lo 0 t.runs;
  Array.blit t.hi 0 hi 0 t.runs;
  t.lo <- lo;
  t.hi <- hi

(* First run in [0, runs] whose greatest element is >= x. *)
let search t x =
  let lo = ref 0 and hi = ref t.runs in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.hi.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* [x] lies in no run, and run [i] is the first above it: extend the run
   below or the run above, join the two, or open [x, x] between them. *)
let insert_at t i x =
  let joins_below = i > 0 && t.hi.(i - 1) = x - 1
  and joins_above = i < t.runs && t.lo.(i) = x + 1 in
  if joins_below && joins_above then begin
    t.hi.(i - 1) <- t.hi.(i);
    Array.blit t.lo (i + 1) t.lo i (t.runs - i - 1);
    Array.blit t.hi (i + 1) t.hi i (t.runs - i - 1);
    t.runs <- t.runs - 1
  end
  else if joins_below then t.hi.(i - 1) <- x
  else if joins_above then t.lo.(i) <- x
  else begin
    if t.runs = Array.length t.lo then grow t;
    Array.blit t.lo i t.lo (i + 1) (t.runs - i);
    Array.blit t.hi i t.hi (i + 1) (t.runs - i);
    t.lo.(i) <- x;
    t.hi.(i) <- x;
    t.runs <- t.runs + 1
  end;
  t.count <- t.count + 1

(* The common cases, one past the last run or above it, skip the search
   and shift nothing. *)
let add t x =
  let n = t.runs in
  if n > 0 && x = t.hi.(n - 1) + 1 then begin
    t.hi.(n - 1) <- x;
    t.count <- t.count + 1
  end
  else if n = 0 || x > t.hi.(n - 1) then insert_at t n x
  else begin
    let i = search t x in
    if t.lo.(i) > x then insert_at t i x
  end

(* Write the seqs of [t] into [a] from [pos]; the next free position. *)
let blit_into t a pos =
  let p = ref pos in
  for i = 0 to t.runs - 1 do
    for s = t.lo.(i) to t.hi.(i) do
      Array.unsafe_set a !p s;
      incr p
    done
  done;
  !p

let to_array t =
  let a = Array.make t.count 0 in
  ignore (blit_into t a 0 : int);
  a

let union_to_array sets ~oldest =
  let k = Array.length sets in
  (* oldest first: the seq count, and whether every set lies above the
     sets before it *)
  let total = ref 0 and ordered = ref true and top = ref min_int in
  for j = 0 to k - 1 do
    let s = sets.((oldest + j) mod k) in
    if s.runs > 0 then begin
      if s.lo.(0) <= !top then ordered := false;
      top := s.hi.(s.runs - 1);
      total := !total + s.count
    end
  done;
  if !ordered then begin
    let a = Array.make !total 0 and p = ref 0 in
    for j = 0 to k - 1 do
      p := blit_into sets.((oldest + j) mod k) a !p
    done;
    a
  end
  else begin
    (* out-of-order marks (corrupted state) overlap the intervals: merge
       them seq by seq *)
    let u = create () in
    for j = 0 to k - 1 do
      let s = sets.(j) in
      for i = 0 to s.runs - 1 do
        for x = s.lo.(i) to s.hi.(i) do
          add u x
        done
      done
    done;
    to_array u
  end
