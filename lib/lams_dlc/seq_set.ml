type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 16 0; len = 0 }

let length t = t.len

let clear t = t.len <- 0

let grow t =
  let data = Array.make (2 * Array.length t.data) 0 in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

(* First index in [0, len] whose element is >= x. *)
let lower_bound t x =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.data.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* The common case, an append above the maximum, skips the search and
   shifts nothing. *)
let add t x =
  let n = t.len in
  let i = if n = 0 || t.data.(n - 1) < x then n else lower_bound t x in
  if i = n || t.data.(i) <> x then begin
    if n = Array.length t.data then grow t;
    let data = t.data in
    for j = n downto i + 1 do
      data.(j) <- data.(j - 1)
    done;
    data.(i) <- x;
    t.len <- n + 1
  end

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.data.(i) :: acc) in
  go (t.len - 1) []

(* A k-way merge from the largest element down, so the list is built in
   place with no reversal. [pos.(j)] is set [j]'s next unmerged index. *)
let union_to_list sets =
  let k = Array.length sets in
  let pos = Array.init k (fun j -> sets.(j).len - 1) in
  let rec go acc =
    let top = ref min_int and any = ref false in
    for j = 0 to k - 1 do
      let p = pos.(j) in
      if p >= 0 then begin
        let v = sets.(j).data.(p) in
        if (not !any) || v > !top then begin
          top := v;
          any := true
        end
      end
    done;
    if not !any then acc
    else begin
      let v = !top in
      for j = 0 to k - 1 do
        let p = pos.(j) in
        if p >= 0 && sets.(j).data.(p) = v then pos.(j) <- p - 1
      done;
      go (v :: acc)
    end
  in
  go []
