(* Order statistics over one run's samples. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n land 1 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

type tail = { value : float; percentile : float; samples : int; beyond : int }

(* The highest percentile that still has at least [beyond] samples above
   it: the (n - beyond)-th smallest sample. With [beyond] or fewer
   samples there is no such percentile and the maximum stands in, with
   the count of samples above it stated as 0. *)
let tail ?(beyond = 10) a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then { value = nan; percentile = nan; samples = 0; beyond = 0 }
  else if n <= beyond then
    { value = s.(n - 1); percentile = 100.; samples = n; beyond = 0 }
  else
    let i = n - 1 - beyond in
    {
      value = s.(i);
      percentile = 100. *. float_of_int (i + 1) /. float_of_int n;
      samples = n;
      beyond;
    }
