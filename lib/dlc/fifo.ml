type t = { mutable buf : int array; mutable head : int; mutable len : int }

let create () = { buf = Array.make 16 0; head = 0; len = 0 }

let length q = q.len

let is_empty q = q.len = 0

(* the capacity is a power of two *)
let[@inline] nth q i =
  Array.unsafe_get q.buf ((q.head + i) land (Array.length q.buf - 1))

let[@inline never] grow q =
  let buf = Array.make (2 * Array.length q.buf) 0 in
  for i = 0 to q.len - 1 do
    buf.(i) <- nth q i
  done;
  q.buf <- buf;
  q.head <- 0

let push q x =
  if q.len = Array.length q.buf then grow q;
  Array.unsafe_set q.buf ((q.head + q.len) land (Array.length q.buf - 1)) x;
  q.len <- q.len + 1

let pop q =
  let x = Array.unsafe_get q.buf q.head in
  q.head <- (q.head + 1) land (Array.length q.buf - 1);
  q.len <- q.len - 1;
  x

let clear q =
  q.head <- 0;
  q.len <- 0
