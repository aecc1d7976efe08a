type space = { bits : int; modulus : int; mask : int }

let space ~bits =
  if bits < 1 || bits > 30 then invalid_arg "Seqnum.space: bits must be in 1..30";
  let modulus = 1 lsl bits in
  { bits; modulus; mask = modulus - 1 }

let succ sp x = (x + 1) land sp.mask

let add sp a b = (a + b) land sp.mask

let sub sp a b = (a - b) land sp.mask

let in_window sp ~lo ~size x =
  if size < 0 || size > sp.modulus then
    invalid_arg "Seqnum.in_window: bad window size";
  sub sp x lo < size
