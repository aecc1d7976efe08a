type t = { rows : int; cols : int }

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then
    invalid_arg "Interleaver.create: dimensions must be positive";
  { rows; cols }

let rows t = t.rows

let cols t = t.cols

let block_bits t = t.rows * t.cols

let pad_to_block t src =
  let n = Bitbuf.length src in
  let block = block_bits t in
  let target = (n + block - 1) / block * block in
  let dst = Bitbuf.create () in
  Bitbuf.append dst src;
  for _ = n + 1 to target do
    Bitbuf.push dst false
  done;
  dst

let permute t src ~inverse =
  let n = Bitbuf.length src in
  let block = block_bits t in
  if n mod block <> 0 then
    invalid_arg "Interleaver: length is not a multiple of the block size";
  let dst = Bitbuf.create () in
  (* Forward output position p within a block maps to input position
     (p mod rows) * cols + (p / rows): write row-major, read
     column-major. Inverse swaps the roles of rows and cols. *)
  for p = 0 to n - 1 do
    let b = p / block and off = p mod block in
    let src_off =
      if inverse then (off mod t.cols * t.rows) + (off / t.cols)
      else (off mod t.rows * t.cols) + (off / t.rows)
    in
    Bitbuf.push dst (Bitbuf.get src ((b * block) + src_off))
  done;
  dst

let interleave t src = permute t src ~inverse:false

let deinterleave t src = permute t src ~inverse:true
