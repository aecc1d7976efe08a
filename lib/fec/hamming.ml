(* Hamming(7,4): codeword bits [p1 p2 d1 p3 d2 d3 d4] with
   p1 = d1+d2+d4, p2 = d1+d3+d4, p3 = d2+d3+d4 (mod 2).
   Syndrome (s1 s2 s3) read as a binary number gives the 1-based position
   of a single error. *)

let b2i b = if b then 1 else 0

let i2b i = i <> 0

let encode_block d1 d2 d3 d4 =
  let p1 = d1 lxor d2 lxor d4 in
  let p2 = d1 lxor d3 lxor d4 in
  let p3 = d2 lxor d3 lxor d4 in
  [| p1; p2; d1; p3; d2; d3; d4 |]

let encode src =
  let dst = Bitbuf.create () in
  let n = Bitbuf.length src in
  let padded = ((n + 3) / 4) * 4 in
  let bit i = if i < n then b2i (Bitbuf.get src i) else 0 in
  let i = ref 0 in
  while !i < padded do
    let block = encode_block (bit !i) (bit (!i + 1)) (bit (!i + 2)) (bit (!i + 3)) in
    Array.iter (fun b -> Bitbuf.push dst (i2b b)) block;
    i := !i + 4
  done;
  dst

let decode coded ~data_bits =
  let n = Bitbuf.length coded in
  if n mod 7 <> 0 then invalid_arg "Hamming.decode: length not a multiple of 7";
  if n / 7 * 4 < data_bits then invalid_arg "Hamming.decode: too short";
  let dst = Bitbuf.create () in
  let blocks = n / 7 in
  for blk = 0 to blocks - 1 do
    let base = 7 * blk in
    let c = Array.init 7 (fun i -> b2i (Bitbuf.get coded (base + i))) in
    let s1 = c.(0) lxor c.(2) lxor c.(4) lxor c.(6) in
    let s2 = c.(1) lxor c.(2) lxor c.(5) lxor c.(6) in
    let s3 = c.(3) lxor c.(4) lxor c.(5) lxor c.(6) in
    let syndrome = (s3 lsl 2) lor (s2 lsl 1) lor s1 in
    if syndrome <> 0 then c.(syndrome - 1) <- c.(syndrome - 1) lxor 1;
    List.iter (fun i -> Bitbuf.push dst (i2b c.(i))) [ 2; 4; 5; 6 ]
  done;
  Bitbuf.sub dst ~pos:0 ~len:data_bits

let coded_bits ~data_bits = (data_bits + 3) / 4 * 7
