(* Shift-register convolutional encoder and hard-decision Viterbi decoder.

   State = the last (k-1) input bits, newest in the MSB position of the
   register as used below: we keep [reg] with the newest bit at bit
   position (k-1) after shifting, i.e. reg holds bits b_{t}, b_{t-1}, ...
   b_{t-k+1} with b_t at the top. Each generator is a k-bit tap mask
   applied to the register; the output bit is the XOR (parity) of the
   masked bits.

   The decoder is table-driven. A transition is identified by the full
   k-bit window w = (input_bit << (k-1)) | prev_state; its successor is
   next = w >> 1, so w = (next << 1) | w0 where w0 (the dropped bit) is
   the survivor decision, prev_state = w land (nstates - 1), and the
   input bit is recoverable from the successor alone as next >> (k-2).
   Both output symbols of every window, and the Hamming distance of
   every window's symbol to each of the four possible received symbols,
   are precomputed at [create] into flat [Bytes] tables, turning the
   inner add-compare-select into two table loads and two int adds —
   no parity loops, no boxed values. The tables are immutable after
   [create], so a [t] (including [default], which is shared by
   [Code.conv_default] across matrix-runner domains) is safe to use
   from several domains at once; all mutable decode state is per-call. *)

type t = {
  k : int;
  g1 : int;
  g2 : int;
  nstates : int;
  enc_sym : Bytes.t;
      (* 2^k entries: window -> 2-bit output symbol (o1 << 1) | o2 *)
  branch_cost : Bytes.t;
      (* 4 rows of 2^k: row r, entry w = Hamming distance between
         window w's symbol and received symbol r *)
}

let popcount_parity x =
  let rec loop x acc = if x = 0 then acc else loop (x lsr 1) (acc lxor (x land 1)) in
  loop x 0

let create ?(constraint_length = 7) ?(generators = (0o171, 0o133)) () =
  let k = constraint_length in
  if k < 2 || k > 12 then
    invalid_arg "Conv_code.create: constraint_length must be in 2..12";
  let g1, g2 = generators in
  let limit = 1 lsl k in
  if g1 <= 0 || g1 >= limit || g2 <= 0 || g2 >= limit then
    invalid_arg "Conv_code.create: generators out of range";
  let nwindows = 1 lsl k in
  let enc_sym = Bytes.create nwindows in
  for w = 0 to nwindows - 1 do
    let o1 = popcount_parity (w land g1) in
    let o2 = popcount_parity (w land g2) in
    Bytes.unsafe_set enc_sym w (Char.unsafe_chr ((o1 lsl 1) lor o2))
  done;
  let branch_cost = Bytes.create (4 * nwindows) in
  for r = 0 to 3 do
    for w = 0 to nwindows - 1 do
      let x = Char.code (Bytes.get enc_sym w) lxor r in
      Bytes.set branch_cost ((r * nwindows) + w)
        (Char.chr ((x land 1) + (x lsr 1)))
    done
  done;
  { k; g1; g2; nstates = 1 lsl (k - 1); enc_sym; branch_cost }

let default = create ()

(* Register convention: [reg] is a k-bit window, newest input bit in the
   MSB (bit k-1), oldest in bit 0. A state is the low (k-1) bits of the
   register before the new bit is shifted in... we instead define:
   state s (k-1 bits) = previous inputs, newest at bit (k-2). On input
   bit b, the full window is (b << (k-1)) | s, outputs are parities of
   window & g, and the next state is window >> 1. *)

let step t state bit =
  let window = (bit lsl (t.k - 1)) lor state in
  let o1 = popcount_parity (window land t.g1) in
  let o2 = popcount_parity (window land t.g2) in
  let next = window lsr 1 in
  (next, o1, o2)

let encode t src =
  let n_in = Bitbuf.length src in
  let dst = Bitbuf.make (2 * (n_in + t.k - 1)) in
  let state = ref 0 in
  let pos = ref 0 in
  let feed bit =
    let window = (bit lsl (t.k - 1)) lor !state in
    let sym = Char.code (Bytes.unsafe_get t.enc_sym window) in
    state := window lsr 1;
    Bitbuf.set dst !pos (sym land 2 <> 0);
    Bitbuf.set dst (!pos + 1) (sym land 1 <> 0);
    pos := !pos + 2
  in
  for i = 0 to n_in - 1 do
    feed (if Bitbuf.get src i then 1 else 0)
  done;
  for _ = 1 to t.k - 1 do
    feed 0
  done;
  dst

let coded_bits t ~data_bits = 2 * (data_bits + t.k - 1)

(* Add-compare-select over next states. For successor n the two
   candidate windows are w = (n << 1) and w | 1; their predecessors are
   w land (ns-1) and (w land (ns-1)) lor 1. Strict [<] keeps the lower
   predecessor on metric ties, matching [decode_reference]'s ascending
   prev-state scan, so the two decoders agree bit-for-bit even on
   ambiguous (beyond-correction-radius) inputs. Survivors store one
   decision bit (w0) per (step, next_state), bit-packed: a 63-bit OCaml
   int cannot hold the 64 decisions of the default code's trellis row,
   hence a flat [Bytes] with a per-step stride. Flush steps (input
   forced to 0) only populate successors below nstates/2. *)
let decode t coded ~data_bits =
  let total_steps = data_bits + t.k - 1 in
  if Bitbuf.length coded <> 2 * total_steps then
    invalid_arg "Conv_code.decode: coded length mismatch";
  let ns = t.nstates in
  let half = ns / 2 in
  let mask = ns - 1 in
  let inf = max_int / 2 in
  let metric = ref (Array.make ns inf) in
  let next_metric = ref (Array.make ns inf) in
  !metric.(0) <- 0;
  let stride = (ns + 7) lsr 3 in
  let surv = Bytes.make (total_steps * stride) '\000' in
  let cost = t.branch_cost in
  for stepi = 0 to total_steps - 1 do
    let m = !metric and nm = !next_metric in
    let r =
      (if Bitbuf.get coded (2 * stepi) then 2 else 0)
      lor if Bitbuf.get coded ((2 * stepi) + 1) then 1 else 0
    in
    let row = r lsl t.k in
    let n_limit = if stepi < data_bits then ns else half in
    if n_limit < ns then Array.fill nm n_limit (ns - n_limit) inf;
    let base = stepi * stride in
    let acc = ref 0 in
    for n = 0 to n_limit - 1 do
      let w = n lsl 1 in
      let p0 = w land mask in
      let m0 =
        Array.unsafe_get m p0 + Char.code (Bytes.unsafe_get cost (row + w))
      in
      let m1 =
        Array.unsafe_get m (p0 lor 1)
        + Char.code (Bytes.unsafe_get cost (row + w + 1))
      in
      if m1 < m0 then begin
        Array.unsafe_set nm n m1;
        acc := !acc lor (1 lsl (n land 7))
      end
      else Array.unsafe_set nm n m0;
      if n land 7 = 7 then begin
        Bytes.unsafe_set surv (base + (n lsr 3)) (Char.unsafe_chr !acc);
        acc := 0
      end
    done;
    if n_limit land 7 <> 0 then
      Bytes.unsafe_set surv (base + (n_limit lsr 3)) (Char.unsafe_chr !acc);
    metric := nm;
    next_metric := m
  done;
  (* Trellis terminates in state 0 thanks to the flush bits. Walking
     survivor bits backwards reconstructs predecessor states; the input
     bit of each step is the MSB of the step's successor state. *)
  let dst = Bitbuf.make data_bits in
  let top_shift = t.k - 2 in
  let state = ref 0 in
  for stepi = total_steps - 1 downto 0 do
    if stepi < data_bits then
      Bitbuf.set dst stepi ((!state lsr top_shift) land 1 = 1);
    let byte =
      Char.code (Bytes.unsafe_get surv ((stepi * stride) + (!state lsr 3)))
    in
    let w0 = (byte lsr (!state land 7)) land 1 in
    state := ((!state lsl 1) lor w0) land mask
  done;
  dst

(* The original O(n * 2^k) expand-all-predecessors decoder, kept verbatim
   as the differential oracle for the table-driven path above. *)
let decode_reference t coded ~data_bits =
  let total_steps = data_bits + t.k - 1 in
  if Bitbuf.length coded <> 2 * total_steps then
    invalid_arg "Conv_code.decode: coded length mismatch";
  let ns = t.nstates in
  let inf = max_int / 2 in
  let metric = Array.make ns inf in
  let next_metric = Array.make ns inf in
  metric.(0) <- 0;
  (* survivors.(step).(state) = (prev_state, input_bit) packed *)
  let survivors = Array.make_matrix total_steps ns (-1) in
  for stepi = 0 to total_steps - 1 do
    Array.fill next_metric 0 ns inf;
    let r1 = if Bitbuf.get coded (2 * stepi) then 1 else 0 in
    let r2 = if Bitbuf.get coded ((2 * stepi) + 1) then 1 else 0 in
    let max_bit = if stepi < data_bits then 1 else 0 in
    for s = 0 to ns - 1 do
      if metric.(s) < inf then
        for bit = 0 to max_bit do
          let next, o1, o2 = step t s bit in
          let cost = abs (o1 - r1) + abs (o2 - r2) in
          let m = metric.(s) + cost in
          if m < next_metric.(next) then begin
            next_metric.(next) <- m;
            survivors.(stepi).(next) <- (s lsl 1) lor bit
          end
        done
    done;
    Array.blit next_metric 0 metric 0 ns
  done;
  (* Trellis terminates in state 0 thanks to the flush bits. *)
  let bits = Array.make total_steps false in
  let state = ref 0 in
  for stepi = total_steps - 1 downto 0 do
    let packed = survivors.(stepi).(!state) in
    assert (packed >= 0);
    bits.(stepi) <- packed land 1 = 1;
    state := packed lsr 1
  done;
  let dst = Bitbuf.create () in
  for i = 0 to data_bits - 1 do
    Bitbuf.push dst bits.(i)
  done;
  dst
