type t = { n : int; k : int; generator : int array }

(* generator g(x) = prod_{i=0}^{n-k-1} (x + alpha^i), lowest degree
   first *)
let make_generator parity =
  let g = ref [| 1 |] in
  for i = 0 to parity - 1 do
    g := Gf256.poly_mul !g [| Gf256.alpha_pow i; 1 |]
  done;
  !g

let create ~n ~k =
  if not (0 < k && k < n && n <= 255) then
    invalid_arg "Reed_solomon.create: need 0 < k < n <= 255";
  if (n - k) mod 2 <> 0 then
    invalid_arg "Reed_solomon.create: n - k must be even";
  { n; k; generator = make_generator (n - k) }

let t_correctable t = (t.n - t.k) / 2

(* Systematic encoding: parity = (data(x) * x^(n-k)) mod g(x), computed
   by polynomial long division. Codeword layout: data bytes first
   (highest-degree coefficients), parity after. *)
let encode t data =
  if Bytes.length data <> t.k then
    invalid_arg "Reed_solomon.encode: data must be exactly k bytes";
  let parity_len = t.n - t.k in
  let remainder = Array.make parity_len 0 in
  for i = 0 to t.k - 1 do
    (* feed data symbols highest-degree first *)
    let feedback = Gf256.add (Char.code (Bytes.get data i)) remainder.(parity_len - 1) in
    (* shift remainder up by one, adding feedback * g *)
    for j = parity_len - 1 downto 1 do
      remainder.(j) <-
        Gf256.add remainder.(j - 1) (Gf256.mul feedback t.generator.(j))
    done;
    remainder.(0) <- Gf256.mul feedback t.generator.(0)
  done;
  let out = Bytes.create t.n in
  Bytes.blit data 0 out 0 t.k;
  for j = 0 to parity_len - 1 do
    (* highest-degree parity coefficient first *)
    Bytes.set out (t.k + j) (Char.chr remainder.(parity_len - 1 - j))
  done;
  out

(* Codeword as a polynomial: byte i has degree (n - 1 - i). *)
let syndromes t cw =
  let parity = t.n - t.k in
  Array.init parity (fun j ->
      let x = Gf256.alpha_pow j in
      let acc = ref 0 in
      for i = 0 to t.n - 1 do
        acc := Gf256.add (Gf256.mul !acc x) (Char.code (Bytes.get cw i))
      done;
      !acc)

(* Berlekamp-Massey: error locator sigma(x), lowest degree first. *)
let berlekamp_massey synd =
  let parity = Array.length synd in
  let sigma = ref [| 1 |] in
  let b = ref [| 1 |] in
  let l = ref 0 in
  let m = ref 1 in
  let bb = ref 1 in
  for i = 0 to parity - 1 do
    let delta = ref synd.(i) in
    for j = 1 to !l do
      if j < Array.length !sigma then
        delta := Gf256.add !delta (Gf256.mul !sigma.(j) synd.(i - j))
    done;
    if !delta = 0 then incr m
    else if 2 * !l <= i then begin
      let t_save = !sigma in
      let coef = Gf256.div !delta !bb in
      let shifted = Array.append (Array.make !m 0) !b in
      sigma := Gf256.poly_add t_save (Array.map (Gf256.mul coef) shifted);
      l := i + 1 - !l;
      b := t_save;
      bb := !delta;
      m := 1
    end
    else begin
      let coef = Gf256.div !delta !bb in
      let shifted = Array.append (Array.make !m 0) !b in
      sigma := Gf256.poly_add !sigma (Array.map (Gf256.mul coef) shifted);
      incr m
    end
  done;
  (!sigma, !l)

let decode t cw =
  if Bytes.length cw <> t.n then
    invalid_arg "Reed_solomon.decode: codeword must be exactly n bytes";
  let synd = syndromes t cw in
  if Array.for_all (fun s -> s = 0) synd then
    Ok (Bytes.sub cw 0 t.k)
  else begin
    let sigma, l = berlekamp_massey synd in
    if l > t_correctable t || l = 0 then Error `Uncorrectable
    else begin
      (* Chien search: byte i (degree n-1-i) is in error iff
         sigma(alpha^-(n-1-i)) = 0 *)
      let positions = ref [] in
      for i = 0 to t.n - 1 do
        let degree = t.n - 1 - i in
        let x_inv = Gf256.alpha_pow (-degree) in
        if Gf256.poly_eval sigma x_inv = 0 then positions := (i, degree) :: !positions
      done;
      if List.length !positions <> l then Error `Uncorrectable
      else begin
        (* Forney: omega(x) = (synd(x) * sigma(x)) mod x^parity;
           magnitude at X = alpha^degree is
           omega(X^-1) / sigma'(X^-1) * X  (for b = 0 first root) *)
        let parity = t.n - t.k in
        let omega_full = Gf256.poly_mul synd sigma in
        let omega = Array.sub omega_full 0 (min parity (Array.length omega_full)) in
        let sigma_deriv =
          (* formal derivative: odd-degree terms shift down *)
          Array.init
            (max 0 (Array.length sigma - 1))
            (fun j -> if j mod 2 = 0 then sigma.(j + 1) else 0)
        in
        let out = Bytes.copy cw in
        let ok = ref true in
        List.iter
          (fun (i, degree) ->
            let x = Gf256.alpha_pow degree in
            let x_inv = Gf256.inv x in
            let num = Gf256.poly_eval omega x_inv in
            let den = Gf256.poly_eval sigma_deriv x_inv in
            if den = 0 then ok := false
            else begin
              let magnitude = Gf256.mul x (Gf256.div num den) in
              Bytes.set out i
                (Char.chr (Gf256.add (Char.code (Bytes.get out i)) magnitude))
            end)
          !positions;
        if not !ok then Error `Uncorrectable
        else if Array.for_all (fun s -> s = 0) (syndromes t out) then
          Ok (Bytes.sub out 0 t.k)
        else Error `Uncorrectable
      end
    end
  end

let code ~n:n_arg ~k:k_arg =
  let rs = create ~n:n_arg ~k:k_arg in
  let name = Printf.sprintf "rs(%d,%d)" n_arg k_arg in
  let blocks_of ~data_bits =
    let data_bytes = (data_bits + 7) / 8 in
    max 1 ((data_bytes + k_arg - 1) / k_arg)
  in
  let code_coded_bits ~data_bits = 8 * n_arg * blocks_of ~data_bits in
  let code_encode src =
    let s = Bitbuf.to_string src in
    let nblocks = blocks_of ~data_bits:(Bitbuf.length src) in
    let padded = Bytes.make (nblocks * k_arg) '\000' in
    Bytes.blit_string s 0 padded 0 (String.length s);
    let out = Buffer.create (nblocks * n_arg) in
    for b = 0 to nblocks - 1 do
      Buffer.add_bytes out (encode rs (Bytes.sub padded (b * k_arg) k_arg))
    done;
    Bitbuf.of_string (Buffer.contents out)
  in
  let code_decode coded ~data_bits =
    let s = Bitbuf.to_string coded in
    let nblocks = blocks_of ~data_bits in
    let out = Buffer.create (nblocks * k_arg) in
    for b = 0 to nblocks - 1 do
      let block = Bytes.of_string (String.sub s (b * n_arg) n_arg) in
      match decode rs block with
      | Ok data -> Buffer.add_bytes out data
      | Error `Uncorrectable ->
          (* leave the damaged block as received; the CRC above notices *)
          Buffer.add_bytes out (Bytes.sub block 0 k_arg)
    done;
    Bitbuf.sub (Bitbuf.of_string (Buffer.contents out)) ~pos:0 ~len:data_bits
  in
  {
    Code.name;
    encode = code_encode;
    decode = code_decode;
    coded_bits = code_coded_bits;
    encode_into = None;
    decode_into = None;
  }
