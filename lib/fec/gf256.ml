(* Table-driven GF(256), primitive polynomial 0x11D, generator alpha = 2.
   exp table doubled to 512 entries so mul avoids a modulo. *)

let exp_table, log_table =
  let exp = Array.make 512 0 in
  let log = Array.make 256 0 in
  let x = ref 1 in
  for i = 0 to 254 do
    exp.(i) <- !x;
    log.(!x) <- i;
    x := !x lsl 1;
    if !x land 0x100 <> 0 then x := !x lxor 0x11D
  done;
  for i = 255 to 511 do
    exp.(i) <- exp.(i - 255)
  done;
  (exp, log)

let add a b = a lxor b

let mul a b =
  if a = 0 || b = 0 then 0 else exp_table.(log_table.(a) + log_table.(b))

let div a b =
  if b = 0 then raise Division_by_zero
  else if a = 0 then 0
  else exp_table.(log_table.(a) - log_table.(b) + 255)

let inv a = div 1 a

let alpha_pow i = exp_table.(((i mod 255) + 255) mod 255)

let poly_eval p x =
  (* Horner, highest degree first in the fold *)
  let acc = ref 0 in
  for i = Array.length p - 1 downto 0 do
    acc := add (mul !acc x) p.(i)
  done;
  !acc

let poly_mul a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 || m = 0 then [||]
  else begin
    let out = Array.make (n + m - 1) 0 in
    for i = 0 to n - 1 do
      for j = 0 to m - 1 do
        out.(i + j) <- add out.(i + j) (mul a.(i) b.(j))
      done
    done;
    out
  end

let poly_add a b =
  let n = max (Array.length a) (Array.length b) in
  Array.init n (fun i ->
      let x = if i < Array.length a then a.(i) else 0 in
      let y = if i < Array.length b then b.(i) else 0 in
      add x y)
