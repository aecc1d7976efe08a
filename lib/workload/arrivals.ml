type t = { mutable offered : int; total : int }

let finished t = t.offered >= t.total

(* Write the [k] low-order decimal digits of [n] into [b], ending at
   index [k - 1]. Top-level, so the caller allocates no closure. *)
let rec put_digits b n k =
  if k > 0 then begin
    Bytes.unsafe_set b (k - 1) (Char.unsafe_chr (48 + (n mod 10)));
    put_digits b (n / 10) (k - 1)
  end

(* From 10 bytes up the image is the synthetic one, the first [size]
   bytes of [Printf.sprintf "%010d|" i] and fill. Below 10 bytes that
   cut would keep the high-order digits; the stem keeps the low-order
   ones instead, which stay distinct for [i < 10^size]. *)
let default_payload ~size i =
  if i < 0 then invalid_arg "Arrivals.default_payload: negative index";
  if size >= 10 then Frame.Payload.synthetic ~index:i ~len:size
  else begin
    let b = Bytes.create size in
    put_digits b i size;
    Frame.Payload.make ~stem:(Bytes.unsafe_to_string b) ~len:size
  end

let deterministic engine ~session ~rate ~count ~payload =
  if rate <= 0. then invalid_arg "Arrivals.deterministic: rate must be > 0";
  let t = { offered = 0; total = count } in
  let interval = 1. /. rate in
  let rec tick () =
    if t.offered < t.total then begin
      if session.Dlc.Session.offer (payload t.offered) then
        t.offered <- t.offered + 1;
      if t.offered < t.total then
        ignore (Sim.Engine.schedule engine ~delay:interval tick : Sim.Engine.event_id)
    end
  in
  ignore (Sim.Engine.schedule engine ~delay:0. tick : Sim.Engine.event_id);
  t

let saturating engine ~session ~count ~payload =
  let t = { offered = 0; total = count } in
  (* Offer in bursts until refused; poll for free space at a fine
     interval so the buffer is effectively never idle. *)
  let rec fill () =
    if t.offered < t.total then begin
      let continue = ref true in
      while !continue && t.offered < t.total do
        if session.Dlc.Session.offer (payload t.offered) then
          t.offered <- t.offered + 1
        else continue := false
      done;
      if t.offered < t.total then
        ignore
          (Sim.Engine.schedule engine ~delay:1e-4 fill : Sim.Engine.event_id)
    end
  in
  ignore (Sim.Engine.schedule engine ~delay:0. fill : Sim.Engine.event_id);
  t
