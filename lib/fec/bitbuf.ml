(* Bits are packed into a Bytes.t, MSB-first within each byte. *)

type t = { mutable data : Bytes.t; mutable len : int }

let create () = { data = Bytes.make 16 '\000'; len = 0 }

let make n =
  if n < 0 then invalid_arg "Bitbuf.make: negative length";
  { data = Bytes.make (max 16 ((n + 7) / 8)) '\000'; len = n }

let capacity t = 8 * Bytes.length t.data

let ensure t bits =
  if bits > capacity t then begin
    let nbytes = max (2 * Bytes.length t.data) ((bits + 7) / 8) in
    let ndata = Bytes.make nbytes '\000' in
    Bytes.blit t.data 0 ndata 0 (Bytes.length t.data);
    t.data <- ndata
  end

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bitbuf.get: index out of range";
  let byte = Bytes.get_uint8 t.data (i / 8) in
  byte land (0x80 lsr (i mod 8)) <> 0

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Bitbuf.set: index out of range";
  let pos = i / 8 in
  let mask = 0x80 lsr (i mod 8) in
  let byte = Bytes.get_uint8 t.data pos in
  Bytes.set_uint8 t.data pos (if v then byte lor mask else byte land lnot mask)

let push t v =
  ensure t (t.len + 1);
  t.len <- t.len + 1;
  set t (t.len - 1) v

let of_string s = { data = Bytes.of_string s; len = 8 * String.length s }

let to_string t =
  Bytes.sub_string t.data 0 ((t.len + 7) / 8)

(* --- zero-copy entry points for scratch-reusing hot paths --------------- *)

let fill_bytes t b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Bitbuf.fill_bytes: slice out of bounds";
  ensure t (8 * len);
  Bytes.blit b pos t.data 0 len;
  t.len <- 8 * len

let bytes t = t.data

let blit_prefix dst src ~bits =
  if bits < 0 || bits > src.len then
    invalid_arg "Bitbuf.blit_prefix: bits out of range";
  ensure dst bits;
  let nbytes = (bits + 7) / 8 in
  Bytes.blit src.data 0 dst.data 0 nbytes;
  (* mask trailing bits of a partial final byte so readers of the byte
     image (to_string, bytes) never see bits past the prefix *)
  if bits land 7 <> 0 then begin
    let keep = 0xFF lsl (8 - (bits land 7)) land 0xFF in
    Bytes.set_uint8 dst.data (nbytes - 1)
      (Bytes.get_uint8 dst.data (nbytes - 1) land keep)
  end;
  dst.len <- bits

let append dst src =
  for i = 0 to src.len - 1 do
    push dst (get src i)
  done

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Bitbuf.sub: slice out of bounds";
  let r = create () in
  for i = pos to pos + len - 1 do
    push r (get t i)
  done;
  r
