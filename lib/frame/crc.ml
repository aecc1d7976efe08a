(* CRC-16/CCITT-FALSE: poly 0x1021, init 0xffff, no reflection, no xorout.
   CRC-32/IEEE: reflected poly 0xEDB88320, init 0xffffffff, xorout
   0xffffffff.

   Both are slice-by-4 table-driven in native int arithmetic: four tables
   per CRC, laid out as one flat 1024-entry array (table k at offset
   256*k gives the contribution of a byte followed by k zero bytes), so
   the inner loop consumes 4 input bytes per table round and the CRC-32
   loop never touches boxed Int32. Requires a 64-bit [int] (true for
   every platform this repo targets; the 0xFFFFFFFF literal below will
   not compile on a 32-bit OCaml). *)

(* byte-at-a-time step, non-reflected 16-bit: used for table generation
   and for the head/tail bytes around the 4-byte main loop *)
let crc16_tables =
  let t = Array.make 1024 0 in
  for n = 0 to 255 do
    let c = ref (n lsl 8) in
    for _ = 0 to 7 do
      if !c land 0x8000 <> 0 then c := (!c lsl 1) lxor 0x1021 else c := !c lsl 1
    done;
    t.(n) <- !c land 0xffff
  done;
  for k = 1 to 3 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- ((prev lsl 8) land 0xffff) lxor t.(prev lsr 8)
    done
  done;
  t

let crc16 ?(init = 0xffff) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc.crc16: slice out of bounds";
  let t = crc16_tables in
  let crc = ref init in
  let i = ref pos in
  let stop = pos + len in
  while stop - !i >= 4 do
    let b0 = Char.code (Bytes.unsafe_get b !i)
    and b1 = Char.code (Bytes.unsafe_get b (!i + 1))
    and b2 = Char.code (Bytes.unsafe_get b (!i + 2))
    and b3 = Char.code (Bytes.unsafe_get b (!i + 3)) in
    crc :=
      Array.unsafe_get t (768 + (((!crc lsr 8) lxor b0) land 0xff))
      lxor Array.unsafe_get t (512 + ((!crc lxor b1) land 0xff))
      lxor Array.unsafe_get t (256 + b2)
      lxor Array.unsafe_get t b3;
    i := !i + 4
  done;
  while !i < stop do
    let byte = Char.code (Bytes.unsafe_get b !i) in
    crc :=
      ((!crc lsl 8)
      lxor Array.unsafe_get t (((!crc lsr 8) lxor byte) land 0xff))
      land 0xffff;
    incr i
  done;
  !crc

let crc32_tables =
  let t = Array.make 1024 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 3 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* The worker keeps the running CRC in a native [int] end to end; the
   [int32]-typed wrapper below boxes only at its return, so hot encode
   paths that call [crc32_int] stay allocation-free. *)
let crc32_int ?(init = 0) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc.crc32: slice out of bounds";
  let t = crc32_tables in
  let start = (init land 0xFFFFFFFF) lxor 0xFFFFFFFF in
  let crc = ref start in
  let i = ref pos in
  let stop = pos + len in
  while stop - !i >= 4 do
    let b0 = Char.code (Bytes.unsafe_get b !i)
    and b1 = Char.code (Bytes.unsafe_get b (!i + 1))
    and b2 = Char.code (Bytes.unsafe_get b (!i + 2))
    and b3 = Char.code (Bytes.unsafe_get b (!i + 3)) in
    crc :=
      Array.unsafe_get t (768 + ((!crc lxor b0) land 0xff))
      lxor Array.unsafe_get t (512 + (((!crc lsr 8) lxor b1) land 0xff))
      lxor Array.unsafe_get t (256 + (((!crc lsr 16) lxor b2) land 0xff))
      lxor Array.unsafe_get t (((!crc lsr 24) lxor b3) land 0xff);
    i := !i + 4
  done;
  while !i < stop do
    let byte = Char.code (Bytes.unsafe_get b !i) in
    crc := Array.unsafe_get t ((!crc lxor byte) land 0xff) lxor (!crc lsr 8);
    incr i
  done;
  !crc lxor 0xFFFFFFFF
