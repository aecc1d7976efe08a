type fate = Clean | Corrupt of { header : bool } | Lost

module Positions = struct
  type t = { mutable buf : int array; mutable len : int }

  let create () = { buf = Array.make 64 0; len = 0 }

  let clear t = t.len <- 0

  let length t = t.len

  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Positions.get: out of bounds";
    Array.unsafe_get t.buf i

  let[@inline] unsafe_get t i = Array.unsafe_get t.buf i

  let push t pos =
    let cap = Array.length t.buf in
    if t.len = cap then begin
      let nbuf = Array.make (2 * cap) 0 in
      Array.blit t.buf 0 nbuf 0 cap;
      t.buf <- nbuf
    end;
    Array.unsafe_set t.buf t.len pos;
    t.len <- t.len + 1

  (* In-place binary insertion sort of the filled prefix: counts are a
     handful of flipped bits per frame, and the sort must not allocate. *)
  let sort t =
    let buf = t.buf in
    for i = 1 to t.len - 1 do
      let v = Array.unsafe_get buf i in
      let j = ref (i - 1) in
      while !j >= 0 && Array.unsafe_get buf !j > v do
        Array.unsafe_set buf (!j + 1) (Array.unsafe_get buf !j);
        decr j
      done;
      Array.unsafe_set buf (!j + 1) v
    done

end

type t = {
  m_fate : Sim.Rng.t -> header_bits:int -> payload_bits:int -> fate;
  m_fates_into :
    Sim.Rng.t -> header_bits:int -> payload_bits:int -> fate array -> n:int -> unit;
  m_advance : Sim.Rng.t -> bits:int -> unit;
  m_error_positions_into : Sim.Rng.t -> bits:int -> Positions.t -> unit;
  m_frame_error_prob : bits:int -> float;
  m_copy : unit -> t;
  m_describe : unit -> string;
}

let[@inline] fate t rng ~header_bits ~payload_bits =
  t.m_fate rng ~header_bits ~payload_bits

let fates_into t rng ~header_bits ~payload_bits dst ~n =
  if n < 0 || n > Array.length dst then
    invalid_arg "Channel.Model.fates_into: n out of range";
  t.m_fates_into rng ~header_bits ~payload_bits dst ~n

let fates t rng ~header_bits ~payload_bits ~n =
  if n < 0 then invalid_arg "Channel.Model.fates: n out of range";
  let dst = Array.make (max n 1) Clean in
  t.m_fates_into rng ~header_bits ~payload_bits dst ~n;
  if Array.length dst = n then dst else Array.sub dst 0 n

let[@inline] advance t rng ~bits = if bits > 0 then t.m_advance rng ~bits

let error_positions_into t rng ~bits dst = t.m_error_positions_into rng ~bits dst

let frame_error_prob t ~bits = t.m_frame_error_prob ~bits

let copy t = t.m_copy ()

let describe t = t.m_describe ()
