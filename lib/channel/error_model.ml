type fate = Model.fate = Clean | Corrupt of { header : bool } | Lost

type t = Model.t

type ge_state = Good | Bad

type ge = {
  ber_good : float;
  ber_bad : float;
  p_leave_bad : float;  (* per-bit probability of leaving Bad *)
  p_leave_good : float;
  mutable state : ge_state;
}

type uniform = {
  ber : float;
  (* Memoised P[any error in n bits] for the last two distinct bit
     counts seen. Header and payload sizes are constant on a steady
     link, so the per-frame expm1/log1p pair collapses to two table
     hits; two slots mean the alternating header/payload queries never
     evict each other. Pure cache: safe to share, cheap to rebuild. *)
  mutable memo_bits1 : int;
  mutable memo_p1 : float;
  mutable memo_bits2 : int;
  mutable memo_p2 : float;
}

let check_prob name p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Error_model: %s must be in [0,1]" name)

(* P[at least one error in n bits at rate ber] without float underflow:
   1 - (1-ber)^n computed via expm1/log1p. *)
let p_any_error ~ber ~bits =
  if ber <= 0. || bits <= 0 then 0.
  else if ber >= 1. then 1.
  else -.Float.expm1 (float_of_int bits *. Float.log1p (-.ber))

(* Preallocated fate blocks: drawing a Corrupt fate must not allocate on
   the per-frame path. *)
let corrupt_header = Corrupt { header = true }
let corrupt_payload = Corrupt { header = false }

(* --- perfect ------------------------------------------------------------ *)

let rec perfect_model () =
  {
    Model.m_fate = (fun _rng ~header_bits:_ ~payload_bits:_ -> Clean);
    m_fates_into =
      (fun _rng ~header_bits:_ ~payload_bits:_ dst ~n -> Array.fill dst 0 n Clean);
    m_advance = (fun _rng ~bits:_ -> ());
    m_error_positions_into = (fun _rng ~bits:_ _dst -> ());
    m_frame_error_prob = (fun ~bits:_ -> 0.);
    m_copy = (fun () -> perfect_model ());
    m_describe = (fun () -> "perfect");
  }

let perfect = perfect_model ()

(* --- uniform ------------------------------------------------------------ *)

let uniform_p u ~bits =
  if bits = u.memo_bits1 then u.memo_p1
  else if bits = u.memo_bits2 then u.memo_p2
  else begin
    let p = p_any_error ~ber:u.ber ~bits in
    u.memo_bits2 <- u.memo_bits1;
    u.memo_p2 <- u.memo_p1;
    u.memo_bits1 <- bits;
    u.memo_p1 <- p;
    p
  end

(* Uniform errors in [offset, offset+len): sample a binomial count,
   then distinct positions by rejection, appended to [dst]. The
   duplicate check is a linear scan over the positions drawn so far in
   this segment (entries [from..) of [dst]) — error counts are a
   handful per frame, so the scan is cheaper than a hash table and
   allocates nothing. The accept/reject decisions are membership tests
   against the same set the historical hash-table dedup consulted, so
   the RNG draw sequence (and every seeded artifact) is unchanged. *)
let uniform_positions_into rng ~ber ~offset ~len dst =
  if ber > 0. && len > 0 then begin
    let count = Sim.Rng.binomial rng ~n:len ~p:ber in
    let from = Model.Positions.length dst in
    (* while loop, not a local [rec] helper: a closure over the five
       free variables would be allocated per call *)
    let remaining = ref count in
    while !remaining > 0 do
      let pos = offset + Sim.Rng.int rng len in
      let seen = ref false in
      for i = from to Model.Positions.length dst - 1 do
        if Model.Positions.unsafe_get dst i = pos then seen := true
      done;
      if not !seen then begin
        Model.Positions.push dst pos;
        decr remaining
      end
    done
  end

let rec uniform_model (u : uniform) =
  let fate rng ~header_bits ~payload_bits =
    let header_bad = Sim.Rng.bernoulli rng ~p:(uniform_p u ~bits:header_bits) in
    let payload_bad = Sim.Rng.bernoulli rng ~p:(uniform_p u ~bits:payload_bits) in
    if header_bad then corrupt_header
    else if payload_bad then corrupt_payload
    else Clean
  in
  {
    Model.m_fate = fate;
    m_fates_into =
      (fun rng ~header_bits ~payload_bits dst ~n ->
        (* probabilities hoisted out of the loop; the bernoulli sequence
           is exactly the one n sequential fate calls would draw *)
        let p_h = uniform_p u ~bits:header_bits in
        let p_p = uniform_p u ~bits:payload_bits in
        for i = 0 to n - 1 do
          let header_bad = Sim.Rng.bernoulli rng ~p:p_h in
          let payload_bad = Sim.Rng.bernoulli rng ~p:p_p in
          Array.unsafe_set dst i
            (if header_bad then corrupt_header
             else if payload_bad then corrupt_payload
             else Clean)
        done);
    m_advance = (fun _rng ~bits:_ -> ());
    m_error_positions_into =
      (fun rng ~bits dst ->
        uniform_positions_into rng ~ber:u.ber ~offset:0 ~len:bits dst;
        Model.Positions.sort dst);
    m_frame_error_prob = (fun ~bits -> p_any_error ~ber:u.ber ~bits);
    m_copy =
      (fun () ->
        (* fresh memo slots: the cache rebuilds itself, the draw stream
           is unaffected *)
        uniform_model { u with memo_bits1 = u.memo_bits1 });
    m_describe = (fun () -> Printf.sprintf "uniform(ber=%g)" u.ber);
  }

let uniform ~ber () =
  check_prob "ber" ber;
  uniform_model
    {
      ber;
      memo_bits1 = -1;
      memo_p1 = 0.;
      memo_bits2 = -1;
      memo_p2 = 0.;
    }

(* --- Gilbert-Elliott ---------------------------------------------------- *)

(* Walk a Gilbert-Elliott chain across [bits] bits; return whether any
   bit error occurred. Sojourn lengths are geometric, so we jump from
   state change to state change instead of stepping per bit. *)
let ge_any_error g rng ~bits =
  let errored = ref false in
  let remaining = ref bits in
  while !remaining > 0 do
    let p_leave, ber =
      match g.state with
      | Good -> (g.p_leave_good, g.ber_good)
      | Bad -> (g.p_leave_bad, g.ber_bad)
    in
    let sojourn =
      if p_leave <= 0. then !remaining else Sim.Rng.geometric rng ~p:p_leave
    in
    let here = if sojourn < !remaining then sojourn else !remaining in
    if (not !errored) && Sim.Rng.bernoulli rng ~p:(p_any_error ~ber ~bits:here)
    then errored := true;
    remaining := !remaining - here;
    if sojourn <= here && !remaining >= 0 && p_leave > 0. then
      g.state <- (match g.state with Good -> Bad | Bad -> Good)
  done;
  !errored

(* Advance the chain across [bits] bit-times without sampling errors:
   hop from sojourn end to sojourn end. *)
let ge_advance g rng ~bits =
  let remaining = ref bits in
  while !remaining > 0 do
    let p_leave =
      match g.state with Good -> g.p_leave_good | Bad -> g.p_leave_bad
    in
    if p_leave <= 0. then remaining := 0
    else begin
      let sojourn = Sim.Rng.geometric rng ~p:p_leave in
      if sojourn <= !remaining then begin
        g.state <- (match g.state with Good -> Bad | Bad -> Good);
        remaining := !remaining - sojourn
      end
      else remaining := 0
    end
  done

(* Gilbert-Elliott over n consecutive frames, vectorised per burst: the
   sojourn schedule is walked once across the whole span, so a sojourn
   covering many frames costs one geometric draw total instead of one
   per frame segment, and P[any error in a full segment] is memoised per
   chain state. Statistically identical to n sequential fate calls but
   a different draw stream (documented in the .mli). *)
let ge_fates_into g rng ~header_bits ~payload_bits dst ~n =
  (* bits left in the current sojourn; max_int encodes "never leaves" *)
  let sojourn_left = ref 0 in
  (* per-state memo of P[any error in bits] for the two hot segment
     sizes; partial segments at sojourn edges fall through to
     [p_any_error] directly *)
  let memo_bits_g = ref (-1) and memo_p_g = ref 0. in
  let memo_bits_b = ref (-1) and memo_p_b = ref 0. in
  let[@inline] seg_p ber bits =
    match g.state with
    | Good ->
        if bits = !memo_bits_g then !memo_p_g
        else begin
          let p = p_any_error ~ber ~bits in
          memo_bits_g := bits;
          memo_p_g := p;
          p
        end
    | Bad ->
        if bits = !memo_bits_b then !memo_p_b
        else begin
          let p = p_any_error ~ber ~bits in
          memo_bits_b := bits;
          memo_p_b := p;
          p
        end
  in
  let span_error bits =
    let errored = ref false in
    let remaining = ref bits in
    while !remaining > 0 do
      if !sojourn_left = 0 then begin
        let p_leave =
          match g.state with Good -> g.p_leave_good | Bad -> g.p_leave_bad
        in
        sojourn_left :=
          if p_leave <= 0. then max_int else Sim.Rng.geometric rng ~p:p_leave
      end;
      let here =
        if !sojourn_left < !remaining then !sojourn_left else !remaining
      in
      let ber = match g.state with Good -> g.ber_good | Bad -> g.ber_bad in
      if (not !errored) && Sim.Rng.bernoulli rng ~p:(seg_p ber here) then
        errored := true;
      remaining := !remaining - here;
      if !sojourn_left <> max_int then begin
        sojourn_left := !sojourn_left - here;
        if !sojourn_left = 0 then
          g.state <- (match g.state with Good -> Bad | Bad -> Good)
      end
    done;
    !errored
  in
  for i = 0 to n - 1 do
    let header_bad = span_error header_bits in
    let payload_bad = span_error payload_bits in
    Array.unsafe_set dst i
      (if header_bad then corrupt_header
       else if payload_bad then corrupt_payload
       else Clean)
  done

let rec ge_model (g : ge) =
  let fate rng ~header_bits ~payload_bits =
    let header_bad = ge_any_error g rng ~bits:header_bits in
    let payload_bad = ge_any_error g rng ~bits:payload_bits in
    if header_bad then corrupt_header
    else if payload_bad then corrupt_payload
    else Clean
  in
  {
    Model.m_fate = fate;
    m_fates_into =
      (fun rng ~header_bits ~payload_bits dst ~n ->
        ge_fates_into g rng ~header_bits ~payload_bits dst ~n);
    m_advance = (fun rng ~bits -> ge_advance g rng ~bits);
    m_error_positions_into =
      (fun rng ~bits dst ->
        (* walk sojourns, sampling uniformly within each segment;
           segments cover disjoint ascending ranges, so one final sort
           yields the ascending contract *)
        let pos = ref 0 in
        while !pos < bits do
          let p_leave, ber =
            match g.state with
            | Good -> (g.p_leave_good, g.ber_good)
            | Bad -> (g.p_leave_bad, g.ber_bad)
          in
          let sojourn =
            if p_leave <= 0. then bits - !pos
            else Sim.Rng.geometric rng ~p:p_leave
          in
          let here = if sojourn < bits - !pos then sojourn else bits - !pos in
          uniform_positions_into rng ~ber ~offset:!pos ~len:here dst;
          pos := !pos + here;
          if sojourn <= here && p_leave > 0. then
            g.state <- (match g.state with Good -> Bad | Bad -> Good)
        done;
        Model.Positions.sort dst);
    m_frame_error_prob =
      (fun ~bits ->
        (* stationary distribution of the two-state chain *)
        let pi_bad = g.p_leave_good /. (g.p_leave_good +. g.p_leave_bad) in
        let ber = (pi_bad *. g.ber_bad) +. ((1. -. pi_bad) *. g.ber_good) in
        p_any_error ~ber ~bits);
    m_copy = (fun () -> ge_model { g with state = g.state });
    m_describe =
      (fun () ->
        Printf.sprintf "gilbert-elliott(good=%g, bad=%g, burst=%.0fb, gap=%.0fb)"
          g.ber_good g.ber_bad (1. /. g.p_leave_bad) (1. /. g.p_leave_good));
  }

let gilbert_elliott ~ber_good ~ber_bad ~mean_burst_bits ~mean_gap_bits () =
  check_prob "ber_good" ber_good;
  check_prob "ber_bad" ber_bad;
  if mean_burst_bits < 1. || mean_gap_bits < 1. then
    invalid_arg "Error_model.gilbert_elliott: mean sojourns must be >= 1 bit";
  ge_model
    {
      ber_good;
      ber_bad;
      p_leave_bad = 1. /. mean_burst_bits;
      p_leave_good = 1. /. mean_gap_bits;
      state = Good;
    }

let ber_for_frame_error_prob ~bits ~fer =
  if bits <= 0 then invalid_arg "ber_for_frame_error_prob: bits must be > 0";
  if not (fer >= 0. && fer < 1.) then
    invalid_arg "ber_for_frame_error_prob: fer must be in [0,1)";
  (* fer = 1 - (1-ber)^bits  =>  ber = 1 - (1-fer)^(1/bits) *)
  -.Float.expm1 (Float.log1p (-.fer) /. float_of_int bits)
