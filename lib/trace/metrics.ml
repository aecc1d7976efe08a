module Json = Bench_report.Json

(* Wire numbers with a last transmission or a first NAK advert on
   record, and those two instants (nan when absent): open addressing
   with linear probing and backward-shift deletion, so the table holds
   only the numbers still outstanding and allocates only to double. *)
module Outstanding = struct
  type t = {
    mutable keys : int array;
    mutable full : Bytes.t;  (* '\001' where a slot holds a key *)
    mutable last_tx : float array;
    mutable first_nak : float array;
    mutable live : int;
    mutable shift : int;  (* 63 - log2 (Array.length keys) *)
  }

  let make n shift =
    {
      keys = Array.make n 0;
      full = Bytes.make n '\000';
      last_tx = Array.make n nan;
      first_nak = Array.make n nan;
      live = 0;
      shift;
    }

  let create () = make 256 55

  let[@inline] home t seq = (seq * 0x2545F4914F6CDD1D) lsr t.shift

  let[@inline] used t i = Bytes.unsafe_get t.full i <> '\000'

  (* The slot holding [seq], or the empty slot where it would go. *)
  let slot t seq =
    let mask = Array.length t.keys - 1 in
    let i = ref (home t seq) in
    while used t !i && Array.unsafe_get t.keys !i <> seq do
      i := (!i + 1) land mask
    done;
    !i

  let find t seq =
    let i = slot t seq in
    if used t i then i else -1

  (* Copy slot [j] of [src] into slot [i] of [dst]; the instants move
     array to array, so neither is boxed. *)
  let copy src j dst i =
    Array.unsafe_set dst.keys i (Array.unsafe_get src.keys j);
    Bytes.unsafe_set dst.full i '\001';
    Array.unsafe_set dst.last_tx i (Array.unsafe_get src.last_tx j);
    Array.unsafe_set dst.first_nak i (Array.unsafe_get src.first_nak j)

  let rec add t seq =
    let i = slot t seq in
    if used t i then i
    else if 2 * (t.live + 1) > Array.length t.keys then begin
      let bigger = make (2 * Array.length t.keys) (t.shift - 1) in
      for j = 0 to Array.length t.keys - 1 do
        if used t j then copy t j bigger (slot bigger (Array.unsafe_get t.keys j))
      done;
      t.keys <- bigger.keys;
      t.full <- bigger.full;
      t.last_tx <- bigger.last_tx;
      t.first_nak <- bigger.first_nak;
      t.shift <- bigger.shift;
      add t seq
    end
    else begin
      Array.unsafe_set t.keys i seq;
      Bytes.unsafe_set t.full i '\001';
      Array.unsafe_set t.last_tx i nan;
      Array.unsafe_set t.first_nak i nan;
      t.live <- t.live + 1;
      i
    end

  (* Empty slot [i]: later keys of its probe run whose home does not lie
     cyclically in (hole, their slot] move back into the hole. *)
  let remove t i =
    let mask = Array.length t.keys - 1 in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while used t !j do
      let k = home t (Array.unsafe_get t.keys !j) in
      let h = !hole and j' = !j in
      if if h <= j' then k <= h || k > j' else k <= h && k > j' then begin
        copy t j' t h;
        hole := j'
      end;
      j := (j' + 1) land mask
    done;
    Bytes.unsafe_set t.full !hole '\000';
    t.live <- t.live - 1
end

type t = {
  mutable events : int;
  counts : int array;  (* by Event tag *)
  holding : Stats.Histogram.t;
  nak_latency : Stats.Histogram.t;
  cp_occupancy : Stats.Histogram.t;
  outstanding : Outstanding.t;
  at : float array;  (* one element: the time [observe] hands on *)
}

(* Time histograms: 1 ms bins to 0.5 s. The paper's link (4,000 km,
   300 Mbit/s) has a 27 ms RTT and resolving periods of tens of ms, so
   the range covers every sane configuration; pathological holds land in
   the overflow counter rather than vanishing. *)
let create () =
  {
    events = 0;
    counts = Array.make Event.tags 0;
    holding = Stats.Histogram.create ~lo:0. ~hi:0.5 ~bins:500;
    nak_latency = Stats.Histogram.create ~lo:0. ~hi:0.5 ~bins:500;
    cp_occupancy = Stats.Histogram.create ~lo:0. ~hi:64. ~bins:64;
    outstanding = Outstanding.create ();
    at = [| 0. |];
  }

let count_tag t tag =
  t.events <- t.events + 1;
  Array.unsafe_set t.counts tag (Array.unsafe_get t.counts tag + 1)

(* Typed entry points: the event's time is [at.(0)], read unboxed. *)

let tx t ~at ~seq ~retx =
  count_tag t (Event.tag_tx ~retx);
  let o = t.outstanding in
  Array.unsafe_set o.Outstanding.last_tx (Outstanding.add o seq)
    (Array.unsafe_get at 0)

(* Release and requeue both retire the wire number: it forgets its last
   transmission and its first advertisement. *)

let released t ~at ~seq =
  count_tag t Event.tag_released;
  let o = t.outstanding in
  let i = Outstanding.find o seq in
  if i >= 0 then begin
    let t0 = Array.unsafe_get o.Outstanding.last_tx i in
    if not (Float.is_nan t0) then
      Stats.Histogram.add t.holding (Array.unsafe_get at 0 -. t0);
    Outstanding.remove o i
  end

let requeued t ~at ~seq =
  count_tag t Event.tag_requeued;
  let o = t.outstanding in
  let i = Outstanding.find o seq in
  if i >= 0 then begin
    let t0 = Array.unsafe_get o.Outstanding.first_nak i in
    if not (Float.is_nan t0) then
      Stats.Histogram.add t.nak_latency (Array.unsafe_get at 0 -. t0);
    Outstanding.remove o i
  end

let cp_emitted t ~at ~naks =
  count_tag t (Event.tag_cp ~naks);
  Stats.Histogram.add t.cp_occupancy (float_of_int (Array.length naks));
  let o = t.outstanding in
  for k = 0 to Array.length naks - 1 do
    let i = Outstanding.add o (Array.unsafe_get naks k) in
    if Float.is_nan (Array.unsafe_get o.Outstanding.first_nak i) then
      Array.unsafe_set o.Outstanding.first_nak i (Array.unsafe_get at 0)
  done

let observe t (e : Event.t) =
  let at = t.at in
  at.(0) <- e.Event.time;
  match e.Event.kind with
  | Event.Probe (Dlc.Probe.Tx { seq; retx; _ }) -> tx t ~at ~seq ~retx
  | Event.Probe (Dlc.Probe.Released { seq; _ }) -> released t ~at ~seq
  | Event.Probe (Dlc.Probe.Requeued { seq; _ }) -> requeued t ~at ~seq
  | Event.Probe (Dlc.Probe.Cp_emitted { naks; _ }) -> cp_emitted t ~at ~naks
  | _ -> count_tag t (Event.tag e)

let sorted_counts t =
  List.init Event.tags (fun i -> (Event.tag_name i, t.counts.(i)))
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let hist_fields name h =
  let f = float_of_int in
  [
    (name ^ "_count", f (Stats.Histogram.count h));
    (name ^ "_mean", Stats.Histogram.mean_estimate h);
    (name ^ "_p50", Stats.Histogram.percentile h 50.);
    (name ^ "_p95", Stats.Histogram.percentile h 95.);
    (name ^ "_p99", Stats.Histogram.percentile h 99.);
    (name ^ "_overflow", f (Stats.Histogram.overflow h));
  ]

let to_fields t =
  (("events", float_of_int t.events)
  :: List.map (fun (k, v) -> ("count_" ^ k, float_of_int v)) (sorted_counts t))
  @ hist_fields "holding" t.holding
  @ hist_fields "nak_latency" t.nak_latency
  @ hist_fields "cp_occupancy" t.cp_occupancy

let hist_bins h =
  let rec go i acc =
    if i < 0 then acc
    else
      let n = Stats.Histogram.bin_count h i in
      if n = 0 then go (i - 1) acc
      else
        let lo, hi = Stats.Histogram.bin_bounds h i in
        go (i - 1)
          (Json.Obj
             [ ("lo", Json.Float lo); ("hi", Json.Float hi); ("n", Json.Int n) ]
          :: acc)
  in
  Json.List (go (Stats.Histogram.bins h - 1) [])

let to_json t =
  Json.Obj
    (List.map (fun (k, v) -> (k, Json.Float v)) (to_fields t)
    @ [
        ("holding_bins", hist_bins t.holding);
        ("nak_latency_bins", hist_bins t.nak_latency);
        ("cp_occupancy_bins", hist_bins t.cp_occupancy);
      ])
