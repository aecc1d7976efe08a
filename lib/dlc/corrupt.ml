type side = Send | Recv

type klass =
  | Seq_scramble of { side : side; delta : int }
  | Nak_poison of { seqs : int list }
  | Nak_truncate
  | Buffer_duplicate
  | Carryover_stale of { drop : int; flip : bool }
  | Reverse_replay of { copies : int; back : int }

let klass_name = function
  | Seq_scramble { side = Send; _ } -> "seq-scramble-send"
  | Seq_scramble { side = Recv; _ } -> "seq-scramble-recv"
  | Nak_poison _ -> "nak-poison"
  | Nak_truncate -> "nak-truncate"
  | Buffer_duplicate -> "buffer-duplicate"
  | Carryover_stale _ -> "carryover-stale"
  | Reverse_replay _ -> "reverse-replay"

let klass_args = function
  | Seq_scramble { delta; _ } -> Printf.sprintf "(delta=%d)" delta
  | Nak_poison { seqs } ->
      Printf.sprintf "(seqs=%s)"
        (String.concat "," (List.map string_of_int seqs))
  | Nak_truncate | Buffer_duplicate -> ""
  | Carryover_stale { drop; flip } ->
      Printf.sprintf "(drop=%d,flip=%b)" drop flip
  | Reverse_replay { copies; back } ->
      Printf.sprintf "(copies=%d,back=%d)" copies back

type surface = {
  scramble_send_seq : delta:int -> string option;
  scramble_recv_seq : delta:int -> string option;
  poison_nak_ledger : seqs:int list -> string option;
  truncate_nak_ledger : unit -> string option;
  duplicate_buffer_entry : unit -> string option;
  replay_reverse : copies:int -> back:int -> string option;
}

type rule = { at : float; period : float option; copies : int; klass : klass }

let rule ?(copies = 1) ?period ~at klass =
  if copies < 1 then invalid_arg "Corrupt.rule: copies must be >= 1";
  if at < 0. then invalid_arg "Corrupt.rule: at must be >= 0";
  (match period with
  | Some p when p <= 0. -> invalid_arg "Corrupt.rule: period must be > 0"
  | _ -> ());
  (match klass with
  | Seq_scramble { side = Send; delta } when delta < 1 ->
      invalid_arg "Corrupt.rule: send-side scramble must jump forward"
  | _ -> ());
  { at; period; copies; klass }

type spec =
  | Rules of rule list
  | Adversary of {
      seed : int;
      start : float;
      stop : float;
      mean_gap : float;
      classes : klass list;
    }

type compiled_rule = { r : rule; mutable left : int }

type mode =
  | Scripted of compiled_rule list
  | Random of {
      rng : Sim.Rng.t;
      start : float;
      stop : float;
      mean_gap : float;
      classes : klass array;
    }

type t = {
  mode : mode;
  spec : spec;
  mutable hits : int;
  mutable skipped : int;
  mutable stopped : bool;  (* timed injections no longer fire *)
}

let compile spec =
  let mode =
    match spec with
    | Rules rules -> Scripted (List.map (fun r -> { r; left = r.copies }) rules)
    | Adversary { seed; start; stop; mean_gap; classes } ->
        if not (start >= 0. && stop >= start) then
          invalid_arg "Corrupt.compile: need 0 <= start <= stop";
        if mean_gap <= 0. then
          invalid_arg "Corrupt.compile: mean_gap must be > 0";
        if classes = [] then
          invalid_arg "Corrupt.compile: adversary needs at least one class";
        Random
          {
            rng = Sim.Rng.create ~seed;
            start;
            stop;
            mean_gap;
            classes = Array.of_list classes;
          }
  in
  { mode; spec; hits = 0; skipped = 0; stopped = false }

let applied t = t.hits <- t.hits + 1

(* Apply one injection through the surface. Publishing State_corrupted
   only on success keeps "unsupported on this variant" runs trivially
   convergent: nothing was injected, so no suspect window opens. *)
let apply t ~surface ~probe ~now klass =
  let detail =
    match klass with
    | Seq_scramble { side = Send; delta } -> surface.scramble_send_seq ~delta
    | Seq_scramble { side = Recv; delta } -> surface.scramble_recv_seq ~delta
    | Nak_poison { seqs } -> surface.poison_nak_ledger ~seqs
    | Nak_truncate -> surface.truncate_nak_ledger ()
    | Buffer_duplicate -> surface.duplicate_buffer_entry ()
    | Carryover_stale _ -> None  (* applied at snapshot time, not here *)
    | Reverse_replay { copies; back } -> surface.replay_reverse ~copies ~back
  in
  match detail with
  | Some d ->
      let name = klass_name klass in
      applied t;
      Probe.emit probe ~now (Probe.State_corrupted { klass = name; detail = d })
  | None -> t.skipped <- t.skipped + 1

let is_carryover = function Carryover_stale _ -> true | _ -> false

let install t engine ~surface ~probe =
  match t.mode with
  | Scripted rules ->
      List.iter
        (fun cr ->
          if not (is_carryover cr.r.klass) then
            let rec arm ~time =
              ignore
                (Sim.Engine.schedule_at engine ~time (fun () ->
                     if cr.left > 0 && not t.stopped then begin
                       cr.left <- cr.left - 1;
                       apply t ~surface ~probe ~now:(Sim.Engine.now engine)
                         cr.r.klass;
                       match cr.r.period with
                       | Some p when cr.left > 0 -> arm ~time:(time +. p)
                       | _ -> ()
                     end))
            in
            arm ~time:cr.r.at)
        rules
  | Random { rng; start; stop; mean_gap; classes } ->
      let timed = Array.of_list (List.filter (fun k -> not (is_carryover k)) (Array.to_list classes)) in
      if Array.length timed > 0 then
        let rec arm ~time =
          if time < stop then
            ignore
              (Sim.Engine.schedule_at engine ~time (fun () ->
                   if not t.stopped then begin
                     let k = timed.(Sim.Rng.int rng (Array.length timed)) in
                     apply t ~surface ~probe ~now:(Sim.Engine.now engine) k;
                     arm ~time:(time +. Sim.Rng.exponential rng ~mean:mean_gap)
                   end))
        in
        arm ~time:(start +. Sim.Rng.exponential rng ~mean:mean_gap)

let stop t = t.stopped <- true

let take_carryover t ~now =
  match t.mode with
  | Scripted rules -> (
      match
        List.find_opt
          (fun cr -> cr.left > 0 && is_carryover cr.r.klass && cr.r.at <= now)
          rules
      with
      | Some ({ r = { klass = Carryover_stale { drop; flip }; _ }; _ } as cr)
        ->
          cr.left <- cr.left - 1;
          Some (drop, flip)
      | _ -> None)
  | Random { rng; start; stop; classes; _ } ->
      if now >= start && now < stop then begin
        let args =
          Array.fold_left
            (fun acc k ->
              match k with
              | Carryover_stale { drop; flip } -> Some (drop, flip)
              | _ -> acc)
            None classes
        in
        match args with
        | Some _ when Sim.Rng.bernoulli rng ~p:0.5 -> args
        | _ -> None
      end
      else None

let hits t = t.hits
let skipped t = t.skipped

let rule_describe r =
  Printf.sprintf "at %g%s%s %s%s" r.at
    (match r.period with None -> "" | Some p -> Printf.sprintf " every %g" p)
    (if r.copies = 1 then "" else Printf.sprintf " x%d" r.copies)
    (klass_name r.klass) (klass_args r.klass)

let describe t =
  match t.spec with
  | Rules rules ->
      rules |> List.map rule_describe |> String.concat "; "
      |> Printf.sprintf "corrupt[%s]"
  | Adversary { seed; start; stop; mean_gap; classes } ->
      Printf.sprintf "corrupt-adversary[seed=%d in [%g,%g) gap=%g classes=%s]"
        seed start stop mean_gap
        (String.concat "," (List.map klass_name classes))

(* ---- script text format ------------------------------------------------- *)

let parse_kv = Channel.Script.parse_kv

let int_of = Channel.Script.int_of

let float_of = Channel.Script.float_of

let bool_of ~what v =
  match bool_of_string_opt v with
  | Some b -> Ok b
  | None -> Error (Printf.sprintf "%s: bad boolean %S" what v)

let ( let* ) = Result.bind

let seqs_of ~what v =
  let parts = String.split_on_char ',' v in
  List.fold_left
    (fun acc p ->
      let* acc = acc in
      let* n = int_of ~what p in
      Ok (n :: acc))
    (Ok []) parts
  |> Result.map List.rev

(* Build a klass from its stable name and k=v argument tokens, filling
   defaults for omitted arguments. *)
let klass_of_tokens name kvs =
  let find k = List.assoc_opt k kvs in
  match name with
  | "seq-scramble-send" ->
      let* delta =
        match find "delta" with
        | None -> Ok 5
        | Some v -> int_of ~what:"delta" v
      in
      if delta < 1 then Error "seq-scramble-send: delta must be >= 1"
      else Ok (Seq_scramble { side = Send; delta })
  | "seq-scramble-recv" ->
      let* delta =
        match find "delta" with
        | None -> Ok 3
        | Some v -> int_of ~what:"delta" v
      in
      Ok (Seq_scramble { side = Recv; delta })
  | "nak-poison" ->
      let* seqs =
        match find "seqs" with
        | None -> Ok [ 1; 2 ]
        | Some v -> seqs_of ~what:"seqs" v
      in
      Ok (Nak_poison { seqs })
  | "nak-truncate" -> Ok Nak_truncate
  | "buffer-duplicate" -> Ok Buffer_duplicate
  | "carryover-stale" ->
      let* drop =
        match find "drop" with None -> Ok 1 | Some v -> int_of ~what:"drop" v
      in
      let* flip =
        match find "flip" with
        | None -> Ok false
        | Some v -> bool_of ~what:"flip" v
      in
      Ok (Carryover_stale { drop; flip })
  | "reverse-replay" ->
      let* copies =
        match find "copies" with
        | None -> Ok 1
        | Some v -> int_of ~what:"copies" v
      in
      let* back =
        match find "back" with None -> Ok 0 | Some v -> int_of ~what:"back" v
      in
      Ok (Reverse_replay { copies; back })
  | _ -> Error (Printf.sprintf "unknown corruption class %S" name)

let parse_rule_line tokens =
  (* at T [every P] [copies N] KLASS [k=v ...] *)
  let* at, rest =
    match tokens with
    | "at" :: v :: rest ->
        let* f = float_of ~what:"at" v in
        Ok (f, rest)
    | _ -> Error "rule line must start with 'at <time>'"
  in
  let* period, rest =
    match rest with
    | "every" :: v :: rest ->
        let* f = float_of ~what:"every" v in
        Ok (Some f, rest)
    | rest -> Ok (None, rest)
  in
  let* copies, rest =
    match rest with
    | "copies" :: v :: rest ->
        let* n = int_of ~what:"copies" v in
        Ok (n, rest)
    | rest -> Ok (1, rest)
  in
  match rest with
  | name :: args ->
      let kvs = List.filter_map parse_kv args in
      if List.length kvs <> List.length args then
        Error (Printf.sprintf "malformed argument in %s line" name)
      else
        let* klass = klass_of_tokens name kvs in
        let* r =
          try Ok (rule ~copies ?period ~at klass)
          with Invalid_argument m -> Error m
        in
        Ok r
  | [] -> Error "rule line missing corruption class"

let parse_adversary_line tokens =
  let kvs = List.filter_map parse_kv tokens in
  if List.length kvs <> List.length tokens then
    Error "malformed argument in adversary line"
  else
    let find k = List.assoc_opt k kvs in
    let* seed =
      match find "seed" with
      | None -> Error "adversary: seed=N is required"
      | Some v -> int_of ~what:"seed" v
    in
    let* start =
      match find "start" with
      | None -> Ok 0.
      | Some v -> float_of ~what:"start" v
    in
    let* stop =
      match find "stop" with
      | None -> Error "adversary: stop=T is required"
      | Some v -> float_of ~what:"stop" v
    in
    let* mean_gap =
      match find "mean-gap" with
      | None -> Error "adversary: mean-gap=T is required"
      | Some v -> float_of ~what:"mean-gap" v
    in
    let* classes =
      match find "classes" with
      | None -> Error "adversary: classes=a,b is required"
      | Some v ->
          String.split_on_char ',' v
          |> List.fold_left
               (fun acc name ->
                 let* acc = acc in
                 let* k = klass_of_tokens name [] in
                 Ok (k :: acc))
               (Ok [])
          |> Result.map List.rev
    in
    Ok (Adversary { seed; start; stop; mean_gap; classes })

let of_string =
  Channel.Script.parse ~what:"corrupt script" ~adversary:parse_adversary_line
    ~rule:parse_rule_line ~rules:(fun rules -> Rules rules)

let load = Channel.Script.load of_string
