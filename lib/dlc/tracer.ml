type direction = Forward | Reverse

type happening =
  | Sent of string
  | Received of string
  | Corrupted of string
  | Lost of string

type event = { t : float; direction : direction; happening : happening }

type t = {
  capacity : int;
  mutable buf : event array;
  mutable len : int;
  mutable head : int;  (* next write slot *)
}

let create ?(capacity = 10_000) () =
  if capacity < 1 then invalid_arg "Tracer.create: capacity must be >= 1";
  { capacity; buf = [||]; len = 0; head = 0 }

let record t ev =
  if Array.length t.buf = 0 then t.buf <- Array.make t.capacity ev;
  t.buf.(t.head) <- ev;
  t.head <- (t.head + 1) mod t.capacity;
  if t.len < t.capacity then t.len <- t.len + 1

let frame_label frame = Format.asprintf "%a" Frame.Wire.pp frame

let on_tap t engine ~direction tap_event =
  let happening =
    match tap_event with
    | Channel.Link.Tap_tx frame -> Sent (frame_label frame)
    | Channel.Link.Tap_rx rx -> (
        match rx.Channel.Link.status with
        | Channel.Link.Rx_ok -> Received (frame_label rx.Channel.Link.frame)
        | Channel.Link.Rx_payload_corrupt | Channel.Link.Rx_header_corrupt ->
            Corrupted (frame_label rx.Channel.Link.frame))
    | Channel.Link.Tap_lost frame -> Lost (frame_label frame)
  in
  record t { t = Sim.Engine.now engine; direction; happening }

let attach t engine ~forward ~reverse =
  Channel.Link.add_tap forward (on_tap t engine ~direction:Forward);
  Channel.Link.add_tap reverse (on_tap t engine ~direction:Reverse)

let events t =
  List.init t.len (fun i ->
      let idx = (t.head - t.len + i + (2 * t.capacity)) mod t.capacity in
      t.buf.(idx))

let happening_text = function
  | Sent s -> Printf.sprintf "tx   %s" s
  | Received s -> Printf.sprintf "rx   %s" s
  | Corrupted s -> Printf.sprintf "CORR %s" s
  | Lost s -> Printf.sprintf "LOST %s" s

let pp_timeline ?(limit = 60) ?(from_t = 0.) ppf t =
  let selected =
    events t
    |> List.filter (fun ev -> ev.t >= from_t)
    |> List.filteri (fun i _ -> i < limit)
  in
  Format.fprintf ppf "%12s  %-36s %-36s@." "t (s)" "--> forward" "<-- reverse";
  List.iter
    (fun ev ->
      let text = happening_text ev.happening in
      match ev.direction with
      | Forward -> Format.fprintf ppf "%12.6f  %-36s@." ev.t text
      | Reverse -> Format.fprintf ppf "%12.6f  %-36s %-36s@." ev.t "" text)
    selected;
  if List.length selected = limit then Format.fprintf ppf "... (truncated)@."
