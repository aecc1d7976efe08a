type data = Model.fate array

exception Parse_error of string

let magic = "lams-dlc-channel-trace"

let version = "v1"

let fate_token = function
  | Model.Clean -> '.'
  | Model.Corrupt { header = false } -> 'p'
  | Model.Corrupt { header = true } -> 'h'
  | Model.Lost -> 'L'

let fate_of_token = function
  | '.' -> Some Model.Clean
  | 'p' -> Some (Model.Corrupt { header = false })
  | 'h' -> Some (Model.Corrupt { header = true })
  | 'L' -> Some Model.Lost
  | _ -> None

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let strip_comment line =
  match String.index_opt line '#' with
  | None -> line
  | Some i -> String.sub line 0 i

let parse text =
  let lines = String.split_on_char '\n' text in
  (* first non-blank, non-comment line must be the header *)
  let rec split_header = function
    | [] -> parse_error "channel trace: empty input, missing header"
    | line :: rest ->
        let s = String.trim (strip_comment line) in
        if s = "" then split_header rest else (s, rest)
  in
  let header, body = split_header lines in
  let frames =
    match String.split_on_char ' ' header with
    | m :: _ when m <> magic ->
        parse_error "channel trace: bad magic %S (expected %S)" m magic
    | [ _; v; frames_field ] when v = version -> (
        match
          if String.length frames_field > 7 && String.sub frames_field 0 7 = "frames="
          then
            int_of_string_opt
              (String.sub frames_field 7 (String.length frames_field - 7))
          else None
        with
        | Some n when n >= 0 -> n
        | _ ->
            parse_error "channel trace: bad frame count field %S" frames_field)
    | _ :: v :: _ when v <> version ->
        parse_error "channel trace: unsupported version %S (this reader understands %s)"
          v version
    | _ -> parse_error "channel trace: malformed header %S" header
  in
  let fates = Array.make (max frames 1) Model.Clean in
  let count = ref 0 in
  List.iter
    (fun line ->
      let line = strip_comment line in
      String.iter
        (fun c ->
          match c with
          | ' ' | '\t' | '\r' -> ()
          | c -> (
              match fate_of_token c with
              | Some f ->
                  if !count < frames then fates.(!count) <- f;
                  incr count
              | None -> parse_error "channel trace: unknown fate token %C" c))
        line)
    body;
  if !count <> frames then
    parse_error
      "channel trace: header promises %d frames but body has %d (truncated or \
       trailing data)"
      frames !count;
  if frames = Array.length fates then fates else Array.sub fates 0 frames

let to_string ?comment data =
  let buf = Buffer.create (Array.length data + 128) in
  (match comment with
  | None -> ()
  | Some c ->
      List.iter
        (fun line -> Buffer.add_string buf ("# " ^ line ^ "\n"))
        (String.split_on_char '\n' c));
  Buffer.add_string buf
    (Printf.sprintf "%s %s frames=%d\n" magic version (Array.length data));
  Array.iteri
    (fun i f ->
      Buffer.add_char buf (fate_token f);
      if (i + 1) mod 64 = 0 then Buffer.add_char buf '\n')
    data;
  if Array.length data mod 64 <> 0 then Buffer.add_char buf '\n';
  Buffer.contents buf

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

let save ?comment path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string ?comment data))

let error_rate data =
  let n = Array.length data in
  if n = 0 then 0.
  else begin
    let bad = ref 0 in
    Array.iter (fun f -> if f <> Model.Clean then incr bad) data;
    float_of_int !bad /. float_of_int n
  end

(* Dense burst of flips at the start of the span: enough damage that the
   frame CRC cannot pass by accident, expressed at bit level so the
   coded path can exercise its FEC against it. *)
let burst_positions_into ~bits dst =
  let k = min bits 32 in
  for i = 0 to k - 1 do
    Model.Positions.push dst i
  done

let replay ?(offset = 0) data =
  let len = Array.length data in
  if len = 0 then invalid_arg "Trace_model.replay: empty trace";
  let err_rate = error_rate data in
  let rec make cursor0 =
    (* number of fates already dealt; the trace index is derived from it *)
    let dealt = ref cursor0 in
    let next () =
      let i = !dealt in
      incr dealt;
      data.(i mod len)
    in
    {
      Model.m_fate = (fun _rng ~header_bits:_ ~payload_bits:_ -> next ());
      m_fates_into =
        (fun _rng ~header_bits:_ ~payload_bits:_ dst ~n ->
          for i = 0 to n - 1 do
            Array.unsafe_set dst i (next ())
          done);
      m_advance = (fun _rng ~bits:_ -> ());
      m_error_positions_into =
        (fun _rng ~bits dst ->
          match next () with
          | Model.Clean -> ()
          | Model.Corrupt _ | Model.Lost -> burst_positions_into ~bits dst);
      m_frame_error_prob = (fun ~bits:_ -> err_rate);
      m_copy = (fun () -> make !dealt);
      m_describe =
        (fun () ->
          Printf.sprintf "trace(frames=%d, policy=loop, pos=%d)" len
            (!dealt mod len));
    }
  in
  make (((offset mod len) + len) mod len)

(* --- scripted scenario generators --------------------------------------- *)

let draw_fate rng ~ber ~header_bits ~payload_bits =
  let header_bad =
    Sim.Rng.bernoulli rng ~p:(Error_model.p_any_error ~ber ~bits:header_bits)
  in
  let payload_bad =
    Sim.Rng.bernoulli rng ~p:(Error_model.p_any_error ~ber ~bits:payload_bits)
  in
  if header_bad then Model.Corrupt { header = true }
  else if payload_bad then Model.Corrupt { header = false }
  else Model.Clean

let mispointing_storm ?(header_bits = 104) ?(payload_bits = 8192)
    ?(calm_frames = 400) ?(storm_frames = 60) ?(ber_calm = 1e-7)
    ?(ber_storm = 2e-3) ~frames ~seed () =
  if frames < 0 then invalid_arg "Trace_model.mispointing_storm: frames < 0";
  if calm_frames < 1 || storm_frames < 1 then
    invalid_arg "Trace_model.mispointing_storm: phases must be >= 1 frame";
  let rng = Sim.Rng.create ~seed in
  let period = calm_frames + storm_frames in
  Array.init frames (fun i ->
      let ber = if i mod period < calm_frames then ber_calm else ber_storm in
      draw_fate rng ~ber ~header_bits ~payload_bits)

let eclipse ?(header_bits = 104) ?(payload_bits = 8192) ?(period_frames = 2000)
    ?(ber_min = 1e-7) ?(ber_max = 5e-4) ~frames ~seed () =
  if frames < 0 then invalid_arg "Trace_model.eclipse: frames < 0";
  if period_frames < 2 then
    invalid_arg "Trace_model.eclipse: period must be >= 2 frames";
  if not (ber_min > 0. && ber_max >= ber_min && ber_max <= 1.) then
    invalid_arg "Trace_model.eclipse: need 0 < ber_min <= ber_max <= 1";
  let rng = Sim.Rng.create ~seed in
  let log_min = log ber_min and log_max = log ber_max in
  Array.init frames (fun i ->
      (* thermal swing: coldest (ber_min) at phase 0, hottest mid-period *)
      let phase =
        float_of_int (i mod period_frames) /. float_of_int period_frames
      in
      let w = 0.5 *. (1. -. cos (2. *. Float.pi *. phase)) in
      let ber = exp (log_min +. ((log_max -. log_min) *. w)) in
      draw_fate rng ~ber ~header_bits ~payload_bits)

let generate kind ~frames ~seed ~payload_bytes =
  let header_bits = 8 * Frame.Wire.iframe_overhead_bytes in
  let payload_bits = 8 * payload_bytes in
  let tag, data =
    match kind with
    | `Storm ->
        ( "mispointing_storm",
          mispointing_storm ~header_bits ~payload_bits ~frames ~seed () )
    | `Eclipse ->
        ("eclipse", eclipse ~header_bits ~payload_bits ~frames ~seed ())
  in
  ( Printf.sprintf "generated: %s seed=%d frames=%d payload=%dB" tag seed
      frames payload_bytes,
    data )
