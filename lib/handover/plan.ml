type t = {
  windows : Orbit.Contact.window list;
  retarget_overhead : float;
}

let validate ~retarget_overhead windows =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if retarget_overhead < 0. then
    err "retarget_overhead must be >= 0 (got %g)" retarget_overhead
  else if not (Float.is_finite retarget_overhead) then
    err "retarget_overhead must be finite"
  else
    let rec check prev_end = function
      | [] -> Ok { windows; retarget_overhead }
      | w :: rest ->
          let s = w.Orbit.Contact.t_start and e = w.Orbit.Contact.t_end in
          if not (Float.is_finite s && Float.is_finite e) then
            err "window [%g, %g] has a non-finite bound" s e
          else if e <= s then err "window [%g, %g] is empty or reversed" s e
          else if s < prev_end then
            err "window [%g, %g] starts before the previous window ends (%g)"
              s e prev_end
          else check e rest
    in
    check neg_infinity windows

let scripted_exn ~retarget_overhead windows =
  match validate ~retarget_overhead windows with
  | Ok t -> t
  | Error msg -> invalid_arg ("Handover.Plan.scripted: " ^ msg)

let windows t = t.windows

let retarget_overhead t = t.retarget_overhead

let end_time t =
  match List.rev t.windows with
  | [] -> None
  | w :: _ -> Some w.Orbit.Contact.t_end

(* --- textual plan files -------------------------------------------------- *)

let of_string s =
  let lines = String.split_on_char '\n' s in
  let strip line =
    (* drop a trailing comment, then surrounding whitespace *)
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    String.trim line
  in
  let rec go lineno retarget windows = function
    | [] -> validate ~retarget_overhead:(Option.value ~default:0. retarget)
              (List.rev windows)
    | raw :: rest -> (
        let line = strip raw in
        let err fmt =
          Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lineno m)) fmt
        in
        if line = "" then go (lineno + 1) retarget windows rest
        else
          match String.split_on_char ' ' line
                |> List.filter (fun f -> f <> "")
          with
          | [ "retarget"; v ] -> (
              match (retarget, float_of_string_opt v) with
              | Some _, _ -> err "duplicate retarget directive"
              | None, None -> err "retarget wants a number, got %S" v
              | None, Some r -> go (lineno + 1) (Some r) windows rest)
          | [ "window"; a; b ] -> (
              match (float_of_string_opt a, float_of_string_opt b) with
              | Some t_start, Some t_end ->
                  go (lineno + 1) retarget
                    ({ Orbit.Contact.t_start; t_end } :: windows)
                    rest
              | _ -> err "window wants two numbers, got %S %S" a b)
          | _ -> err "expected 'retarget <s>' or 'window <start> <end>': %S" line)
  in
  match go 1 None [] lines with
  | Ok t -> Ok t
  | Error msg -> Error ("contact plan: " ^ msg)

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | content -> of_string content
  | exception Sys_error e -> Error e

let pp ppf t =
  Format.fprintf ppf "retarget=%gs, %d window(s):" t.retarget_overhead
    (List.length t.windows);
  List.iter
    (fun w ->
      Format.fprintf ppf " [%g, %g]" w.Orbit.Contact.t_start
        w.Orbit.Contact.t_end)
    t.windows
