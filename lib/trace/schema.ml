let fold content ~init f =
  let rec go lineno last_i acc = function
    | [] -> Ok acc
    | "" :: rest when List.for_all (String.equal "") rest ->
        (* trailing newline(s) *)
        Ok acc
    | line :: rest -> (
        match Event.of_line line with
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
        | Ok ev ->
            if ev.Event.i <= last_i then
              Error
                (Printf.sprintf
                   "line %d: event index %d not strictly increasing (previous \
                    %d)"
                   lineno ev.Event.i last_i)
            else go (lineno + 1) ev.Event.i (f acc ev) rest)
  in
  go 1 (-1) init (String.split_on_char '\n' content)

let fold_file path ~init f =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | content -> fold content ~init f
  | exception Sys_error e -> Error e

let validate_file path = fold_file path ~init:0 (fun n _ -> n + 1)
