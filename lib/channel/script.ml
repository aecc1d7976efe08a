let parse_kv tok =
  match String.index_opt tok '=' with
  | None -> None
  | Some i ->
      Some
        ( String.sub tok 0 i,
          String.sub tok (i + 1) (String.length tok - i - 1) )

let int_of ~what v =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s: bad integer %S" what v)

let float_of ~what v =
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s: bad number %S" what v)

let parse ~what ~adversary ~rule ~rules text =
  let lines = String.split_on_char '\n' text in
  let rec go i acc adv = function
    | [] -> (
        match (adv, List.rev acc) with
        | Some a, [] -> Ok a
        | Some _, _ :: _ ->
            Error (what ^ ": cannot mix adversary with rule lines")
        | None, [] -> Error (what ^ ": empty script")
        | None, rs -> Ok (rules rs))
    | line :: rest -> (
        let line =
          match String.index_opt line '#' with
          | None -> line
          | Some j -> String.sub line 0 j
        in
        let tokens =
          String.split_on_char ' ' line
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun s -> s <> "")
        in
        match tokens with
        | [] -> go (i + 1) acc adv rest
        | "adversary" :: args -> (
            match (adversary args, adv) with
            | Ok _, Some _ ->
                Error (Printf.sprintf "line %d: duplicate adversary line" i)
            | Ok a, None -> go (i + 1) acc (Some a) rest
            | Error e, _ -> Error (Printf.sprintf "line %d: %s" i e))
        | _ -> (
            match rule tokens with
            | Ok r -> go (i + 1) (r :: acc) adv rest
            | Error e -> Error (Printf.sprintf "line %d: %s" i e)))
  in
  go 1 [] None lines

let load parse path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error e -> Error e
