type fragment = {
  msg_id : int;
  src : int;
  dst : int;
  index : int;
  count : int;
  body : string;
}

let fragment_message ~msg_id ~src ~dst ~mtu body =
  if mtu <= 0 then invalid_arg "Messages.fragment_message: mtu must be > 0";
  let len = String.length body in
  let count = if len = 0 then 1 else (len + mtu - 1) / mtu in
  List.init count (fun index ->
      let pos = index * mtu in
      let chunk_len = min mtu (len - pos) in
      let chunk = if len = 0 then "" else String.sub body pos chunk_len in
      { msg_id; src; dst; index; count; body = chunk })

let encode f =
  Printf.sprintf "M%d|%d|%d|%d|%d|%s" f.msg_id f.src f.dst f.index f.count f.body

let decode s =
  if String.length s < 1 || s.[0] <> 'M' then Error "missing fragment magic"
  else begin
    (* five '|'-separated integer fields, then the body (may contain '|') *)
    let rest = String.sub s 1 (String.length s - 1) in
    let rec split_n acc n s =
      if n = 0 then Some (List.rev acc, s)
      else
        match String.index_opt s '|' with
        | None -> None
        | Some i ->
            split_n
              (String.sub s 0 i :: acc)
              (n - 1)
              (String.sub s (i + 1) (String.length s - i - 1))
    in
    match split_n [] 5 rest with
    | None -> Error "truncated fragment header"
    | Some (fields, body) -> (
        match List.map int_of_string_opt fields with
        | [ Some msg_id; Some src; Some dst; Some index; Some count ] ->
            if index < 0 || count < 1 || index >= count then
              Error "inconsistent fragment numbering"
            else Ok { msg_id; src; dst; index; count; body }
        | _ -> Error "non-integer fragment header field")
  end
