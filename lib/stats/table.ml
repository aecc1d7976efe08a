type t = { header : string list; mutable rev_rows : string list list }

let create ~header = { header; rev_rows = [] }

let add_row t row = t.rev_rows <- row :: t.rev_rows

let add_float_row t label values =
  add_row t (label :: List.map (Printf.sprintf "%.6g") values)

let pp ppf t =
  let rows = List.rev t.rev_rows in
  let ncols =
    List.fold_left
      (fun acc r -> Stdlib.max acc (List.length r))
      (List.length t.header)
      rows
  in
  let cell row i = match List.nth_opt row i with Some c -> c | None -> "" in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c)
      row
  in
  measure t.header;
  List.iter measure rows;
  let pad i s = s ^ String.make (widths.(i) - String.length s) ' ' in
  let render row =
    String.concat "  " (List.init ncols (fun i -> pad i (cell row i)))
  in
  Format.fprintf ppf "%s@." (render t.header);
  let rule = String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths)) in
  Format.fprintf ppf "%s@." rule;
  List.iter (fun r -> Format.fprintf ppf "%s@." (render r)) rows
