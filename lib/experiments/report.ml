module M = Bench_report.Matrix_report

let section ppf ~id ~title =
  Format.fprintf ppf "@.=== %s: %s ===@." id title

let note ppf s = Format.fprintf ppf "%s@." s

let table ppf t = Format.fprintf ppf "%a" Stats.Table.pp t

let ratio a b = if b = 0. then nan else a /. b

(* Counts print in full; other values to four significant digits. *)
let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.4g" x

let stat_cell (s : M.stat) =
  if s.M.count <= 1 then number s.mean
  else Printf.sprintf "%s +-%.2g" (number s.mean) s.ci95

let stat (e : M.experiment) label key =
  let missing what = failwith (Printf.sprintf "%s: no %s in the matrix" e.M.id what) in
  match List.find_opt (fun (p : M.point) -> p.label = label) e.points with
  | None -> missing (Printf.sprintf "point %S" label)
  | Some p -> (
      match List.assoc_opt key p.metrics with
      | Some s -> s
      | None -> missing (Printf.sprintf "metric %S at point %S" key label))

let cell e label key = stat_cell (stat e label key)

let mean e label key = (stat e label key).M.mean

let count e label key = (stat e label key).M.count

let matrix_table ppf (e : M.experiment) =
  let metric_names =
    match e.M.points with
    | [] -> []
    | p :: _ -> List.map fst p.M.metrics
  in
  let t = Stats.Table.create ~header:("point" :: metric_names) in
  List.iter
    (fun (p : M.point) ->
      Stats.Table.add_row t
        (p.label
        :: List.map
             (fun name ->
               match List.assoc_opt name p.metrics with
               | Some s -> stat_cell s
               | None -> "-")
             metric_names))
    e.points;
  table ppf t

let generic ppf (e : M.experiment) =
  section ppf ~id:e.M.id ~title:e.name;
  matrix_table ppf e

let matrix ?(render = generic) ppf (r : M.t) =
  Format.fprintf ppf "matrix: %d replicate(s), root seed %d@." r.M.replicates
    r.root_seed;
  List.iter (render ppf) r.experiments
