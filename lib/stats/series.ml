type t = { name : string; mutable rev_points : (float * float) list }

let create ~name = { name; rev_points = [] }

let add t ~x ~y = t.rev_points <- (x, y) :: t.rev_points

let points t = List.rev t.rev_points

let width = 72

let pp_ascii_plot ?(height = 20) ppf series =
  let all = List.concat_map points series in
  match all with
  | [] -> Format.fprintf ppf "(empty plot)@."
  | _ ->
      let finite = List.filter (fun (x, y) -> Float.is_finite x && Float.is_finite y) all in
      if finite = [] then Format.fprintf ppf "(no finite points)@."
      else begin
        let xmin = List.fold_left (fun a (x, _) -> Float.min a x) infinity finite in
        let xmax = List.fold_left (fun a (x, _) -> Float.max a x) neg_infinity finite in
        let ymin = List.fold_left (fun a (_, y) -> Float.min a y) infinity finite in
        let ymax = List.fold_left (fun a (_, y) -> Float.max a y) neg_infinity finite in
        let xspan = if xmax > xmin then xmax -. xmin else 1. in
        let yspan = if ymax > ymin then ymax -. ymin else 1. in
        let canvas = Array.make_matrix height width ' ' in
        List.iteri
          (fun si s ->
            let marker = Char.chr (Char.code '1' + (si mod 9)) in
            List.iter
              (fun (x, y) ->
                if Float.is_finite x && Float.is_finite y then begin
                  let cx =
                    int_of_float ((x -. xmin) /. xspan *. float_of_int (width - 1))
                  in
                  let cy =
                    int_of_float ((y -. ymin) /. yspan *. float_of_int (height - 1))
                  in
                  canvas.(height - 1 - cy).(cx) <- marker
                end)
              (points s))
          series;
        Format.fprintf ppf "y: [%g, %g]  x: [%g, %g]@." ymin ymax xmin xmax;
        Array.iter
          (fun row -> Format.fprintf ppf "|%s|@." (String.init width (Array.get row)))
          canvas;
        List.iteri
          (fun si s ->
            Format.fprintf ppf "  %c = %s@."
              (Char.chr (Char.code '1' + (si mod 9)))
              s.name)
          series
      end
