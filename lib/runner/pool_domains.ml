(* Domain-based pool, built on OCaml >= 5 (see dune rules; pool_seq.ml
   is the 4.14 fallback). Work stealing is a single atomic cursor: each
   worker claims the next unclaimed index until the array is exhausted.
   Results land in distinct slots, so the only cross-domain
   synchronisation is the cursor and the final joins. *)

let default_jobs () = Domain.recommended_domain_count ()

let map ~jobs f a =
  let n = Array.length a in
  let jobs = min jobs n in
  if jobs <= 1 || n = 0 then Array.map f a
  else begin
    let results = Array.make n None in
    let first_error = Atomic.make None in
    let cursor = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        (match f a.(i) with
        | v -> results.(i) <- Some v
        | exception e ->
            ignore (Atomic.compare_and_set first_error None (Some e) : bool));
        if Atomic.get first_error = None then worker ()
      end
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    match Atomic.get first_error with
    | Some e -> raise e
    | None ->
        Array.map (function Some v -> v | None -> assert false) results
  end
