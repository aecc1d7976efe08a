type stat = {
  count : int;
  mean : float;
  stddev : float;
  ci95 : float;
  min : float;
  max : float;
}

type point = { label : string; metrics : (string * stat) list }

type experiment = { id : string; name : string; points : point list }

type meta = {
  jobs : int;
  git_rev : string;
  ocaml_version : string;
  host : string;
  timestamp : string;
}

type t = {
  schema_version : int;
  root_seed : int;
  replicates : int;
  experiments : experiment list;
  meta : meta option;
}

let schema_version = 1

let git_short_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let iso8601_now () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let collect_meta ~jobs =
  {
    jobs;
    git_rev = git_short_rev ();
    ocaml_version = Sys.ocaml_version;
    host = (try Unix.gethostname () with _ -> "unknown");
    timestamp = iso8601_now ();
  }

let stat_of_online o =
  {
    count = Stats.Online.count o;
    mean = Stats.Online.mean o;
    stddev = Stats.Online.stddev o;
    ci95 = Stats.Online.ci95_halfwidth o;
    min = Stats.Online.min o;
    max = Stats.Online.max o;
  }

let strip_meta t = { t with meta = None }

(* --- JSON --------------------------------------------------------------- *)

let stat_to_json s =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("mean", Json.Float s.mean);
      ("stddev", Json.Float s.stddev);
      ("ci95", Json.Float s.ci95);
      ("min", Json.Float s.min);
      ("max", Json.Float s.max);
    ]

let point_to_json p =
  Json.Obj
    [
      ("label", Json.String p.label);
      ( "metrics",
        Json.Obj (List.map (fun (k, s) -> (k, stat_to_json s)) p.metrics) );
    ]

let experiment_to_json e =
  Json.Obj
    [
      ("id", Json.String e.id);
      ("name", Json.String e.name);
      ("points", Json.List (List.map point_to_json e.points));
    ]

let meta_to_json m =
  Json.Obj
    [
      ("jobs", Json.Int m.jobs);
      ("git_rev", Json.String m.git_rev);
      ("ocaml_version", Json.String m.ocaml_version);
      ("host", Json.String m.host);
      ("timestamp", Json.String m.timestamp);
    ]

let to_json ?(with_meta = true) t =
  let fields =
    [
      ("schema_version", Json.Int t.schema_version);
      ("root_seed", Json.Int t.root_seed);
      ("replicates", Json.Int t.replicates);
      ("experiments", Json.List (List.map experiment_to_json t.experiments));
    ]
  in
  match t.meta with
  | Some m when with_meta -> Json.Obj (fields @ [ ("meta", meta_to_json m) ])
  | _ -> Json.Obj fields

let ( let* ) = Result.bind

let field ~what conv key j =
  match Option.bind (Json.member key j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or ill-typed field %S" what key)

let stat_of_json j =
  let what = "stat" in
  let* count = field ~what Json.to_int "count" j in
  let* mean = field ~what Json.to_float "mean" j in
  let* stddev = field ~what Json.to_float "stddev" j in
  let* ci95 = field ~what Json.to_float "ci95" j in
  let* min = field ~what Json.to_float "min" j in
  let* max = field ~what Json.to_float "max" j in
  Ok { count; mean; stddev; ci95; min; max }

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* rest = map_result f rest in
      Ok (y :: rest)

let point_of_json j =
  let what = "point" in
  let* label = field ~what Json.to_str "label" j in
  let* metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj kvs) ->
        map_result
          (fun (k, sj) ->
            let* s = stat_of_json sj in
            Ok (k, s))
          kvs
    | _ -> Error "point: missing or ill-typed field \"metrics\""
  in
  Ok { label; metrics }

let experiment_of_json j =
  let what = "experiment" in
  let* id = field ~what Json.to_str "id" j in
  let* name = field ~what Json.to_str "name" j in
  let* points = field ~what Json.to_list "points" j in
  let* points = map_result point_of_json points in
  Ok { id; name; points }

let meta_of_json j =
  let what = "meta" in
  let* jobs = field ~what Json.to_int "jobs" j in
  let* git_rev = field ~what Json.to_str "git_rev" j in
  let* ocaml_version = field ~what Json.to_str "ocaml_version" j in
  let* host = field ~what Json.to_str "host" j in
  let* timestamp = field ~what Json.to_str "timestamp" j in
  Ok { jobs; git_rev; ocaml_version; host; timestamp }

let of_json j =
  let what = "matrix report" in
  let* version = field ~what Json.to_int "schema_version" j in
  if version <> schema_version then
    Error
      (Printf.sprintf "unsupported schema_version %d (this build reads %d)"
         version schema_version)
  else
    let* root_seed = field ~what Json.to_int "root_seed" j in
    let* replicates = field ~what Json.to_int "replicates" j in
    let* experiments = field ~what Json.to_list "experiments" j in
    let* experiments = map_result experiment_of_json experiments in
    let* meta =
      match Json.member "meta" j with
      | None -> Ok None
      | Some m ->
          let* m = meta_of_json m in
          Ok (Some m)
    in
    Ok { schema_version = version; root_seed; replicates; experiments; meta }

(* The determinism contract compares rendered deterministic JSON, not
   records: NaN-valued stats (a metric that is [nan] in every replicate)
   must compare equal, and renderings are what the CLI emits and CI
   diffs. *)
let equal_results a b =
  Json.to_string (to_json ~with_meta:false a)
  = Json.to_string (to_json ~with_meta:false b)

(* --- files -------------------------------------------------------------- *)

let write ?with_meta path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~indent:2 (to_json ?with_meta t));
      output_char oc '\n')

let read path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | contents ->
      let* j = Json.of_string contents in
      of_json j

let find t id = List.find_opt (fun e -> e.id = id) t.experiments
