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

(* --- files -------------------------------------------------------------- *)

let write ?with_meta path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~indent:2 (to_json ?with_meta t));
      output_char oc '\n')
