type t = { recorder : Recorder.t; buf : Buffer.t }

let make ?capacity ~name () =
  let recorder = Recorder.create ?capacity ~name () in
  let buf = Buffer.create 65536 in
  Recorder.set_sink recorder (fun e ->
      Buffer.add_string buf (Event.to_line e);
      Buffer.add_char buf '\n');
  { recorder; buf }

let create ~name () = make ~name ()

let recorder t = t.recorder

let jsonl t = Buffer.contents t.buf

let metrics_json t =
  Bench_report.Json.to_string ~indent:2
    (Metrics.to_json (Recorder.metrics t.recorder))
  ^ "\n"

let files t ~stem ~trace =
  (trace, jsonl t)
  :: (stem ^ ".metrics.json", metrics_json t)
  ::
  (match Recorder.flight_jsonl t.recorder with
  | Some dump -> [ (stem ^ ".flight.jsonl", dump) ]
  | None -> [])

let publish =
  List.iter (fun (path, content) -> Config.write_atomic ~path content)

let outputs t ~path = files t ~stem:path ~trace:path

let write t ~path = publish (outputs t ~path)

let around ?recorder ~proto ~seed ~fingerprint run =
  match (recorder, Config.get ()) with
  | Some _, _ | None, None -> run recorder
  | None, Some c ->
      let base =
        Filename.concat c.Config.dir
          (Config.basename ~proto ~seed ~fingerprint:(fingerprint ()))
      in
      let t = make ~capacity:c.Config.capacity ~name:(Filename.basename base) () in
      let v = run (Some t.recorder) in
      publish (files t ~stem:base ~trace:(base ^ ".jsonl"));
      v
