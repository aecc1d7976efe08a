type t = { dir : string }

let current = ref None

let set c = current := c

let get () = !current

let basename ~proto ~seed ~fingerprint =
  let digest = Digest.to_hex (Digest.string fingerprint) in
  Printf.sprintf "trace-%s-seed%d-%s" proto seed (String.sub digest 0 12)

let tmp_counter = Atomic.make 0

let write_atomic ~path content =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let tmp =
    Printf.sprintf "%s.tmp-%d" path (Atomic.fetch_and_add tmp_counter 1)
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content);
  Sys.rename tmp path
