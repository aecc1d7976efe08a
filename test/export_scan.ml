(* Which exported values does anything outside their own module name?

   The scan reads every [val] (and [external]) of the library interfaces,
   then every [.ml] file of the repository, and resolves the value paths
   each file names: qualified paths ([Sim.Engine.run]), module aliases
   ([module E = Experiments.E24_feedback] then [E.run]), [open],
   [let open], [include] and local opens ([M.( ... )], [M.[ ... ]],
   [M.{ ... }]), and sibling modules inside one library ([Engine.run] in
   lib/sim). Comments, string literals and character literals name
   nothing. A [val] of a module type counts through every module whose
   interface includes that type, as one name; a functor parameter of
   that type ([module F (X : Dlc.Session.S)]) names it as [X.v], and a
   structure passed to a functor names the [val]s its sub-modules must
   hold ([module Sender = Sender] where [Dlc.Session.VARIANT] asks for
   a [Sender]).

   The resolution over-approximates where OCaml would need a type
   checker: an open reaches every later identifier of its enclosing
   bracket (or of the file), whatever local binding shadows it. So a
   value can be counted as used when it is not, never the other way.

   An optional argument [?x:] of a [val] counts as passed when an [.ml]
   outside its own module applies that value, through any path that
   resolves to it, to a label [~x], [~x:], [?x] or [?x:]. A label belongs
   to the head of the application it stands in: the identifier or value
   path that starts the expression at its bracket level, up to the next
   keyword or operator. A head the scan cannot resolve (a local
   function, a record field) takes its labels with it, so a label
   counts for no exported value by accident. *)

(* Lexing *)

type token =
  | Uid of string
  | Lid of string
  | Label of { optional : bool; name : string }
      (** [~name:] or [?name:]; a punned [~name] or [?name] is this
          label followed by [Lid name] *)
  | Dot
  | Open of string  (** ( [ { sig struct begin object *)
  | Close
  | Kw of string
  | Sym of string

let keywords =
  [ "and"; "as"; "assert"; "asr"; "class"; "constraint"; "do"; "done";
    "downto"; "else"; "exception"; "external"; "false"; "for"; "fun";
    "function"; "functor"; "if"; "in"; "include"; "inherit";
    "initializer"; "land"; "lazy"; "let"; "lor"; "lsl"; "lsr"; "lxor";
    "match"; "method"; "mod"; "module"; "mutable"; "new"; "nonrec"; "of";
    "open"; "or"; "private"; "rec"; "then"; "to"; "true"; "try"; "type";
    "val"; "virtual"; "when"; "while"; "with" ]

let openers = [ "sig"; "struct"; "begin"; "object" ]
let is_lower c = (c >= 'a' && c <= 'z') || c = '_'
let is_upper c = c >= 'A' && c <= 'Z'
let is_digit c = c >= '0' && c <= '9'
let is_ident c = is_lower c || is_upper c || is_digit c || c = '\''
let is_symbol c = String.contains "!$%&*+-./:<=>?@^|~#" c

let find_from s sub i =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go i

let tokens s =
  let n = String.length s in
  let out = ref [] in
  let push t = out := t :: !out in
  let rec string_end i =
    if i >= n then n
    else
      match s.[i] with
      | '"' -> i + 1
      | '\\' -> string_end (i + 2)
      | _ -> string_end (i + 1)
  in
  (* [{id|...|id}] starting at [i]; [None] when [s.[i]] opens a brace. *)
  let quoted_end i =
    let j = ref (i + 1) in
    while !j < n && is_lower s.[!j] do
      incr j
    done;
    if !j < n && s.[!j] = '|' then
      let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
      match find_from s close (!j + 1) with
      | Some k -> Some (k + String.length close)
      | None -> Some n
    else None
  in
  (* A character literal at [i]; [None] when the quote starts a type
     variable. *)
  let char_end i =
    if i + 3 < n && s.[i + 1] = '\\' then
      match String.index_from_opt s (i + 3) '\'' with
      | Some k when k <= i + 6 -> Some (k + 1)
      | _ -> None
    else if i + 2 < n && s.[i + 2] = '\'' then Some (i + 3)
    else None
  in
  let rec comment_end i depth =
    if i + 1 >= n then n
    else
      match (s.[i], s.[i + 1]) with
      | '(', '*' -> comment_end (i + 2) (depth + 1)
      | '*', ')' -> if depth = 1 then i + 2 else comment_end (i + 2) (depth - 1)
      | '"', _ -> comment_end (string_end (i + 1)) depth
      | '{', _ ->
          comment_end (Option.value (quoted_end i) ~default:(i + 1)) depth
      | '\'', _ ->
          comment_end (Option.value (char_end i) ~default:(i + 1)) depth
      | _ -> comment_end (i + 1) depth
  in
  let rec ident_end i = if i < n && is_ident s.[i] then ident_end (i + 1) else i in
  let rec go i =
    if i < n then
      let c = s.[i] in
      let next = if i + 1 < n then s.[i + 1] else ' ' in
      if c = '(' && next = '*' then go (comment_end (i + 2) 1)
      else if c = '"' then go (string_end (i + 1))
      else if c = '{' then (
        match quoted_end i with
        | Some j -> go j
        | None ->
            push (Open "{");
            go (i + 1))
      else if c = '\'' then go (Option.value (char_end i) ~default:(i + 1))
      else if c = '`' then go (ident_end (i + 1))
      else if is_upper c then (
        let j = ident_end i in
        push (Uid (String.sub s i (j - i)));
        go j)
      else if is_lower c then (
        let j = ident_end i in
        let w = String.sub s i (j - i) in
        if List.mem w openers then push (Open w)
        else if w = "end" then push Close
        else if List.mem w keywords then push (Kw w)
        else push (Lid w);
        go j)
      else if is_digit c then
        let rec num j =
          if j < n && (is_ident s.[j] || s.[j] = '.') then num (j + 1)
          else if
            j < n
            && (s.[j] = '-' || s.[j] = '+')
            && String.contains "eEpP" s.[j - 1]
          then num (j + 1)
          else j
        in
        go (num i)
      else if (c = '~' || c = '?') && is_lower next then (
        let j = ident_end (i + 1) in
        let name = String.sub s (i + 1) (j - i - 1) in
        push (Label { optional = c = '?'; name });
        if j < n && s.[j] = ':' && not (j + 1 < n && s.[j + 1] = ':') then
          go (j + 1)
        else (
          push (Lid name);
          go j))
      else if c = '.' && not (is_symbol next) then (
        push Dot;
        go (i + 1))
      else if c = '(' || c = '[' then (
        push (Open (String.make 1 c));
        go (i + 1))
      else if c = ')' || c = ']' || c = '}' then (
        push Close;
        go (i + 1))
      else if c = '|' && next = ']' then (
        push Close;
        go (i + 2))
      else if is_symbol c then (
        let j = ref (i + 1) in
        while !j < n && is_symbol s.[!j] do
          incr j
        done;
        push (Sym (String.sub s i (!j - i)));
        go !j)
      else (
        if c <> ' ' && c <> '\n' && c <> '\t' && c <> '\r' then
          push (Sym (String.make 1 c));
        go (i + 1))
  in
  go 0;
  Array.of_list (List.rev !out)

(* Module paths *)

type source = { path : string; text : string }

type library = { dir : string; name : string }
(** A library directory and its dune [(name ...)]. *)

let dir_of p = Filename.dirname p
let stem p = Filename.remove_extension (Filename.basename p)

let last_name p =
  match String.rindex_opt p '.' with
  | Some i -> String.sub p (i + 1) (String.length p - i - 1)
  | None -> p

let library_of libs p =
  List.find_opt (fun l -> dir_of p = l.dir) libs

(* The path a library file's module is reached by from outside, e.g.
   [Sim.Engine]; a library's main module is the library itself. *)
let module_path lib file =
  let lname = String.capitalize_ascii lib.name in
  let m = String.capitalize_ascii (stem file) in
  if m = lname then lname else lname ^ "." ^ m

(* Reads a module path [U1.U2...] at [i]; returns its names and the index
   after it. *)
let read_path toks i =
  let n = Array.length toks in
  let uid j = j < n && match toks.(j) with Uid _ -> true | _ -> false in
  let rec go i acc =
    match toks.(i) with
    | Uid u when uid (i + 2) && toks.(i + 1) = Dot -> go (i + 2) (u :: acc)
    | Uid u -> (List.rev (u :: acc), i + 1)
    | _ -> (List.rev acc, i)
  in
  if i < n then go i [] else ([], i)

(* Interfaces *)

type export = {
  value : string;  (** the path callers use, e.g. [Sim.Engine.run] *)
  key : string;  (** the declaration: [value], or a module type's [val] *)
  own : string;  (** the [.ml] that defines it *)
}

type interface = {
  exports : export list;
  optionals : (export * string) list;
      (** each [?x:] of a [val]'s own arrows, with its declaration *)
  modules : string list;  (** every module path a caller can name *)
  parts : (string * string) list;
      (** [(m, v)]: a module type holds a module [m] with a [val v], so a
          structure that binds [module m = P] for a functor names [P.v] *)
}

let interface libs mlis =
  let direct = ref [] and in_types = ref [] and includes = ref [] in
  let parts = ref [] and optionals = ref [] in
  let modules = ref (List.map (fun l -> String.capitalize_ascii l.name) libs) in
  List.iter
    (fun src ->
      match library_of libs src.path with
      | None -> ()
      | Some lib ->
          let toks = tokens src.text in
          let n = Array.length toks in
          let own = Filename.remove_extension src.path ^ ".ml" in
          let file_path = module_path lib src.path in
          modules := file_path :: !modules;
          (* Each open bracket's frame: a module, a module type, or
             neither; the innermost module or module type names what a
             [val] belongs to. *)
          let stack = ref [] in
          let prefix () =
            List.find_map
              (function `Mod p | `Mtype p -> Some p | `Other -> None)
              !stack
            |> Option.value ~default:file_path
          in
          let pending = ref `Other in
          (* The [val] being declared and the bracket depth of its own
             arrows, until its declaration ends. *)
          let current = ref None in
          let record v =
            let p = prefix () in
            let decl = { value = p ^ "." ^ v; key = p ^ "." ^ v; own } in
            current := Some (decl, List.length !stack);
            if List.exists (function `Mtype _ -> true | _ -> false) !stack then (
              in_types := (p, v) :: !in_types;
              match List.find (function `Other -> false | _ -> true) !stack with
              | `Mod _ -> parts := (last_name p, v) :: !parts
              | _ -> ())
            else direct := decl :: !direct
          in
          let i = ref 0 in
          while !i < n do
            (match toks.(!i) with
            | Kw
                ( "type" | "module" | "include" | "exception" | "open"
                | "class" ) ->
                current := None
            | _ -> ());
            (match toks.(!i) with
            | Kw ("val" | "external") -> (
                current := None;
                match if !i + 1 < n then toks.(!i + 1) else Close with
                | Lid v -> record v
                | _ -> ())
            | Label { optional = true; name } -> (
                match !current with
                | Some (decl, depth) when List.length !stack = depth ->
                    optionals := (decl, name) :: !optionals
                | _ -> ())
            | Kw "module" when !i + 4 < n -> (
                let at k = toks.(!i + k) in
                let sub m = prefix () ^ "." ^ m in
                match (at 1, at 2, at 3, at 4) with
                | Uid m, Sym ":", Open "sig", _ ->
                    pending := `Mod (sub m);
                    modules := sub m :: !modules
                | Kw "type", Uid m, Sym "=", Open "sig" ->
                    pending := `Mtype (sub m);
                    modules := sub m :: !modules
                | Uid m, Sym ":", Kw "module", Kw "type" ->
                    modules := sub m :: !modules
                | _ -> ())
            | Kw "include" ->
                let p, _ = read_path toks (!i + 1) in
                if p <> [] then
                  let path = String.concat "." p in
                  includes := (prefix (), own, path, lib) :: !includes
            | Open _ ->
                stack := !pending :: !stack;
                pending := `Other
            | Close -> (
                (match !current with
                | Some (_, depth) when List.length !stack = depth ->
                    current := None
                | _ -> ());
                match !stack with _ :: rest -> stack := rest | [] -> ())
            | _ -> ());
            incr i
          done)
    mlis;
  let modules = List.sort_uniq compare !modules in
  let expanded =
    List.concat_map
      (fun (into, own, p, lib) ->
        let candidates = [ String.capitalize_ascii lib.name ^ "." ^ p; p ] in
        match List.find_opt (fun c -> List.mem_assoc c !in_types) candidates with
        | None -> []
        | Some mt ->
            List.filter_map
              (fun (t, v) ->
                if t <> mt then None
                else Some { value = into ^ "." ^ v; key = mt ^ "." ^ v; own })
              !in_types)
      !includes
  in
  (* A functor's parameter of an included module type names its [val]s
     as [Type.v]. *)
  let expanded =
    List.sort_uniq compare
      (List.map (fun e -> { e with value = e.key; own = "" }) expanded)
    @ expanded
  in
  {
    exports = List.rev_append !direct expanded;
    optionals = List.rev !optionals;
    modules;
    parts = !parts;
  }

(* References *)

type frame = {
  mutable opens : string list;
  mutable aliases : (string * string list) list;
      (** [[]] shadows: a local structure or a functor application *)
  mutable head : string list;
      (** the exported values the application at this bracket level
          applies; a label here is passed to them *)
  mutable at_start : bool;
      (** no atom yet since the last keyword or operator: the next one is
          an application's head *)
}

let frame opens = { opens; aliases = []; head = []; at_start = true }

(* The exported value paths [src] names, in order, with repeats, and
   each [(value path, label)] it applies a value to. *)
let scan libs iface src =
  let toks = tokens src.text in
  let n = Array.length toks in
  let modules = Hashtbl.create 256 in
  List.iter (fun m -> Hashtbl.replace modules m ()) iface.modules;
  let known = Hashtbl.mem modules in
  let values = Hashtbl.create 1024 in
  List.iter (fun e -> Hashtbl.replace values e.value ()) iface.exports;
  let lib = library_of libs src.path in
  let frames = ref [ frame [] ] in
  let top () = List.hd !frames in
  let alias u = List.find_map (fun f -> List.assoc_opt u f.aliases) !frames in
  let opens () = List.concat_map (fun f -> f.opens) !frames in
  let resolve = function
    | [] -> []
    | u :: rest ->
        let join h = String.concat "." (h :: rest) in
        let found =
          match alias u with
          | Some targets -> List.map join targets
          | None ->
              let sibling =
                match lib with
                | Some l when known (String.capitalize_ascii l.name ^ "." ^ u) ->
                    [ join (String.capitalize_ascii l.name ^ "." ^ u) ]
                | _ -> [ join u ]
              in
              sibling @ List.map (fun o -> join (o ^ "." ^ u)) (opens ())
        in
        List.filter known found
  in
  let refs = ref [] and applied = ref [] in
  (* The exported value [m.v], when it is one. *)
  let name m v =
    let p = m ^ "." ^ v in
    if Hashtbl.mem values p then (
      refs := p :: !refs;
      [ p ])
    else []
  in
  (* An atom at the current bracket level: the head of an application
     when it starts the expression, else an argument. *)
  let atom paths =
    let f = top () in
    if f.at_start then (
      f.head <- paths;
      f.at_start <- false)
  in
  let restart () =
    let f = top () in
    f.head <- [];
    f.at_start <- true
  in
  let pending = ref [] in
  let i = ref 0 in
  while !i < n do
    let t = toks.(!i) in
    let prev = if !i > 0 then toks.(!i - 1) else Sym "" in
    (match t with
    | Label { name = x; _ } ->
        List.iter (fun p -> applied := (p, x) :: !applied) (top ()).head
    | Kw ("true" | "false") -> atom []
    | Sym "!" -> ()
    | Kw _ | Sym _ -> restart ()
    | _ -> ());
    (match t with
    | Kw ("open" | "include") ->
        let bang = !i + 1 < n && toks.(!i + 1) = Sym "!" in
        let j = if bang then !i + 2 else !i + 1 in
        let p, k = read_path toks j in
        if p <> [] && not (k < n && toks.(k) = Open "(") then
          (top ()).opens <- resolve p @ (top ()).opens;
        i := k - 1
    | Kw "module" when !i + 2 < n -> (
        match (toks.(!i + 1), toks.(!i + 2)) with
        | Uid f, Open "(" when !i + 5 < n && toks.(!i + 4) = Sym ":" -> (
            (* [module F (X : T) = ...]: [X.v] names [T.v] *)
            (top ()).aliases <- (f, []) :: (top ()).aliases;
            match toks.(!i + 3) with
            | Uid x ->
                let p, _ = read_path toks (!i + 5) in
                (top ()).aliases <- (x, resolve p) :: (top ()).aliases
            | _ -> ())
        | Uid m, Sym "=" ->
            let p, k = read_path toks (!i + 3) in
            let targets =
              if p = [] || (k < n && toks.(k) = Open "(") then [] else resolve p
            in
            (top ()).aliases <- (m, targets) :: (top ()).aliases;
            List.iter
              (fun (part, v) ->
                if part = m then
                  List.iter (fun t -> ignore (name t v : string list)) targets)
              iface.parts;
            i := k - 1
        | Uid m, _ -> (top ()).aliases <- (m, []) :: (top ()).aliases
        | _ -> ())
    | Uid _ when prev <> Dot ->
        let p, k = read_path toks !i in
        (match if k + 1 < n && toks.(k) = Dot then toks.(k + 1) else Close with
        | Lid v -> atom (List.concat_map (fun m -> name m v) (resolve p))
        | Open ("(" | "[" | "{") -> pending := resolve p
        | _ -> atom []);
        i := k - 1
    | Lid v when prev <> Dot && prev <> Kw "val" && prev <> Kw "external" ->
        atom (List.concat_map (fun m -> name m v) (opens ()))
    | Open _ ->
        frames := frame !pending :: !frames;
        pending := []
    | Close -> (
        match !frames with
        | _ :: (_ :: _ as rest) ->
            frames := rest;
            atom []
        | _ -> ())
    | _ -> ());
    incr i
  done;
  (List.rev !refs, List.rev !applied)

let references libs iface src = fst (scan libs iface src)

(* Callers *)

type use = Unused | Test_only of string list | Used

let is_test p = String.length p >= 5 && String.sub p 0 5 = "test/"

(* Every declaration's use, sorted by key: [Used] when a file outside
   test/ and outside its own module names it. *)
let uses libs ~mlis ~mls =
  let iface = interface libs mlis in
  let callers = Hashtbl.create 1024 in
  let by_name = Hashtbl.create 1024 in
  List.iter (fun e -> Hashtbl.add by_name e.value e) iface.exports;
  List.iter
    (fun src ->
      List.iter
        (fun p ->
          List.iter
            (fun e ->
              if e.own <> src.path then
                Hashtbl.replace callers (e.key, src.path) ())
            (Hashtbl.find_all by_name p))
        (List.sort_uniq compare (references libs iface src)))
    mls;
  let keys = List.sort_uniq compare (List.map (fun e -> e.key) iface.exports) in
  List.map
    (fun k ->
      let files =
        List.filter (fun src -> Hashtbl.mem callers (k, src.path)) mls
        |> List.map (fun src -> src.path)
      in
      let use =
        if files = [] then Unused
        else if List.for_all is_test files then Test_only files
        else Used
      in
      (k, use))
    keys

(* Every [?x:] of a [val], as ["Value.path ?x"] sorted, with whether a
   file outside test/ and outside its own module applies the value to
   the label [x]. *)
let optional_uses libs ~mlis ~mls =
  let iface = interface libs mlis in
  let by_name = Hashtbl.create 1024 in
  List.iter (fun e -> Hashtbl.add by_name e.value e) iface.exports;
  let passed = Hashtbl.create 256 in
  List.iter
    (fun src ->
      if not (is_test src.path) then
        List.iter
          (fun (p, x) ->
            List.iter
              (fun e -> if e.own <> src.path then Hashtbl.replace passed (e.key, x) ())
              (Hashtbl.find_all by_name p))
          (snd (scan libs iface src)))
    mls;
  List.map
    (fun (decl, x) -> (decl.key ^ " ?" ^ x, Hashtbl.mem passed (decl.key, x)))
    iface.optionals
  |> List.sort_uniq compare

(* Reading the tree *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The files under [root/dir], as paths relative to [root]; like dune,
   skips directories whose names start with '.' or '_'. *)
let rec walk ~root dir =
  Sys.readdir (Filename.concat root dir) |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if f.[0] = '.' || f.[0] = '_' then []
         else if Sys.is_directory (Filename.concat root p) then walk ~root p
         else [ p ])

(* The [(name ...)] of a dune file's library stanza. *)
let library_name dune =
  match find_from dune "(name " 0 with
  | None -> None
  | Some i ->
      let j = i + 6 in
      let k = ref j in
      while !k < String.length dune && is_ident dune.[!k] do
        incr k
      done;
      Some (String.sub dune j (!k - j))

(* The libraries, their interfaces and every [.ml] of the repository at
   [root]. *)
let load ~root =
  let dirs = [ "lib"; "bin"; "perfbench"; "examples"; "test" ] in
  let all = List.concat_map (walk ~root) dirs in
  let src p = { path = p; text = read_file (Filename.concat root p) } in
  let libs =
    List.filter_map
      (fun p ->
        if Filename.basename p = "dune" && dir_of (dir_of p) = "lib" then
          library_name (read_file (Filename.concat root p))
          |> Option.map (fun name -> { dir = dir_of p; name })
        else None)
      all
  in
  let pick ext =
    List.filter (fun p -> Filename.extension p = ext) all |> List.map src
  in
  let mlis = List.filter (fun s -> library_of libs s.path <> None) (pick ".mli") in
  (libs, mlis, pick ".ml")
