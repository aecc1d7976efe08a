type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ----------------------------------------------------------- *)

(* Stats.Jsonstr.escape quotes and escapes a string for the whole repo. *)
let escape_to buf s = Buffer.add_string buf (Stats.Jsonstr.escape s)

(* One float emitter for the whole repo: Stats.Jsonstr.float_repr is the
   shortest round-tripping decimal, with non-finite values as "null". *)
let float_repr = Stats.Jsonstr.float_repr

let to_string ?(indent = 0) v =
  let buf = Buffer.create 256 in
  let pad depth =
    if indent > 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (indent * depth) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape_to buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            go (depth + 1) item)
          items;
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            escape_to buf k;
            Buffer.add_string buf (if indent > 0 then ": " else ":");
            go (depth + 1) item)
          fields;
        pad depth;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------ *)

exception Fail of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let utf8_of_code buf c =
    (* BMP codepoints only; surrogate pairs are combined by the caller. *)
    if c < 0x80 then Buffer.add_char buf (Char.chr c)
    else if c < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (c lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
    end
    else if c < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (c lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (c lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> begin
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              let hi = parse_hex4 () in
              if hi >= 0xD800 && hi <= 0xDBFF then begin
                (* surrogate pair *)
                expect '\\';
                expect 'u';
                let lo = parse_hex4 () in
                if lo < 0xDC00 || lo > 0xDFFF then fail "invalid low surrogate";
                let c =
                  0x10000 + (((hi - 0xD800) lsl 10) lor (lo - 0xDC00))
                in
                utf8_of_code buf c
              end
              else utf8_of_code buf hi
          | _ -> fail "invalid escape");
          loop ()
        end
      | c -> Buffer.add_char buf c; loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    let integral =
      String.for_all (function '0' .. '9' | '-' -> true | _ -> false) lit
    in
    if integral then
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt lit with
          | Some f -> Float f
          | None -> fail "invalid number")
    else
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail "invalid number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

(* --- accessors ---------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null -> Some nan
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_str = function String s -> Some s | _ -> None

let to_list = function List l -> Some l | _ -> None
