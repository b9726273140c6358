type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing.                                                           *)

let hex = "0123456789abcdef"

(* Strings are copied a run at a time: only the bytes that need an
   escape are written one by one. *)
let escape_to buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !run (i - !run);
      run := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex.[Char.code c lsr 4];
          Buffer.add_char buf hex.[Char.code c land 15]
    end
  done;
  Buffer.add_substring buf s !run (n - !run);
  Buffer.add_char buf '"'

(* The digits of [n <= 0], most significant first; working on the
   negative side covers [min_int]. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf i
  end
  else add_digits buf (-i)

(* A float is printed as ["%.1f"] when it is an integer below 1e15 (the
   decimal point keeps it a float when read back) and as ["%.9g"]
   otherwise.  Fast path: when 0.01 <= |f| < 1e6 and f has at most two
   decimals ([round (f * 100) / 100 = f]), both formats give that exact
   decimal with trailing zeros dropped (but one kept after the point),
   which is written here without [Printf].  Every other float pays the
   check and then goes through [Printf].  The fast path pays off only on
   data whose reals have that shape; docs/PERFORMANCE.md gives the
   share on each benchmark workload. *)
let add_float buf f =
  let a = Float.abs f in
  let cents = Float.round (a *. 100.) in
  if a >= 0.01 && a < 1e6 && cents /. 100. = a then begin
    let cents = int_of_float cents in
    if f < 0. then Buffer.add_char buf '-';
    add_digits buf (-(cents / 100));
    Buffer.add_char buf '.';
    let frac = cents mod 100 in
    Buffer.add_char buf (Char.unsafe_chr (48 + (frac / 10)));
    if frac mod 10 <> 0 then
      Buffer.add_char buf (Char.unsafe_chr (48 + (frac mod 10)))
  end
  else if Float.is_integer f && a < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  else Buffer.add_string buf (Printf.sprintf "%.9g" f)

(* [indent] is [None] for one-line output; [level] is the nesting depth. *)
let newline buf indent level =
  match indent with
  | None -> ()
  | Some n ->
      Buffer.add_char buf '\n';
      for _ = 1 to n * level do
        Buffer.add_char buf ' '
      done

let rec add_value buf indent level = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> add_float buf f
  | String s -> escape_to buf s
  | List [] -> Buffer.add_string buf "[]"
  | List (item :: items) ->
      Buffer.add_char buf '[';
      newline buf indent (level + 1);
      add_value buf indent (level + 1) item;
      add_items buf indent level items;
      newline buf indent level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (field :: fields) ->
      Buffer.add_char buf '{';
      add_field buf indent level field;
      add_fields buf indent level fields;
      newline buf indent level;
      Buffer.add_char buf '}'

and add_items buf indent level = function
  | [] -> ()
  | item :: items ->
      Buffer.add_char buf ',';
      newline buf indent (level + 1);
      add_value buf indent (level + 1) item;
      add_items buf indent level items

and add_field buf indent level (k, v) =
  newline buf indent (level + 1);
  escape_to buf k;
  Buffer.add_char buf ':';
  if indent <> None then Buffer.add_char buf ' ';
  add_value buf indent (level + 1) v

and add_fields buf indent level = function
  | [] -> ()
  | field :: fields ->
      Buffer.add_char buf ',';
      add_field buf indent level field;
      add_fields buf indent level fields

let to_string ?indent v =
  let buf = Buffer.create 256 in
  add_value buf indent 0 v;
  Buffer.contents buf

let pp fmt v = Format.pp_print_string fmt (to_string v)

(* ------------------------------------------------------------------ *)
(* Parsing: plain recursive descent over the input string.             *)

exception Parse_error of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let utf8_of_code buf c =
    (* encode a Unicode scalar value (from \uXXXX) as UTF-8 *)
    if c < 0x80 then Buffer.add_char buf (Char.chr c)
    else if c < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (c lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (c lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char buf '"'; go ()
          | Some '\\' -> advance (); Buffer.add_char buf '\\'; go ()
          | Some '/' -> advance (); Buffer.add_char buf '/'; go ()
          | Some 'b' -> advance (); Buffer.add_char buf '\b'; go ()
          | Some 'f' -> advance (); Buffer.add_char buf '\012'; go ()
          | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
          | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
          | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              utf8_of_code buf code;
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    let is_float =
      String.exists (function '.' | 'e' | 'E' -> true | _ -> false) text
    in
    if is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "json parse error at byte %d: %s" at msg)

(* ------------------------------------------------------------------ *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let find path v =
  List.fold_left (fun acc k -> Option.bind acc (member k)) (Some v) path
