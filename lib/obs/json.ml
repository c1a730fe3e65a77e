type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of { pos : int; message : string }

let fail pos fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { pos; message })) fmt

(* ----------------------------- Rendering ---------------------------- *)

(* The encoder writes straight into the caller's [Buffer] and keeps no
   state of its own, so worker domains may encode concurrently. Numbers
   must keep the bytes "%.0f" (integers) and "%.17g" (other floats)
   print: wire replies, ETag-covered bodies and the wire golden file
   hold them. *)

let hex_digit n = "0123456789abcdef".[n]

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let escape_to buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  (* Copy runs of plain bytes whole; only escapable bytes are handled
     one at a time. *)
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      if i > !run then Buffer.add_substring buf s !run (i - !run);
      run := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf (hex_digit (Char.code c lsr 4));
          Buffer.add_char buf (hex_digit (Char.code c land 0xf))
    end
  done;
  if n > !run then Buffer.add_substring buf s !run (n - !run);
  Buffer.add_char buf '"'

(* Decimal digits of a non-negative int, most significant first. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* The primitive [Printf.sprintf "%.17g"] itself calls for a finite
   float, minus the format interpretation around it. *)
external format_float : string -> float -> string = "caml_format_float"

let number_to buf x =
  if Float.is_nan x || Float.abs x = Float.infinity then Buffer.add_string buf "null"
  else if Float.is_integer x && Float.abs x <= 1e15 then begin
    (* Exact in an OCaml int (|x| <= 1e15 < 2^62); "%.0f" keeps the
       sign of -0.0, so this does too. *)
    if Float.sign_bit x then Buffer.add_char buf '-';
    add_digits buf (Float.to_int (Float.abs x))
  end
  else Buffer.add_string buf (format_float "%.17g" x)

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> number_to buf x
  | Str s -> escape_to buf s
  | List [] -> Buffer.add_string buf "[]"
  | List (item :: items) ->
      Buffer.add_char buf '[';
      to_buffer buf item;
      List.iter
        (fun item ->
          Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (field :: fields) ->
      let add_field (k, item) =
        escape_to buf k;
        Buffer.add_char buf ':';
        to_buffer buf item
      in
      Buffer.add_char buf '{';
      add_field field;
      List.iter
        (fun field ->
          Buffer.add_char buf ',';
          add_field field)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* ------------------------------ Parsing ----------------------------- *)

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail c.pos "expected %C, found %C" ch x
  | None -> fail c.pos "expected %C, found end of input" ch

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c.pos "invalid literal (expected %s)" word

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.src then fail c.pos "unterminated string"
    else
      match c.src.[c.pos] with
      | '"' -> c.pos <- c.pos + 1
      | '\\' ->
          if c.pos + 1 >= String.length c.src then fail c.pos "unterminated escape";
          (match c.src.[c.pos + 1] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if c.pos + 5 >= String.length c.src then fail c.pos "truncated \\u escape";
              let hex = String.sub c.src (c.pos + 2) 4 in
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail c.pos "bad \\u escape %S" hex
              in
              (* Only the control-character range we emit; others pass as '?'. *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else Buffer.add_char buf '?';
              c.pos <- c.pos + 4
          | e -> fail c.pos "unknown escape \\%C" e);
          c.pos <- c.pos + 2;
          go ()
      | ch ->
          Buffer.add_char buf ch;
          c.pos <- c.pos + 1;
          go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < String.length c.src && is_num_char c.src.[c.pos] do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.src start (c.pos - start) in
  match float_of_string_opt s with
  | Some x -> x
  | None -> fail start "invalid number %S" s

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> Str (parse_string c)
  | Some '[' ->
      expect c '[';
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else begin
        let items = ref [ parse_value c ] in
        skip_ws c;
        while peek c = Some ',' do
          c.pos <- c.pos + 1;
          items := parse_value c :: !items;
          skip_ws c
        done;
        expect c ']';
        List (List.rev !items)
      end
  | Some '{' ->
      expect c '{';
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          (k, v)
        in
        let fields = ref [ field () ] in
        while peek c = Some ',' do
          c.pos <- c.pos + 1;
          fields := field () :: !fields
        done;
        expect c '}';
        Obj (List.rev !fields)
      end
  | Some ('-' | '0' .. '9') -> Num (parse_number c)
  | Some ch -> fail c.pos "unexpected character %C" ch

let parse s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail c.pos "trailing garbage";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Num _ | Str _ | List _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Num x, Num y -> x = y || (Float.is_nan x && Float.is_nan y)
  | Str x, Str y -> String.equal x y
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | Obj x, Obj y ->
      let sort = List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) in
      let x = sort x and y = sort y in
      List.length x = List.length y
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
           x y
  | (Null | Bool _ | Num _ | Str _ | List _ | Obj _), _ -> false
