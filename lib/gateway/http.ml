(* Minimal HTTP/1.x framing for the data-service gateway: an incremental
   request parser (heads, query strings, Content-Length bodies,
   pipelining, keep-alive) and a response renderer that always emits an
   explicit Content-Length and Connection header — no response may leave
   the framing ambiguous. Zero dependencies, no sockets: bytes in,
   requests out; the server loops own the I/O. *)

type request = {
  meth : string;  (* uppercased *)
  target : string;  (* raw request target *)
  path : string;  (* percent-decoded, query stripped *)
  query : (string * string) list;
  headers : (string * string) list;  (* names lowercased *)
  body : string;
  version : string;  (* "HTTP/1.0" | "HTTP/1.1" *)
}

let header r name =
  List.assoc_opt (String.lowercase_ascii name) r.headers

(* HTTP/1.1 defaults to persistent connections, 1.0 to one-shot; an
   explicit Connection header overrides either way. *)
let wants_keep_alive r =
  match header r "connection" with
  | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "close" -> false
      | "keep-alive" -> true
      | _ -> r.version = "HTTP/1.1")
  | None -> r.version = "HTTP/1.1"

(* --------------------------- Percent coding -------------------------- *)

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let percent_decode s =
  let n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '%' when !i + 2 < n && hex_val s.[!i + 1] >= 0 && hex_val s.[!i + 2] >= 0 ->
        Buffer.add_char buf
          (Char.chr ((hex_val s.[!i + 1] * 16) + hex_val s.[!i + 2]));
        i := !i + 2
    | '+' -> Buffer.add_char buf ' '
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let parse_query qs =
  if qs = "" then []
  else
    String.split_on_char '&' qs
    |> List.filter_map (fun kv ->
           if kv = "" then None
           else
             match String.index_opt kv '=' with
             | Some i ->
                 Some
                   ( percent_decode (String.sub kv 0 i),
                     percent_decode
                       (String.sub kv (i + 1) (String.length kv - i - 1)) )
             | None -> Some (percent_decode kv, ""))

let query_param r name = List.assoc_opt name r.query

(* ------------------------------ Parser ------------------------------ *)

(* [buf] starts at the first byte of the request being received. The
   decoder remembers how far it has searched that request for its head
   terminator and, once the head is parsed, the head itself, so every
   received byte is scanned once: a head trickled in one byte per read
   costs no more than the same head received whole. *)
type decoder = {
  max_head : int;
  max_body : int;
  buf : Buffer.t;
  mutable scanned : int;  (* no "\r\n\r\n" starts before this offset *)
  mutable head : (request * int * int) option;
      (* parsed head awaiting its body: request, body offset, length *)
  mutable broken : bool;
}

let default_max_head = 16 * 1024
let default_max_body = 256 * 1024

let create_decoder ?(max_head = default_max_head) ?(max_body = default_max_body)
    () =
  {
    max_head;
    max_body;
    buf = Buffer.create 512;
    scanned = 0;
    head = None;
    broken = false;
  }

let pending p = Buffer.length p.buf

let terminator = "\r\n\r\n"

(* Offset of the first "\r\n\r\n" in [buf] at or after [from], found
   in place; [Error k] when there is none and the last [k] bytes (0–3,
   none before [from]) begin one, so a terminator can start no earlier
   than [length - k]. *)
let find_terminator buf from =
  let n = Buffer.length buf in
  (* Do the [m] bytes at [i] match the terminator's first [m]? *)
  let rec prefix i m j =
    j >= m || (Buffer.nth buf (i + j) = terminator.[j] && prefix i m (j + 1))
  in
  let rec partial k =
    if k = 0 || (n - k >= from && prefix (n - k) k 0) then k else partial (k - 1)
  in
  let rec go i =
    if i + 4 > n then Error (partial 3)
    else if prefix i 4 0 then Ok i
    else go (i + 1)
  in
  go from

let parse_head head =
  match String.split_on_char '\n' head with
  | [] -> Error "empty request head"
  | req_line :: header_lines -> (
      let strip l =
        let l = if l <> "" && l.[String.length l - 1] = '\r' then String.sub l 0 (String.length l - 1) else l in
        l
      in
      let req_line = strip req_line in
      match
        String.split_on_char ' ' req_line |> List.filter (fun s -> s <> "")
      with
      | [ meth; target; version ]
        when version = "HTTP/1.0" || version = "HTTP/1.1" ->
          let headers =
            List.filter_map
              (fun l ->
                let l = strip l in
                if l = "" then None
                else
                  match String.index_opt l ':' with
                  | Some i ->
                      Some
                        ( String.lowercase_ascii (String.sub l 0 i),
                          String.trim
                            (String.sub l (i + 1) (String.length l - i - 1)) )
                  | None -> None)
              header_lines
          in
          let raw_path, raw_query =
            match String.index_opt target '?' with
            | Some i ->
                ( String.sub target 0 i,
                  String.sub target (i + 1) (String.length target - i - 1) )
            | None -> (target, "")
          in
          Ok
            {
              meth = String.uppercase_ascii meth;
              target;
              path = percent_decode raw_path;
              query = parse_query raw_query;
              headers;
              body = "";
              version;
            }
      | _ -> Error (Printf.sprintf "malformed request line %S" req_line))

(* Feed raw bytes; returns every request completed so far. An [Error]
   poisons the parser — HTTP has no way to resynchronise a broken frame,
   so the connection must close after the error response. *)
let feed p data =
  if p.broken then Error "input discarded: a previous request was malformed"
  else begin
    Buffer.add_string p.buf data;
    let fail msg =
      p.broken <- true;
      Buffer.clear p.buf;
      p.head <- None;
      Error msg
    in
    let head_too_large () =
      fail (Printf.sprintf "request head exceeds the %d-byte cap" p.max_head)
    in
    (* Keep the bytes from [start] on: the requests before it are
       complete, so every kept byte arrived in this call. *)
    let finish start acc =
      if start > 0 then begin
        let rest = Buffer.sub p.buf start (Buffer.length p.buf - start) in
        Buffer.clear p.buf;
        Buffer.add_string p.buf rest
      end;
      Ok (List.rev acc)
    in
    (* [start]: offset of the request being decoded; [p.scanned] and
       [p.head] are relative to it. *)
    let rec drain start acc =
      match p.head with
      | Some (req, body_at, len) ->
          if Buffer.length p.buf - (start + body_at) < len then finish start acc
          else begin
            let body = Buffer.sub p.buf (start + body_at) len in
            p.head <- None;
            p.scanned <- 0;
            drain (start + body_at + len) ({ req with body } :: acc)
          end
      | None -> (
          match find_terminator p.buf (start + p.scanned) with
          | Error partial ->
              (* A terminator can start no earlier than [earliest]: fail
                 only once the head is sure to exceed the cap, so the
                 verdict does not depend on how the bytes were split. *)
              let earliest = Buffer.length p.buf - partial - start in
              if earliest > p.max_head then head_too_large ()
              else begin
                p.scanned <- earliest;
                finish start acc
              end
          | Ok at -> (
              let head_end = at - start in
              if head_end > p.max_head then head_too_large ()
              else
                match parse_head (Buffer.sub p.buf start head_end) with
                | Error msg -> fail msg
                | Ok req -> (
                    let content_length =
                      match header req "content-length" with
                      | None -> Ok 0
                      | Some v -> (
                          match int_of_string_opt (String.trim v) with
                          | Some n when n >= 0 -> Ok n
                          | Some _ | None -> Error "malformed Content-Length")
                    in
                    match content_length with
                    | Error msg -> fail msg
                    | Ok len when len > p.max_body ->
                        fail
                          (Printf.sprintf "request body exceeds the %d-byte cap"
                             p.max_body)
                    | Ok len ->
                        p.head <- Some (req, head_end + 4, len);
                        drain start acc)))
    in
    drain 0 []
  end

(* ----------------------------- Rendering ----------------------------- *)

let reason = function
  | 200 -> "OK"
  | 304 -> "Not Modified"
  | 400 -> "Bad Request"
  | 403 -> "Forbidden"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Unknown"

(* Every response is explicitly framed: Content-Length always present
   (even for 304/empty bodies), Connection always stated. *)
let render ?(status = 200) ?(content_type = "application/json")
    ?(extra = []) ?(keep_alive = false) body =
  let buf = Buffer.create (String.length body + 160) in
  let header name value =
    Buffer.add_string buf name;
    Buffer.add_string buf ": ";
    Buffer.add_string buf value;
    Buffer.add_string buf "\r\n"
  in
  Buffer.add_string buf "HTTP/1.1 ";
  Buffer.add_string buf (string_of_int status);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (reason status);
  Buffer.add_string buf "\r\n";
  header "Content-Type" content_type;
  header "Content-Length" (string_of_int (String.length body));
  List.iter (fun (k, v) -> header k v) extra;
  header "Connection" (if keep_alive then "keep-alive" else "close");
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf body;
  Buffer.contents buf
