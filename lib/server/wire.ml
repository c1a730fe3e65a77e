(* ----------------------------- Addresses --------------------------- *)

type addr =
  | Tcp of string * int
  | Unix_path of string

let unix_prefix = "unix:"

let parse_addr s =
  let s = String.trim s in
  let starts_with prefix =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  if s = "" then Error "empty address"
  else if starts_with unix_prefix then begin
    let path = String.sub s (String.length unix_prefix)
        (String.length s - String.length unix_prefix) in
    if path = "" then Error "unix: address needs a socket path"
    else Ok (Unix_path path)
  end
  else
    match String.rindex_opt s ':' with
    | None -> (
        match int_of_string_opt s with
        | Some port when port >= 0 && port <= 65535 -> Ok (Tcp ("127.0.0.1", port))
        | Some port -> Error (Printf.sprintf "port %d out of range" port)
        | None ->
            Error
              (Printf.sprintf
                 "cannot parse address %S (expected HOST:PORT, :PORT, PORT or unix:PATH)"
                 s))
    | Some i -> (
        let host = String.sub s 0 i in
        let host = if host = "" then "127.0.0.1" else host in
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some port when port >= 0 && port <= 65535 -> Ok (Tcp (host, port))
        | Some port -> Error (Printf.sprintf "port %d out of range" port)
        | None -> Error (Printf.sprintf "cannot parse port in address %S" s))

let addr_to_string = function
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port
  | Unix_path path -> unix_prefix ^ path

(* ----------------------------- Requests ---------------------------- *)

module Request = Crimson_gateway.Request
module Response = Crimson_gateway.Response

let split_verb line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let parse_command line : (Request.t, Response.code * string) result =
  let bad msg = Error (Response.Bad_request, msg) in
  let line = String.trim line in
  if line = "" then bad "empty command"
  else
    let verb, payload = split_verb line in
    match (String.uppercase_ascii verb, payload) with
    | "HELLO", "" -> Ok Request.Hello
    | "HELLO", _ -> bad "HELLO takes no argument"
    | "USE", "" -> bad "USE needs a tree name"
    | "USE", name -> Ok (Request.Use name)
    | "SEED", p -> (
        match int_of_string_opt p with
        | Some n -> Ok (Request.Seed n)
        | None -> bad "SEED needs an integer")
    | "QUERY", "" -> bad "QUERY needs a query text"
    | "QUERY", text -> Ok (Request.Query text)
    | "EXPLAIN", "" -> bad "EXPLAIN needs a query text"
    | "EXPLAIN", text -> Ok (Request.Explain text)
    | "PROFILE", "" -> bad "PROFILE needs a query text"
    | "PROFILE", text -> Ok (Request.Profile text)
    (* Collection verbs: the payload is "<collection> [threshold]" —
       the worker rewrites it into the canonical call syntax. *)
    | "CONSENSUS", "" -> bad "CONSENSUS needs a collection name"
    | "CONSENSUS", p -> Ok (Request.Consensus p)
    | "SUPPORT", "" -> bad "SUPPORT needs a collection name"
    | "SUPPORT", p -> Ok (Request.Support p)
    | "RFMATRIX", "" -> bad "RFMATRIX needs a collection name"
    | "RFMATRIX", p -> Ok (Request.Rfmatrix p)
    | "COLLSTATS", "" -> bad "COLLSTATS needs a collection name"
    | "COLLSTATS", p -> Ok (Request.Collstats p)
    | "TOP", "" -> Ok Request.Top
    | "TOP", _ -> bad "TOP takes no argument"
    | "STATS", "" -> Ok Request.Stats
    | "STATS", _ -> bad "STATS takes no argument"
    | "SLOWLOG", "" -> Ok (Request.Slowlog None)
    | "SLOWLOG", p -> (
        match int_of_string_opt p with
        | Some n when n >= 0 -> Ok (Request.Slowlog (Some n))
        | Some _ | None -> bad "SLOWLOG takes an optional non-negative count")
    | "METRICS", "" -> Ok Request.Metrics
    | "METRICS", _ -> bad "METRICS takes no argument"
    (* Debug verb (undocumented in the unknown-command hint): freeze the
       serving worker for N ms. Workers reject it unless the server was
       configured with debug verbs on — it exists to fault-inject stalls
       for watchdog tests. *)
    | "SLEEP", p -> (
        match float_of_string_opt p with
        | Some ms when ms >= 0.0 -> Ok (Request.Sleep ms)
        | Some _ | None -> bad "SLEEP takes a non-negative duration in ms")
    | "QUIT", "" -> Ok Request.Quit
    | "QUIT", _ -> bad "QUIT takes no argument"
    | verb, _ ->
        Error
          ( Response.Unknown_command,
            Printf.sprintf
              "unknown command %S (expected HELLO, USE, SEED, QUERY, EXPLAIN, PROFILE, \
               CONSENSUS, SUPPORT, RFMATRIX, COLLSTATS, TOP, STATS, SLOWLOG, METRICS \
               or QUIT)"
              verb )

(* ------------------------------ Framing ---------------------------- *)

module Line_buffer = struct
  (* [buf] holds only the line still being received, never an LF. Each
     fed byte is examined once and copied at most twice (into [buf],
     then into its line), so a line trickled in one byte per read costs
     no more than the same line received whole. *)
  type t = {
    max_line : int;
    buf : Buffer.t;
    mutable poisoned : bool;
  }

  let create ~max_line = { max_line; buf = Buffer.create 256; poisoned = false }
  let pending t = Buffer.length t.buf

  let too_long t =
    t.poisoned <- true;
    Buffer.clear t.buf;
    Error (Printf.sprintf "request line exceeds the %d-byte cap" t.max_line)

  let strip_cr line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

  let feed t data =
    if t.poisoned then Error "input discarded: a previous line overflowed"
    else begin
      let n = String.length data in
      (* [start]: first byte of [data] not yet part of a returned line. *)
      let rec go start lines =
        let fits upto = Buffer.length t.buf + (upto - start) <= t.max_line in
        match String.index_from_opt data start '\n' with
        | None ->
            if not (fits n) then too_long t
            else begin
              Buffer.add_substring t.buf data start (n - start);
              Ok (List.rev lines)
            end
        | Some i when not (fits i) -> too_long t
        | Some i ->
            let line =
              if Buffer.length t.buf = 0 then String.sub data start (i - start)
              else begin
                Buffer.add_substring t.buf data start (i - start);
                let line = Buffer.contents t.buf in
                Buffer.clear t.buf;
                line
              end
            in
            go (i + 1) (strip_cr line :: lines)
      in
      go 0 []
    end
end
