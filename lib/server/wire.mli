(** The Crimson wire protocol: addresses, framing, requests, replies.

    The query service speaks a line-oriented protocol: each request is
    one LF-terminated line (a trailing CR is stripped, so both netcat
    and CRLF clients work), and each reply is exactly one line of JSON
    rendered by {!Crimson_obs.Json} — [{"ok":true, ...}] on success,
    [{"ok":false,"error":{"code":…,"message":…}}] on failure (the same
    structured error object the HTTP gateway serves). Request grammar:

    {v
    HELLO                 server banner, session id, stored tree names
    USE <tree>            select the session's tree
    SEED <n>              reseed the session RNG (sampling determinism)
    QUERY <text>          run a Query_lang expression on the session tree
    EXPLAIN <text>        describe the query's plan without executing it
    PROFILE <text>        run the query with a per-stage cost breakdown
    CONSENSUS <coll> [t]  collection consensus (threshold t, default 0.5)
    SUPPORT <coll>        per-bipartition support counts of a collection
    RFMATRIX <coll>       pairwise Robinson-Foulds matrix of a collection
    COLLSTATS <coll>      collection dictionary / storage statistics
    TOP                   per-session cumulative accounting, cost hogs first
    STATS                 telemetry registry snapshot as JSON
    SLOWLOG [n]           most recent slow-query trace records (all by default)
    METRICS               Prometheus text exposition, in the "text" field
    QUIT                  close the session
    v}

    Verbs are case-insensitive; everything after the first space is the
    payload, verbatim. This module is pure (no sockets): the server and
    the client share it, and tests drive it directly. *)

(** {1 Addresses} *)

type addr =
  | Tcp of string * int  (** host, port *)
  | Unix_path of string  (** filesystem socket path *)

val parse_addr : string -> (addr, string) result
(** Accepts [unix:PATH], [HOST:PORT], [:PORT] (localhost) and bare
    [PORT]. *)

val addr_to_string : addr -> string
(** Inverse of {!parse_addr}, for banners and error messages. *)

(** {1 Requests}

    Parsing targets the transport-agnostic {!Crimson_gateway.Request.t},
    the same type the HTTP router produces — one verb implementation
    serves both front ends. *)

val parse_command :
  string ->
  (Crimson_gateway.Request.t, Crimson_gateway.Response.code * string) result
(** Parse one request line (already stripped of its terminator). Never
    raises; the error pairs a structured code ([Unknown_command] for an
    unrecognised verb, [Bad_request] for a malformed payload) with a
    human-readable protocol diagnostic. *)

(** {1 Framing} *)

module Line_buffer : sig
  type t

  val create : max_line:int -> t
  (** [max_line] caps one request line in bytes — the server's defence
      against unbounded buffering by a client that never sends LF. *)

  val feed : t -> string -> (string list, string) result
  (** Append received bytes; returns the newly completed lines, oldest
      first, with LF consumed and one trailing CR stripped. [Error msg]
      once any line (complete or still accumulating) exceeds [max_line];
      the buffer is then poisoned and every later [feed] fails too — the
      session must be closed. *)

  val pending : t -> int
  (** Bytes buffered towards the next (incomplete) line. *)
end

(** Reply lines are {!Crimson_gateway.Response.ok_line} and
    {!Crimson_gateway.Response.error_line}, the bytes the HTTP gateway
    serves as JSON bodies. *)
