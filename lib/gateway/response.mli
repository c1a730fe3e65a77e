(** Transport-agnostic responses with structured error codes.

    A verb handler answers with an ordered field list (rendered as the
    line protocol's one-line JSON object, or as an HTTP JSON body) plus
    an optional Newick alternative for content negotiation — or a typed
    error, which every front end renders the same way:
    [{"ok":false,"error":{"code":…,"message":…}}]. The code also picks
    the HTTP status. *)

module Json = Crimson_obs.Json

type code =
  | Bad_request  (** Malformed arguments, unparsable query text. *)
  | Unknown_command  (** Verb or route not recognised. *)
  | Unknown_tree
  | Unknown_collection
  | No_tree_selected  (** Session verb needing a USE first. *)
  | Timeout  (** Request deadline expired. *)
  | Session_limit  (** Admission control refused the connection. *)
  | Method_not_allowed  (** Known HTTP route, wrong method. *)
  | Disabled  (** Debug verb not unlocked by the server config. *)
  | Not_found  (** No such HTTP route. *)
  | Internal

val code_string : code -> string
(** Stable snake_case wire spelling. *)

val http_status : code -> int

type t =
  | Reply of {
      fields : (string * Json.t) list;
          (** Rendered in order, after the leading ["ok": true]. *)
      newick : string option;
          (** Plain-text alternative served when the client negotiated
              Newick; [None] falls back to the JSON rendering. *)
      close : bool;  (** Close the connection after replying (QUIT). *)
    }
  | Err of {
      code : code;
      message : string;
      close : bool;
    }

val ok : ?newick:string -> ?close:bool -> (string * Json.t) list -> t
val err : ?close:bool -> code -> string -> t

val error_json : code -> string -> Json.t
(** The [{"code":…,"message":…}] object both front ends embed. *)

val ok_line : (string * Json.t) list -> string
(** [{"ok":true, <fields>}] plus the LF terminator: a wire reply line
    and an HTTP JSON body alike. *)

val error_line : code -> string -> string
(** [{"ok":false,"error":{"code":<code>,"message":<msg>}}] plus the LF
    terminator. *)

val closes : t -> bool
