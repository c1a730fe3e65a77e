module Json = Crimson_obs.Json

type code =
  | Bad_request
  | Unknown_command
  | Unknown_tree
  | Unknown_collection
  | No_tree_selected
  | Timeout
  | Session_limit
  | Method_not_allowed
  | Disabled
  | Not_found
  | Internal

let code_string = function
  | Bad_request -> "bad_request"
  | Unknown_command -> "unknown_command"
  | Unknown_tree -> "unknown_tree"
  | Unknown_collection -> "unknown_collection"
  | No_tree_selected -> "no_tree_selected"
  | Timeout -> "timeout"
  | Session_limit -> "session_limit"
  | Method_not_allowed -> "method_not_allowed"
  | Disabled -> "disabled"
  | Not_found -> "not_found"
  | Internal -> "internal"

let http_status = function
  | Bad_request -> 400
  | Unknown_command -> 400
  | Unknown_tree -> 404
  | Unknown_collection -> 404
  | No_tree_selected -> 409
  | Timeout -> 504
  | Session_limit -> 503
  | Method_not_allowed -> 405
  | Disabled -> 403
  | Not_found -> 404
  | Internal -> 500

type t =
  | Reply of {
      fields : (string * Json.t) list;
      newick : string option;
      close : bool;
    }
  | Err of {
      code : code;
      message : string;
      close : bool;
    }

let ok ?newick ?(close = false) fields = Reply { fields; newick; close }
let err ?(close = false) code message = Err { code; message; close }

let error_json code message =
  Json.Obj
    [
      ("code", Json.Str (code_string code)); ("message", Json.Str message);
    ]

(* One LF-terminated JSON line, encoded straight into its buffer. *)
let json_line v =
  let buf = Buffer.create 256 in
  Json.to_buffer buf v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let ok_line fields = json_line (Json.Obj (("ok", Json.Bool true) :: fields))

let error_line code message =
  json_line (Json.Obj [ ("ok", Json.Bool false); ("error", error_json code message) ])

let closes = function Reply { close; _ } -> close | Err { close; _ } -> close
