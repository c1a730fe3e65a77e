module Metrics = Crimson_obs.Metrics

let m_requests = Metrics.counter "gateway.requests"
let m_not_modified = Metrics.counter "gateway.not_modified"
let m_errors = Metrics.counter "gateway.errors"

type handlers = {
  dispatch : Request.t -> Request.format -> Response.t;
  validator : Request.t -> string option;
}

(* One HTTP exchange: route, try the conditional-GET fast path, else
   dispatch through the shared verb handlers and render per the
   negotiated format. Returns the rendered response and whether the
   connection must close afterwards. *)
let respond handlers (r : Http.request) =
  Metrics.Counter.incr m_requests;
  let keep_alive = Http.wants_keep_alive r in
  match Router.route r with
  | Error (code, message) ->
      Metrics.Counter.incr m_errors;
      ( Http.render
          ~status:(Response.http_status code)
          ~keep_alive (Response.error_line code message),
        not keep_alive )
  | Ok (req, fmt) -> (
      let etag =
        match handlers.validator req with
        | None -> None
        | Some validator ->
            Some (Etag.make ~validator ~resource:(Etag.canonical r ~format:fmt))
      in
      let if_none_match = Http.header r "if-none-match" in
      match (etag, if_none_match) with
      | Some etag, Some header when Etag.matches ~header ~etag ->
          Metrics.Counter.incr m_not_modified;
          ( Http.render ~status:304 ~extra:[ ("ETag", etag) ] ~keep_alive "",
            not keep_alive )
      | _ -> (
          let extra =
            match etag with Some e -> [ ("ETag", e) ] | None -> []
          in
          match handlers.dispatch req fmt with
          | Response.Reply { fields; newick; close } -> (
              let keep_alive = keep_alive && not close in
              match (fmt, newick) with
              | Request.Newick, Some tree ->
                  ( Http.render ~content_type:"text/x-newick; charset=utf-8"
                      ~extra ~keep_alive (tree ^ "\n"),
                    not keep_alive )
              | (Request.Json | Request.Newick), _ ->
                  ( Http.render ~extra ~keep_alive (Response.ok_line fields),
                    not keep_alive ))
          | Response.Err { code; message; close } ->
              Metrics.Counter.incr m_errors;
              let keep_alive = keep_alive && not close in
              ( Http.render
                  ~status:(Response.http_status code)
                  ~keep_alive (Response.error_line code message),
                not keep_alive )))
