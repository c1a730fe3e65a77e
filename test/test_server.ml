(* Tests for the Crimson query service: wire framing and command
   parsing, the protocol engine's session state and admission control,
   repository-open failure modes, and an end-to-end smoke test that
   forks a real server on a Unix socket, drives it from concurrent
   client processes, and checks answers against direct library calls. *)

module Tree = Crimson_tree.Tree
module Repo = Crimson_core.Repo
module Stored_tree = Crimson_core.Stored_tree
module Loader = Crimson_core.Loader
module Query_lang = Crimson_core.Query_lang
module Models = Crimson_sim.Models
module Prng = Crimson_util.Prng
module Json = Crimson_obs.Json
module Metrics = Crimson_obs.Metrics
module Wire = Crimson_server.Wire
module Engine = Crimson_server.Engine
module Worker_core = Crimson_server.Worker_core
module Server = Crimson_server.Server
module Client = Crimson_server.Client
module Collection = Crimson_collection.Collection
module Coll_lang = Crimson_collection.Coll_lang

let check = Alcotest.check

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

(* ------------------------------ Wire -------------------------------- *)

let test_parse_addr () =
  let ok s = match Wire.parse_addr s with Ok a -> a | Error e -> Alcotest.fail e in
  (match ok "unix:/tmp/x.sock" with
  | Wire.Unix_path p -> check Alcotest.string "unix path" "/tmp/x.sock" p
  | _ -> Alcotest.fail "expected unix path");
  (match ok "localhost:7000" with
  | Wire.Tcp (h, p) ->
      check Alcotest.string "host" "localhost" h;
      check Alcotest.int "port" 7000 p
  | _ -> Alcotest.fail "expected tcp");
  (match ok ":7001" with
  | Wire.Tcp (h, p) ->
      check Alcotest.string "default host" "127.0.0.1" h;
      check Alcotest.int "port" 7001 p
  | _ -> Alcotest.fail "expected tcp");
  (match ok "7002" with
  | Wire.Tcp (_, p) -> check Alcotest.int "bare port" 7002 p
  | _ -> Alcotest.fail "expected tcp");
  List.iter
    (fun bad ->
      match Wire.parse_addr bad with
      | Ok _ -> Alcotest.failf "address %S should not parse" bad
      | Error _ -> ())
    [ ""; "unix:"; "host:99999"; "host:port"; "not an address" ];
  (* round trip *)
  check Alcotest.string "to_string" "unix:/a" (Wire.addr_to_string (ok "unix:/a"));
  check Alcotest.string "to_string tcp" "h:1" (Wire.addr_to_string (ok "h:1"))

let test_parse_command () =
  let module Request = Crimson_gateway.Request in
  let module Response = Crimson_gateway.Response in
  let ok line =
    match Wire.parse_command line with
    | Ok c -> c
    | Error (_, msg) -> Alcotest.fail msg
  in
  check Alcotest.bool "hello" true (ok "HELLO" = Request.Hello);
  check Alcotest.bool "hello lowercase" true (ok "hello" = Request.Hello);
  check Alcotest.bool "use" true (ok "USE gold" = Request.Use "gold");
  check Alcotest.bool "use spaces" true (ok "  use   my tree  " = Request.Use "my tree");
  check Alcotest.bool "seed" true (ok "SEED 42" = Request.Seed 42);
  check Alcotest.bool "query" true (ok "QUERY lca(A, B)" = Request.Query "lca(A, B)");
  check Alcotest.bool "stats" true (ok "STATS" = Request.Stats);
  check Alcotest.bool "slowlog" true (ok "SLOWLOG" = Request.Slowlog None);
  check Alcotest.bool "slowlog n" true (ok "slowlog 10" = Request.Slowlog (Some 10));
  check Alcotest.bool "metrics" true (ok "METRICS" = Request.Metrics);
  check Alcotest.bool "quit" true (ok "quit" = Request.Quit);
  check Alcotest.bool "sleep" true (ok "SLEEP 250" = Request.Sleep 250.0);
  check Alcotest.bool "sleep zero" true (ok "sleep 0" = Request.Sleep 0.0);
  (match Wire.parse_command "SLEEP -5" with
  | Ok _ -> Alcotest.fail "negative SLEEP should not parse"
  | Error (code, _) ->
      check Alcotest.string "sleep code" "bad_request"
        (Response.code_string code));
  (match Wire.parse_command "FROBNICATE 1" with
  | Ok _ -> Alcotest.fail "unknown verb should not parse"
  | Error (code, _) ->
      check Alcotest.string "unknown verb code" "unknown_command"
        (Response.code_string code));
  List.iter
    (fun bad ->
      match Wire.parse_command bad with
      | Ok _ -> Alcotest.failf "command %S should not parse" bad
      | Error _ -> ())
    [
      ""; "   "; "USE"; "SEED"; "SEED x"; "QUERY"; "HELLO there"; "FROBNICATE 1";
      "SLOWLOG x"; "SLOWLOG -1"; "METRICS now";
    ]

let test_line_buffer () =
  let lb = Wire.Line_buffer.create ~max_line:32 in
  let feed s = match Wire.Line_buffer.feed lb s with
    | Ok lines -> lines
    | Error e -> Alcotest.failf "unexpected framing error: %s" e
  in
  check (Alcotest.list Alcotest.string) "partial" [] (feed "HEL");
  check (Alcotest.list Alcotest.string) "completes" [ "HELLO" ] (feed "LO\n");
  check (Alcotest.list Alcotest.string) "two at once + CR" [ "A"; "B" ] (feed "A\r\nB\nrest");
  check Alcotest.int "pending" 4 (Wire.Line_buffer.pending lb);
  check (Alcotest.list Alcotest.string) "rest completes" [ "rest" ] (feed "\n");
  (* Overflow: a line longer than max_line poisons the buffer. *)
  (match Wire.Line_buffer.feed lb (String.make 40 'x') with
  | Error e -> check Alcotest.bool "overflow names the cap" true (contains "32" e)
  | Ok _ -> Alcotest.fail "expected overflow");
  (match Wire.Line_buffer.feed lb "short\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "poisoned buffer must stay in error")

(* Framing must not depend on how the bytes were split into reads:
   pipelined lines, CRLF endings (the CR possibly in another read than
   its LF), lines at and beyond the cap and an unfinished tail. *)
let test_line_buffer_chunking () =
  let max_line = 16 in
  let open QCheck.Gen in
  let text n = string_size ~gen:(oneofl [ 'a'; ' '; 'Q'; '\r'; '\000' ]) n in
  let line =
    frequency
      [
        (4, map (fun s -> s ^ "\n") (text (int_bound 8)));
        (2, map (fun s -> s ^ "\r\n") (text (int_bound 8)));
        (2, map (fun n -> String.make n 'x' ^ "\n") (int_range (max_line - 2) (max_line + 2)));
        (1, map (fun n -> String.make n 'y' ^ "\r\n") (int_range (max_line - 2) (max_line + 2)));
      ]
  in
  let tail = frequency [ (2, return ""); (1, text (int_bound (max_line + 3))) ] in
  let input = map2 (fun ls t -> String.concat "" ls ^ t) (list_size (int_range 1 6) line) tail in
  let gen = pair input (list_size (int_bound 8) (int_bound 200)) in
  let cell =
    QCheck.Test.make ~count:1000 ~name:"line framing whole = framing split"
      (QCheck.make ~print:(fun (s, cuts) ->
           Printf.sprintf "%S cut at [%s]" s
             (String.concat ";" (List.map string_of_int cuts)))
         gen)
      (fun (s, cuts) ->
        Helpers.chunking_agrees
          ~create:(fun () -> Wire.Line_buffer.create ~max_line)
          ~feed:Wire.Line_buffer.feed ~equal:String.equal s cuts)
  in
  QCheck_alcotest.to_alcotest cell |> fun (_, _, f) -> f ()

(* A line at the server's default cap (64 KiB) trickled in one byte per
   read stays linear: nothing already buffered is copied or rescanned. *)
let test_line_buffer_trickled () =
  let max_line = Worker_core.default_config.Worker_core.max_line in
  let lb = Wire.Line_buffer.create ~max_line in
  let got = ref [] in
  let ms =
    Helpers.bytewise_ms (String.make max_line 'x' ^ "\n") ~feed:(fun b ->
        match Wire.Line_buffer.feed lb b with
        | Ok lines -> got := !got @ lines
        | Error e -> Alcotest.failf "max-size line refused: %s" e)
  in
  check (Alcotest.list Alcotest.int) "one full line" [ max_line ]
    (List.map String.length !got);
  if ms > 200.0 then Alcotest.failf "64 KiB line fed bytewise took %.0f ms" ms

(* ------------------------------ Engine ------------------------------ *)

let load_test_repo () =
  let repo = Repo.open_mem () in
  let tree = Models.yule ~rng:(Prng.create 7) ~leaves:40 () in
  let stored = (Loader.load_tree ~f:4 repo ~name:"gold" tree).Loader.tree in
  (repo, stored)

let body (r : Engine.reply) = r.Engine.body

let reply_json r = Json.parse (String.trim (body r))

let field name r =
  match Json.member name (reply_json r) with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks %S: %s" name (body r)

let is_ok r = match Json.member "ok" (reply_json r) with
  | Some (Json.Bool b) -> b
  | _ -> false

let expect_ok r =
  if not (is_ok r) then Alcotest.failf "expected ok reply, got %s" (body r);
  r

let expect_err r =
  if is_ok r then Alcotest.failf "expected error reply, got %s" (body r);
  (* Structured errors: {"code": <snake_case>, "message": <text>}. *)
  (match field "error" r with
  | Json.Obj fields ->
      (match List.assoc_opt "code" fields with
      | Some (Json.Str _) -> ()
      | _ -> Alcotest.failf "error lacks string code: %s" (body r));
      (match List.assoc_opt "message" fields with
      | Some (Json.Str _) -> ()
      | _ -> Alcotest.failf "error lacks string message: %s" (body r))
  | _ -> Alcotest.failf "error not an object: %s" (body r));
  r

let test_engine_sessions () =
  let repo, stored = load_test_repo () in
  let config = { Engine.default_config with Engine.max_sessions = 2 } in
  let t = Engine.create ~config repo in
  let s1 = match Engine.open_session t with Ok s -> s | Error _ -> Alcotest.fail "s1" in
  let s2 = match Engine.open_session t with Ok s -> s | Error _ -> Alcotest.fail "s2" in
  check Alcotest.int "two active" 2 (Engine.active_sessions t);
  (* Admission control: the third session is rejected with a closing
     protocol error, and the engine stays at two. *)
  (match Engine.open_session t with
  | Ok _ -> Alcotest.fail "third session should be rejected"
  | Error r ->
      check Alcotest.bool "rejection closes" true r.Engine.close;
      ignore (expect_err r);
      check Alcotest.bool "rejection names the limit" true (contains "limit" (body r)));
  (* HELLO reports the session id and stored trees. *)
  let r = expect_ok (Engine.handle_line t s1 "HELLO") in
  check Alcotest.bool "hello lists gold" true (contains "gold" (body r));
  (match field "session" r with
  | Json.Num v -> check Alcotest.int "session id" (Engine.session_id s1) (int_of_float v)
  | _ -> Alcotest.fail "session id not a number");
  (* QUERY before USE is a protocol error that keeps the session. *)
  let r = expect_err (Engine.handle_line t s1 "QUERY info()") in
  check Alcotest.bool "names USE" true (contains "USE" (body r));
  check Alcotest.bool "keeps session" false r.Engine.close;
  (* USE unknown tree errors; USE gold works and reports shape. *)
  ignore (expect_err (Engine.handle_line t s1 "USE nope"));
  let r = expect_ok (Engine.handle_line t s1 "USE gold") in
  (match field "leaves" r with
  | Json.Num v ->
      check Alcotest.int "leaf count" (Stored_tree.leaf_count stored) (int_of_float v)
  | _ -> Alcotest.fail "leaves not a number");
  (* Queries match direct library calls, including seeded sampling. *)
  ignore (expect_ok (Engine.handle_line t s1 "SEED 5"));
  let direct q =
    match Query_lang.run ~rng:(Prng.create 5) ~record:false repo stored q with
    | Ok o -> o.Query_lang.result
    | Error e -> Alcotest.failf "direct query failed: %s" e
  in
  let served q =
    match field "result" (expect_ok (Engine.handle_line t s1 ("QUERY " ^ q))) with
    | Json.Str s -> s
    | _ -> Alcotest.fail "result not a string"
  in
  check Alcotest.string "sample(3) deterministic" (direct "sample(3)") (served "sample(3)");
  check Alcotest.string "lca" (direct "lca(T0, T7)") (served "lca(T0, T7)");
  (* Sessions are independent: s2 still has no tree. *)
  ignore (expect_err (Engine.handle_line t s2 "QUERY info()"));
  (* Malformed input is an error reply, never a crash, session kept. *)
  let r = expect_err (Engine.handle_line t s1 "QUERY lca(((((") in
  check Alcotest.bool "malformed keeps session" false r.Engine.close;
  (* A non-finite sample time is refused before any node is read. *)
  let r = expect_err (Engine.handle_line t s1 "QUERY sample(2, inf)") in
  check Alcotest.bool "names finiteness" true (contains "finite" (body r));
  check Alcotest.bool "non-finite keeps session" false r.Engine.close;
  ignore (expect_err (Engine.handle_line t s1 "BOGUS"));
  ignore (expect_err (Engine.handle_line t s1 ""));
  (* STATS carries the registry, including server counters. *)
  let r = expect_ok (Engine.handle_line t s2 "STATS") in
  check Alcotest.bool "stats has registry" true (contains "server.requests" (body r));
  (* QUIT closes; close_session is idempotent and decrements. *)
  let r = expect_ok (Engine.handle_line t s1 "QUIT") in
  check Alcotest.bool "quit closes" true r.Engine.close;
  Engine.close_session t s1;
  Engine.close_session t s1;
  check Alcotest.int "one active" 1 (Engine.active_sessions t);
  (* A slot freed by QUIT admits a new session. *)
  (match Engine.open_session t with
  | Ok s3 -> Engine.close_session t s3
  | Error _ -> Alcotest.fail "freed slot should admit");
  Engine.close_session t s2;
  check Alcotest.int "none active" 0 (Engine.active_sessions t)

let test_engine_metrics () =
  Metrics.reset_all ();
  let repo, _stored = load_test_repo () in
  let t = Engine.create repo in
  let s = match Engine.open_session t with Ok s -> s | Error _ -> Alcotest.fail "open" in
  ignore (Engine.handle_line t s "HELLO");
  ignore (Engine.handle_line t s "USE gold");
  ignore (Engine.handle_line t s "QUERY lca(T0, T1)");
  ignore (Engine.handle_line t s "NOT A COMMAND");
  Engine.close_session t s;
  check Alcotest.int "requests counted" 4 (Metrics.counter_value "server.requests");
  check Alcotest.int "errors counted" 1 (Metrics.counter_value "server.errors");
  check Alcotest.int "accepted" 1 (Metrics.counter_value "server.sessions.accepted");
  check Alcotest.int "closed" 1 (Metrics.counter_value "server.sessions.closed");
  (match Metrics.find "server.request_ms" with
  | Some (Metrics.Histogram h) ->
      check Alcotest.int "latencies observed" 4 (Metrics.Histogram.count h)
  | _ -> Alcotest.fail "server.request_ms not registered");
  (* The engine records served queries in the Query Repository. *)
  check Alcotest.bool "query recorded" true
    (List.exists (fun (q : Repo.query_record) -> q.text = "lca(T0, T1)") (Repo.history repo))

(* EXPLAIN / PROFILE / TOP: happy paths and every error path the wire
   grammar and engine can produce. *)
let test_explain_profile_top () =
  let repo, _stored = load_test_repo () in
  let t = Engine.create repo in
  let s = match Engine.open_session t with Ok s -> s | Error _ -> Alcotest.fail "open" in
  (* Before USE: tree-dependent verbs refuse, TOP still answers. *)
  ignore (expect_err (Engine.handle_line t s "EXPLAIN lca(T0, T1)"));
  ignore (expect_err (Engine.handle_line t s "PROFILE lca(T0, T1)"));
  ignore (expect_ok (Engine.handle_line t s "TOP"));
  ignore (expect_ok (Engine.handle_line t s "USE gold"));
  (* EXPLAIN: a plan is a non-empty list of strings; nothing recorded. *)
  let before = List.length (Repo.history repo) in
  let r = expect_ok (Engine.handle_line t s "EXPLAIN lca(T0, T1)") in
  (match field "plan" r with
  | Json.List (Json.Str _ :: _) -> ()
  | _ -> Alcotest.failf "plan not a string list: %s" (body r));
  check Alcotest.int "explain records nothing" before (List.length (Repo.history repo));
  (* Error paths: empty argument (wire grammar), malformed query, and
     unknown species (execution-level resolution). *)
  ignore (expect_err (Engine.handle_line t s "EXPLAIN"));
  ignore (expect_err (Engine.handle_line t s "PROFILE"));
  ignore (expect_err (Engine.handle_line t s "TOP extra"));
  ignore (expect_err (Engine.handle_line t s "EXPLAIN lca((((("));
  ignore (expect_err (Engine.handle_line t s "PROFILE lca((((("));
  ignore (expect_err (Engine.handle_line t s "PROFILE lca(Nope, T1)"));
  (* PROFILE: the report's pages must equal the reply's pager-counted
     pages, and a warm repeat must be deterministic. *)
  let profile_pages r =
    let stage_counter name =
      match Json.member "total" (field "profile" r) with
      | Some total -> (
          match Json.member name total with
          | Some (Json.Num v) -> int_of_float v
          | _ -> 0)
      | None -> Alcotest.failf "profile lacks total: %s" (body r)
    in
    let reply_pages =
      match field "pages" r with
      | Json.Num v -> int_of_float v
      | _ -> Alcotest.fail "pages not a number"
    in
    (stage_counter "pager_hits" + stage_counter "pager_misses", reply_pages)
  in
  ignore (expect_ok (Engine.handle_line t s "QUERY lca(T0, T7)"));
  let r1 = expect_ok (Engine.handle_line t s "PROFILE lca(T0, T7)") in
  let report1, reply1 = profile_pages r1 in
  check Alcotest.int "profile pages match pager counters" reply1 report1;
  check Alcotest.bool "profiled query touched pages" true (reply1 > 0);
  let r2 = expect_ok (Engine.handle_line t s "PROFILE lca(T0, T7)") in
  let report2, reply2 = profile_pages r2 in
  check Alcotest.int "warm repeat: same pages (report)" report1 report2;
  check Alcotest.int "warm repeat: same pages (reply)" reply1 reply2;
  (* PROFILE records the query with its cost JSON. *)
  check Alcotest.bool "profile recorded with cost" true
    (List.exists
       (fun (q : Repo.query_record) ->
         q.text = "lca(T0, T7)" && String.length q.cost > 0 && q.cost.[0] = '{')
       (Repo.history repo));
  (* TOP: this session appears with its accumulated accounting. *)
  let r = expect_ok (Engine.handle_line t s "TOP") in
  (match field "sessions" r with
  | Json.List rows ->
      let mine =
        List.find_opt
          (fun row ->
            match Json.member "session" row with
            | Some (Json.Num v) -> int_of_float v = Engine.session_id s
            | _ -> false)
          rows
      in
      (match mine with
      | Some row ->
          (match Json.member "requests" row with
          | Some (Json.Num v) -> check Alcotest.bool "requests counted" true (v >= 10.0)
          | _ -> Alcotest.fail "session row lacks requests");
          (match Json.member "pages" row with
          | Some (Json.Num v) ->
              check Alcotest.bool "session pages accumulated" true (int_of_float v > 0)
          | _ -> Alcotest.fail "session row lacks pages");
          (match Json.member "last" row with
          | Some (Json.Str last) -> check Alcotest.string "last line" "TOP" last
          | _ -> Alcotest.fail "session row lacks last")
      | None -> Alcotest.fail "own session missing from TOP")
  | _ -> Alcotest.failf "sessions not a list: %s" (body r));
  Engine.close_session t s;
  (* A closed session leaves the TOP table. *)
  let s2 = match Engine.open_session t with Ok s -> s | Error _ -> Alcotest.fail "s2" in
  let r = expect_ok (Engine.handle_line t s2 "TOP") in
  (match field "sessions" r with
  | Json.List rows -> check Alcotest.int "only the live session" 1 (List.length rows)
  | _ -> Alcotest.fail "sessions not a list");
  Engine.close_session t s2

(* An over-budget PROFILE line dies in the line buffer before the
   engine ever sees it — same poisoning contract as any other verb. *)
let test_profile_over_budget_line () =
  let lb = Wire.Line_buffer.create ~max_line:64 in
  let huge = "PROFILE lca(" ^ String.make 128 'x' ^ ", T1)\n" in
  (match Wire.Line_buffer.feed lb huge with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected over-budget error");
  match Wire.Line_buffer.feed lb "TOP\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "poisoned buffer must stay in error"

let test_request_timeout () =
  (* A pathological query (deeply nested pattern parse is fast; use a
     huge sample instead? sampling validates k) — the reliable slow path
     is a clade over many species on a large tree. Rather than depend on
     machine speed, drive with_timeout indirectly: a 50 ms limit against
     a query that spins via repeated projection. Simpler and robust: a
     tiny limit and a query that always takes longer than it. *)
  let repo = Repo.open_mem () in
  let tree = Models.caterpillar ~rng:(Prng.create 3) ~leaves:4000 () in
  ignore (Loader.load_tree ~f:8 repo ~name:"deep" tree);
  let config = { Engine.default_config with Engine.request_timeout = 0.001 } in
  let t = Engine.create ~config repo in
  let s = match Engine.open_session t with Ok s -> s | Error _ -> Alcotest.fail "open" in
  ignore (expect_ok (Engine.handle_line t s "USE deep"));
  let r = Engine.handle_line t s "QUERY project(T0, T1000, T2000, T3000, T3999)" in
  if is_ok r then
    (* Machine fast enough to beat 1 ms: not a failure of the timeout
       machinery, but the timeout path went unexercised. *)
    check Alcotest.bool "timeout untriggered but no crash" true true
  else begin
    check Alcotest.bool "timeout reported" true (contains "timed out" (body r));
    check Alcotest.bool "session survives timeout" false r.Engine.close;
    check Alcotest.bool "timeout counted" true
      (Metrics.counter_value "server.timeouts" > 0)
  end;
  (* The session keeps answering after a timeout. *)
  ignore (expect_ok (Engine.handle_line t s "QUERY depth(T3)"));
  Engine.close_session t s

(* --------------------------- Repo.open_dir -------------------------- *)

let with_tmp_dir f =
  let dir = Filename.temp_file "crimson_srv" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let test_open_dir_errors () =
  with_tmp_dir (fun dir ->
      let missing = Filename.concat dir "absent" in
      (match Repo.open_dir ~create:false missing with
      | exception Repo.Open_error msg ->
          check Alcotest.bool "names missing dir" true (contains "no such directory" msg)
      | _ -> Alcotest.fail "missing dir should not open");
      (* An existing directory without a catalog is not a repository. *)
      let empty = Filename.concat dir "empty" in
      Unix.mkdir empty 0o755;
      (match Repo.open_dir ~create:false empty with
      | exception Repo.Open_error msg ->
          check Alcotest.bool "names the catalog" true (contains "catalog" msg)
      | _ -> Alcotest.fail "non-repository should not open");
      (* A file path is not a directory, with create either way. *)
      let file = Filename.concat dir "plain" in
      let oc = open_out file in
      output_string oc "x";
      close_out oc;
      (match Repo.open_dir ~create:false file with
      | exception Repo.Open_error _ -> ()
      | _ -> Alcotest.fail "file path should not open");
      (match Repo.open_dir file with
      | exception Repo.Open_error _ -> ()
      | _ -> Alcotest.fail "file path should not open with create");
      (* create:false on a real repository works. *)
      let repo_dir = Filename.concat dir "repo" in
      let repo = Repo.open_dir repo_dir in
      Repo.close repo;
      let repo = Repo.open_dir ~create:false repo_dir in
      Repo.close repo)

(* --------------------------- End-to-end ----------------------------- *)

(* The smoke test the acceptance criteria name: a forked server on an
   ephemeral Unix socket, >= 3 concurrent scripted client processes
   whose answers must match direct library calls, admission-control
   rejection, and a clean SIGTERM drain (exit 0). *)

let smoke_queries =
  [
    "info()";
    "lca(T0, T7)";
    "clade(T1, T2, T3)";
    "distance(T0, T9)";
    "sample(5)";
    "depth(T4)";
    "parent(T5)";
  ]

let test_e2e_smoke () =
  with_tmp_dir (fun dir ->
      let repo_dir = Filename.concat dir "repo" in
      let sock = Filename.concat dir "s.sock" in
      (* Build the repository and pre-compute expected answers with
         direct library calls, before the server owns the directory. *)
      let expected =
        let repo = Repo.open_dir repo_dir in
        let tree = Models.yule ~rng:(Prng.create 11) ~leaves:30 () in
        let stored = (Loader.load_tree ~f:4 repo ~name:"gold" tree).Loader.tree in
        let rng = Prng.create 5 in
        let answers =
          List.map
            (fun q ->
              match Query_lang.run ~rng ~record:false repo stored q with
              | Ok o -> (q, o.Query_lang.result)
              | Error e -> Alcotest.failf "direct %S failed: %s" q e)
            smoke_queries
        in
        Repo.close repo;
        answers
      in
      (* Fork the server. *)
      flush stdout;
      flush stderr;
      let server_pid =
        match Unix.fork () with
        | 0 ->
            Crimson_obs.Trace.child_reset ();
            Crimson_obs.Events.child_reset ();
            let repo = Repo.open_dir ~create:false repo_dir in
            let config =
              {
                Engine.default_config with
                Engine.max_sessions = 3;
                request_timeout = 10.0;
                max_line = 4096;
              }
            in
            Fun.protect
              ~finally:(fun () -> Repo.close repo)
              (fun () -> Server.run ~config repo (Wire.Unix_path sock));
            Unix._exit 0
        | pid -> pid
      in
      let deadline = Unix.gettimeofday () +. 10.0 in
      while (not (Sys.file_exists sock)) && Unix.gettimeofday () < deadline do
        ignore (Unix.select [] [] [] 0.02)
      done;
      check Alcotest.bool "socket appears" true (Sys.file_exists sock);
      Fun.protect
        ~finally:(fun () ->
          (* Belt and braces: never leave a server behind on failure. *)
          (try Unix.kill server_pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] server_pid) with Unix.Unix_error _ -> ())
        (fun () ->
          (* Three concurrent scripted clients; each checks every answer
             against the pre-computed direct results (same SEED). *)
          flush stdout;
          flush stderr;
          let clients =
            List.init 3 (fun _ ->
                match Unix.fork () with
                | 0 ->
                    Crimson_obs.Trace.child_reset ();
                    Crimson_obs.Events.child_reset ();
                    let status =
                      try
                        let c = Client.connect (Wire.Unix_path sock) in
                        if not (Client.ok (Client.request c "HELLO")) then Unix._exit 3;
                        if not (Client.ok (Client.request c "USE gold")) then Unix._exit 4;
                        if not (Client.ok (Client.request c "SEED 5")) then Unix._exit 5;
                        let bad = ref 0 in
                        List.iter
                          (fun (q, want) ->
                            let reply = Client.request c ("QUERY " ^ q) in
                            match Client.str_field "result" reply with
                            | Some got when got = want -> ()
                            | _ -> incr bad)
                          expected;
                        (* Malformed input must answer, not disconnect. *)
                        let r = Client.request c "QUERY lca(((((" in
                        if Client.ok r then incr bad;
                        let r = Client.request c "NONSENSE" in
                        if Client.ok r then incr bad;
                        ignore (Client.request c "QUIT");
                        Client.close c;
                        if !bad = 0 then 0 else 1
                      with _ -> 2
                    in
                    Unix._exit status
                | pid -> pid)
          in
          List.iter
            (fun pid ->
              match Unix.waitpid [] pid with
              | _, Unix.WEXITED 0 -> ()
              | _, Unix.WEXITED n -> Alcotest.failf "client exited %d" n
              | _, _ -> Alcotest.fail "client killed")
            clients;
          (* Admission control: fill all 3 slots, the 4th connection is
             rejected with a protocol error (not a hang). *)
          let held = List.init 3 (fun _ -> Client.connect (Wire.Unix_path sock)) in
          List.iter (fun c -> ignore (Client.request c "HELLO")) held;
          let over = Client.connect (Wire.Unix_path sock) in
          (match Client.read_line over with
          | Some line ->
              let j = Json.parse line in
              check Alcotest.bool "rejection is an error" false (Client.ok j);
              check Alcotest.bool "rejection names the limit" true
                (contains "limit" line)
          | None -> Alcotest.fail "over-limit connect saw EOF before the rejection");
          check Alcotest.bool "rejected connection closed" true
            (Client.read_line over = None);
          Client.close over;
          (* A freed slot admits again. *)
          (match held with
          | first :: _ ->
              ignore (Client.request first "QUIT");
              Client.close first
          | [] -> assert false);
          let again = Client.connect (Wire.Unix_path sock) in
          check Alcotest.bool "freed slot admits" true
            (Client.ok (Client.request again "HELLO"));
          (* One in-flight session with pending state: server queries are
             recorded; now drain. SIGTERM must flush and exit 0. *)
          ignore (Client.request again "USE gold");
          ignore (Client.request again "QUERY lca(T0, T1)");
          Unix.kill server_pid Sys.sigterm;
          (match Unix.waitpid [] server_pid with
          | _, Unix.WEXITED 0 -> ()
          | _, Unix.WEXITED n -> Alcotest.failf "server exited %d on SIGTERM" n
          | _, Unix.WSIGNALED n -> Alcotest.failf "server killed by signal %d" n
          | _, _ -> Alcotest.fail "server stopped");
          check Alcotest.bool "socket removed on shutdown" false (Sys.file_exists sock);
          Client.close again;
          List.iter (fun c -> Client.close c) (List.tl held);
          (* The server's Query Repository writes reached disk. *)
          let repo = Repo.open_dir ~create:false repo_dir in
          let served =
            List.filter
              (fun (q : Repo.query_record) -> q.text = "lca(T0, T7)")
              (Repo.history repo)
          in
          check Alcotest.bool "server recorded queries" true (List.length served >= 3);
          Repo.close repo))

(* --------------------------- Collection verbs ------------------------ *)

(* Collection queries need no USE: both the dedicated verbs and plain
   QUERY/EXPLAIN/PROFILE texts that parse as collection calls run off
   the bipartition dictionary, and the dedicated verbs answer
   byte-identically to their canonical QUERY spelling. *)
let test_collection_verbs () =
  let repo, _ = load_test_repo () in
  let tree = Models.yule ~rng:(Prng.create 9) ~leaves:15 () in
  let taxa =
    Array.to_list (Tree.leaves tree) |> List.filter_map (Tree.name tree)
  in
  let c = Collection.create repo ~name:"boot" ~taxa in
  ignore (Collection.ingest c tree);
  ignore (Collection.ingest c tree);
  let t = Engine.create repo in
  let s = match Engine.open_session t with Ok s -> s | Error _ -> Alcotest.fail "open" in
  (* HELLO lists collections alongside trees. *)
  (match field "collections" (expect_ok (Engine.handle_line t s "HELLO")) with
  | Json.List [ Json.Str "boot" ] -> ()
  | other -> Alcotest.failf "collections field: %s" (Json.to_string other));
  let result line =
    match field "result" (expect_ok (Engine.handle_line t s line)) with
    | Json.Str r -> r
    | _ -> Alcotest.failf "non-string result for %s" line
  in
  let via_verb = result "CONSENSUS boot" in
  check Alcotest.string "verb matches canonical query text" via_verb
    (result "QUERY consensus('boot')");
  check Alcotest.string "threshold passes through"
    (result "CONSENSUS boot 1.0")
    (result "QUERY consensus('boot', 1.0)");
  check Alcotest.string "rf of identical replicates" "0 0\n0 0"
    (result "RFMATRIX boot");
  check Alcotest.bool "support runs" true (String.length (result "SUPPORT boot") > 0);
  check Alcotest.bool "collstats runs" true
    (contains "bipartitions" (result "COLLSTATS boot"));
  (* EXPLAIN and PROFILE route collection texts without a selected tree. *)
  (match field "plan" (expect_ok (Engine.handle_line t s "EXPLAIN consensus('boot')")) with
  | Json.List (_ :: _) -> ()
  | _ -> Alcotest.fail "collection explain plan empty");
  let r = expect_ok (Engine.handle_line t s "PROFILE consensus('boot')") in
  (match field "profile" r with
  | Json.Obj _ as p ->
      check Alcotest.bool "profile charges dict_scan" true
        (contains "dict_scan" (Json.to_string p))
  | _ -> Alcotest.fail "profile field missing");
  (* Errors stay protocol errors, not crashes. *)
  ignore (expect_err (Engine.handle_line t s "CONSENSUS"));
  ignore (expect_err (Engine.handle_line t s "CONSENSUS nosuch"));
  ignore (expect_err (Engine.handle_line t s "CONSENSUS boot high"));
  ignore (expect_err (Engine.handle_line t s "QUERY consensus('boot', 0.1)"));
  ignore (Engine.handle_line t s "QUIT")

(* --workers auto sizes the fleet from the machine: always at least one
   worker, and never the whole machine (the coordinator keeps a core
   when more than one is available). *)
let test_auto_workers () =
  let n = Worker_core.auto_workers () in
  check Alcotest.bool "auto workers >= 1" true (n >= 1);
  check Alcotest.bool "auto workers leaves the coordinator a core" true
    (n <= max 1 (Domain.recommended_domain_count () - 1))

(* ------------------------ Read-only repositories --------------------- *)

(* The worker-domain contract: a [~mode:Read_only] open serves every
   read path over the same files while refusing each mutation with the
   typed [Error.Read_only] — never a crash, never a silent write. *)
let test_read_only_mode () =
  with_tmp_dir (fun dir ->
      let repo_dir = Filename.concat dir "repo" in
      let ro_tree = Models.yule ~rng:(Prng.create 13) ~leaves:10 () in
      let leaves =
        let repo = Repo.open_dir repo_dir in
        let tree = Models.yule ~rng:(Prng.create 3) ~leaves:20 () in
        let stored = (Loader.load_tree ~f:4 repo ~name:"gold" tree).Loader.tree in
        ignore (Repo.record_query repo ~text:"info()" ~result:"r");
        let taxa =
          Array.to_list (Tree.leaves ro_tree) |> List.filter_map (Tree.name ro_tree)
        in
        let c = Collection.create repo ~name:"boot" ~taxa in
        ignore (Collection.ingest c ro_tree);
        let n = Stored_tree.leaf_count stored in
        Repo.close repo;
        n
      in
      (* Read-only open of a missing directory refuses up front. *)
      (match
         Repo.open_dir ~mode:Crimson_storage.Database.Read_only
           (Filename.concat dir "absent")
       with
      | exception Repo.Open_error _ -> ()
      | _ -> Alcotest.fail "read-only open of a missing dir should refuse");
      let ro = Repo.open_dir ~mode:Crimson_storage.Database.Read_only repo_dir in
      check Alcotest.bool "mode reports read-only" true
        (Repo.mode ro = Crimson_storage.Database.Read_only);
      (* Every read path works: trees open, queries execute, history
         lists. *)
      let stored = Stored_tree.open_name ro "gold" in
      check Alcotest.int "tree readable" leaves (Stored_tree.leaf_count stored);
      (match Query_lang.run ~rng:(Prng.create 1) ~record:false ro stored "lca(T0, T1)" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "query on read-only repo failed: %s" e);
      check Alcotest.int "history readable" 1 (List.length (Repo.history ro));
      (* Mutations refuse with the typed error, naming the operation. *)
      (match Repo.record_query ro ~text:"x" ~result:"y" with
      | exception
          Crimson_storage.Error.Error (Crimson_storage.Error.Read_only _) ->
          ()
      | exception e ->
          Alcotest.failf "wrong refusal: %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "record_query on a read-only repo should refuse");
      (* Every query-language mutating path surfaces the refusal as
         Error, never an escaped exception: recording a tree query,
         recording a collection query, and collection ingest. *)
      (match Query_lang.run ~rng:(Prng.create 1) ro stored "lca(T0, T1)" with
      | Error msg ->
          check Alcotest.bool "tree-query recording names read-only" true
            (contains "read-only" msg)
      | Ok _ -> Alcotest.fail "recording tree query on read-only should refuse");
      (match Coll_lang.run ro "consensus('boot')" with
      | Error msg ->
          check Alcotest.bool "collection recording names read-only" true
            (contains "read-only" msg)
      | Ok _ -> Alcotest.fail "recording collection query on read-only should refuse");
      (match Collection.ingest (Collection.open_name ro "boot") ro_tree with
      | exception
          Crimson_storage.Error.Error (Crimson_storage.Error.Read_only _) ->
          ()
      | exception e ->
          Alcotest.failf "ingest wrong refusal: %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "collection ingest on a read-only repo should refuse");
      Repo.close ro;
      (* A read-only open leaves the repository writable for others. *)
      let rw = Repo.open_dir ~create:false repo_dir in
      ignore (Repo.record_query rw ~text:"z" ~result:"w");
      Repo.close rw)

(* -------------------------- Multi-worker fleet ----------------------- *)

(* The coordinator acceptance tests: N worker domains behind one
   socket must answer byte-identically to direct library calls, reject
   over-limit connects fleet-wide, aggregate STATS so the server total
   equals the sum of per-worker slices, show sessions from different
   workers in one TOP, drain cleanly on SIGTERM (exit 0), and land
   every query-history row in the coordinator's repository. *)
let test_multiworker_e2e () =
  with_tmp_dir (fun dir ->
      let repo_dir = Filename.concat dir "repo" in
      let sock = Filename.concat dir "w.sock" in
      let expected =
        let repo = Repo.open_dir repo_dir in
        let tree = Models.yule ~rng:(Prng.create 11) ~leaves:30 () in
        let stored = (Loader.load_tree ~f:4 repo ~name:"gold" tree).Loader.tree in
        let rng = Prng.create 5 in
        let answers =
          List.map
            (fun q ->
              match Query_lang.run ~rng ~record:false repo stored q with
              | Ok o -> (q, o.Query_lang.result)
              | Error e -> Alcotest.failf "direct %S failed: %s" q e)
            smoke_queries
        in
        Repo.close repo;
        answers
      in
      flush stdout;
      flush stderr;
      let server_pid =
        match Unix.fork () with
        | 0 ->
            Crimson_obs.Trace.child_reset ();
            Crimson_obs.Events.child_reset ();
            (* The parent's in-process engine tests leave counts behind in
               the global registry; the forked server must start at zero
               like an exec'd one, or fleet totals include the residue. *)
            Crimson_obs.Metrics.reset_all ();
            let repo = Repo.open_dir ~create:false repo_dir in
            let config =
              {
                Engine.default_config with
                Engine.max_sessions = 3;
                request_timeout = 10.0;
                max_line = 4096;
                workers = 3;
              }
            in
            Fun.protect
              ~finally:(fun () -> Repo.close repo)
              (fun () -> Server.run ~config repo (Wire.Unix_path sock));
            Unix._exit 0
        | pid -> pid
      in
      let deadline = Unix.gettimeofday () +. 10.0 in
      while (not (Sys.file_exists sock)) && Unix.gettimeofday () < deadline do
        ignore (Unix.select [] [] [] 0.02)
      done;
      check Alcotest.bool "socket appears" true (Sys.file_exists sock);
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill server_pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] server_pid) with Unix.Unix_error _ -> ())
        (fun () ->
          (* Three concurrent scripted clients, answers byte-identical to
             the direct library results — whichever worker serves them. *)
          flush stdout;
          flush stderr;
          let clients =
            List.init 3 (fun _ ->
                match Unix.fork () with
                | 0 ->
                    Crimson_obs.Trace.child_reset ();
                    Crimson_obs.Events.child_reset ();
                    let status =
                      try
                        let c = Client.connect (Wire.Unix_path sock) in
                        if not (Client.ok (Client.request c "HELLO")) then Unix._exit 3;
                        if not (Client.ok (Client.request c "USE gold")) then Unix._exit 4;
                        if not (Client.ok (Client.request c "SEED 5")) then Unix._exit 5;
                        let bad = ref 0 in
                        List.iter
                          (fun (q, want) ->
                            let reply = Client.request c ("QUERY " ^ q) in
                            match Client.str_field "result" reply with
                            | Some got when got = want -> ()
                            | _ -> incr bad)
                          expected;
                        ignore (Client.request c "QUIT");
                        Client.close c;
                        if !bad = 0 then 0 else 1
                      with _ -> 2
                    in
                    Unix._exit status
                | pid -> pid)
          in
          List.iter
            (fun pid ->
              match Unix.waitpid [] pid with
              | _, Unix.WEXITED 0 -> ()
              | _, Unix.WEXITED n -> Alcotest.failf "client exited %d" n
              | _, _ -> Alcotest.fail "client killed")
            clients;
          (* Admission slots are released asynchronously: a worker
             decrements the shared count only after it drops the drained
             connection, so a connect racing a just-quit session can be
             rejected. Acquire sessions by polling until admitted. *)
          let admit () =
            let deadline = Unix.gettimeofday () +. 5.0 in
            let rec go () =
              let c = Client.connect (Wire.Unix_path sock) in
              match Client.request c "HELLO" with
              | reply when Client.ok reply -> c
              | _ | (exception Client.Connection_error _) ->
                  Client.close c;
                  if Unix.gettimeofday () >= deadline then
                    Alcotest.fail "no admission slot freed within 5s"
                  else begin
                    ignore (Unix.select [] [] [] 0.05);
                    go ()
                  end
            in
            go ()
          in
          (* Fleet-wide admission: fill all 3 slots (they land on
             different workers round-robin), the 4th connect is rejected
             by the coordinator with the standard protocol error. *)
          let held = List.init 3 (fun _ -> admit ()) in
          List.iter
            (fun c ->
              ignore (Client.request c "USE gold");
              ignore (Client.request c "QUERY lca(T0, T7)"))
            held;
          let over = Client.connect (Wire.Unix_path sock) in
          (match Client.read_line over with
          | Some line ->
              let j = Json.parse line in
              check Alcotest.bool "rejection is an error" false (Client.ok j);
              check Alcotest.bool "rejection names the limit" true
                (contains "limit" line)
          | None -> Alcotest.fail "over-limit connect saw EOF before the rejection");
          check Alcotest.bool "rejected connection closed" true
            (Client.read_line over = None);
          Client.close over;
          let first = List.hd held in
          (* TOP answered by one worker must see every worker's sessions:
             each held session already published rows, so the reply has 3
             rows spanning at least 2 distinct worker ids. *)
          let top = Client.request first "TOP" in
          (match Json.member "sessions" top with
          | Some (Json.List rows) ->
              check Alcotest.int "TOP sees all fleet sessions" 3 (List.length rows);
              let workers =
                List.sort_uniq compare
                  (List.filter_map
                     (fun row ->
                       match Json.member "worker" row with
                       | Some (Json.Num v) -> Some (int_of_float v)
                       | _ -> None)
                     rows)
              in
              check Alcotest.bool "TOP spans multiple workers" true
                (List.length workers >= 2)
          | _ -> Alcotest.fail "TOP lacks sessions");
          (match Json.member "active" top with
          | Some (Json.Num v) -> check Alcotest.int "fleet active" 3 (int_of_float v)
          | _ -> Alcotest.fail "TOP lacks active");
          (* STATS aggregation: the fleet-wide request counter equals the
             sum of the per-worker slices, counted at one quiescent
             moment (only this STATS is in flight). *)
          let stats = Client.request first "STATS" in
          let counters =
            match Json.member "metrics" stats with
            | Some m -> (
                match Json.member "counters" m with
                | Some (Json.Obj kvs) -> kvs
                | _ -> Alcotest.fail "STATS lacks counters")
            | None -> Alcotest.fail "STATS lacks metrics"
          in
          let counter name =
            match List.assoc_opt name counters with
            | Some (Json.Num v) -> int_of_float v
            | _ -> 0
          in
          let per_worker =
            counter "server.worker.1.requests"
            + counter "server.worker.2.requests"
            + counter "server.worker.3.requests"
          in
          check Alcotest.int "fleet requests = sum of worker slices"
            (counter "server.requests") per_worker;
          check Alcotest.bool "every worker served something" true
            (counter "server.worker.1.requests" > 0
            && counter "server.worker.2.requests" > 0
            && counter "server.worker.3.requests" > 0);
          (* A slot freed on one worker admits a new connection. The
             release is asynchronous — the worker decrements the shared
             admission count after it drops the drained connection — so
             poll briefly instead of racing the first attempt. *)
          ignore (Client.request first "QUIT");
          Client.close first;
          let again = admit () in
          check Alcotest.bool "freed slot admits" true true;
          (* Graceful SIGTERM: coordinator stops accepting, every worker
             drains and joins, exit 0, socket removed. *)
          Unix.kill server_pid Sys.sigterm;
          (match Unix.waitpid [] server_pid with
          | _, Unix.WEXITED 0 -> ()
          | _, Unix.WEXITED n -> Alcotest.failf "server exited %d on SIGTERM" n
          | _, Unix.WSIGNALED n -> Alcotest.failf "server killed by signal %d" n
          | _, _ -> Alcotest.fail "server stopped");
          check Alcotest.bool "socket removed on shutdown" false
            (Sys.file_exists sock);
          Client.close again;
          List.iter (fun c -> Client.close c) (List.tl held);
          (* Every QUERY travelled the serialized write channel into the
             coordinator's repository: 3 smoke clients x 7 queries, plus
             3 held sessions' lca(T0, T7). *)
          let repo = Repo.open_dir ~create:false repo_dir in
          let history = Repo.history repo in
          let served q =
            List.length
              (List.filter (fun (r : Repo.query_record) -> r.text = q) history)
          in
          check Alcotest.bool "held queries recorded" true
            (served "lca(T0, T7)" >= 6);
          check Alcotest.int "smoke queries recorded" 3 (served "sample(5)");
          Repo.close repo))

(* ----------------------- Fleet observability ------------------------ *)

module Http_obs = Crimson_server.Http_obs

(* TOP's comparator must be a total order: cost descending, ties broken
   by (worker, session) — merged fleet rows never flap between
   renders. *)
let test_compare_rows_total () =
  let row ?(ms = 1.0) worker session =
    {
      Worker_core.r_worker = worker;
      r_session = session;
      r_tree = None;
      r_requests = 0;
      r_ms = ms;
      r_pages = 0;
      r_bytes_out = 0;
      r_started_at = 0.0;
      r_last = "";
    }
  in
  check Alcotest.bool "higher cost first" true
    (Worker_core.compare_rows (row ~ms:5.0 1 1) (row ~ms:2.0 1 2) < 0);
  let a = row 1 2 and b = row 2 1 in
  check Alcotest.bool "ties are antisymmetric" true
    (Worker_core.compare_rows a b = -Worker_core.compare_rows b a);
  check Alcotest.int "reflexive" 0 (Worker_core.compare_rows a a);
  let rows = [ row 2 1; row ~ms:3.0 1 9; row 1 2; row 1 1 ] in
  let order rs =
    List.map
      (fun r -> (r.Worker_core.r_worker, r.Worker_core.r_session))
      (List.sort Worker_core.compare_rows rs)
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "deterministic order"
    [ (1, 9); (1, 1); (1, 2); (2, 1) ]
    (order rows);
  check Alcotest.bool "permutation-independent" true
    (order rows = order (List.rev rows))

(* SLEEP is fault injection for the watchdog tests: parsed always,
   refused unless the server opted into debug verbs. *)
let test_sleep_verb_gated () =
  let repo, _ = load_test_repo () in
  let t = Engine.create repo in
  let s = match Engine.open_session t with Ok s -> s | Error _ -> Alcotest.fail "open" in
  ignore (expect_err (Engine.handle_line t s "SLEEP 5"));
  Engine.close_session t s;
  let t = Engine.create ~config:{ Engine.default_config with Engine.debug_verbs = true } repo in
  let s = match Engine.open_session t with Ok s -> s | Error _ -> Alcotest.fail "open" in
  (match field "slept_ms" (expect_ok (Engine.handle_line t s "SLEEP 5")) with
  | Json.Num v -> check (Alcotest.float 1e-9) "echoes duration" 5.0 v
  | _ -> Alcotest.fail "slept_ms not a number");
  Engine.close_session t s

let prom_value text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ n; v ] when n = name -> float_of_string_opt v
         | _ -> None)

let wait_for_file path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    ignore (Unix.select [] [] [] 0.02)
  done;
  check Alcotest.bool (path ^ " appears") true (Sys.file_exists path)

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

(* The fleet health plane end to end: a 4-worker server with the HTTP
   observability endpoint, a JSONL trace sink and the event journal,
   hammered by forked clients while the parent scrapes /metrics.

   - Scrape invariant: merged server.requests never exceeds the sum of
     the per-worker slices within one scrape, and never goes backwards
     between scrapes (slices increment before the global counter, and
     the exposition reads the global first).
   - Quiescent exactness: once the load stops, the merged request
     counter and request_ms histogram equal the sum of the worker
     slices, count for count.
   - Torn-line regression: four domains wrote every request's trace
     into one sink fd; every line of the file must parse as JSON. *)
let test_obs_fleet_e2e () =
  with_tmp_dir (fun dir ->
      let repo_dir = Filename.concat dir "repo" in
      let sock = Filename.concat dir "o.sock" in
      let obs_sock = Filename.concat dir "obs.sock" in
      let trace_path = Filename.concat dir "trace.jsonl" in
      let events_path = Filename.concat dir "events.jsonl" in
      (let repo = Repo.open_dir repo_dir in
       let tree = Models.yule ~rng:(Prng.create 11) ~leaves:30 () in
       ignore (Loader.load_tree ~f:4 repo ~name:"gold" tree);
       Repo.close repo);
      flush stdout;
      flush stderr;
      let server_pid =
        match Unix.fork () with
        | 0 ->
            Crimson_obs.Trace.child_reset ();
            Crimson_obs.Events.child_reset ();
            Crimson_obs.Metrics.reset_all ();
            let repo = Repo.open_dir ~create:false repo_dir in
            let config =
              {
                Engine.default_config with
                Engine.max_sessions = 16;
                request_timeout = 10.0;
                workers = 4;
                slowlog_ms = Some 0.0;
                trace_out = Some trace_path;
                events_out = Some events_path;
                obs_listen = Some (Wire.Unix_path obs_sock);
              }
            in
            Fun.protect
              ~finally:(fun () -> Repo.close repo)
              (fun () -> Server.run ~config repo (Wire.Unix_path sock));
            Unix._exit 0
        | pid -> pid
      in
      wait_for_file sock;
      wait_for_file obs_sock;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill server_pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] server_pid) with Unix.Unix_error _ -> ())
        (fun () ->
          let obs = Wire.Unix_path obs_sock in
          flush stdout;
          flush stderr;
          let clients =
            List.init 4 (fun _ ->
                match Unix.fork () with
                | 0 ->
                    Crimson_obs.Trace.child_reset ();
                    Crimson_obs.Events.child_reset ();
                    let status =
                      try
                        let c = Client.connect (Wire.Unix_path sock) in
                        if not (Client.ok (Client.request c "HELLO")) then Unix._exit 3;
                        if not (Client.ok (Client.request c "USE gold")) then
                          Unix._exit 4;
                        for _ = 1 to 25 do
                          ignore (Client.request c "QUERY lca(T0, T7)")
                        done;
                        ignore (Client.request c "QUIT");
                        Client.close c;
                        0
                      with _ -> 2
                    in
                    Unix._exit status
                | pid -> pid)
          in
          (* Scrape while the burst runs: the merged counter must be
             monotonic across scrapes and never exceed the sum of the
             slices within one scrape. *)
          let last_merged = ref 0.0 in
          for _ = 1 to 15 do
            (match Http_obs.get obs "/metrics" with
            | Ok (200, body) ->
                let merged =
                  match prom_value body "crimson_server_requests" with
                  | Some v -> v
                  | None -> Alcotest.fail "exposition lacks crimson_server_requests"
                in
                let slices =
                  List.fold_left
                    (fun acc i ->
                      match
                        prom_value body
                          (Printf.sprintf "crimson_server_worker_%d_requests" i)
                      with
                      | Some v -> acc +. v
                      | None -> Alcotest.failf "exposition lacks worker %d slice" i)
                    0.0 [ 1; 2; 3; 4 ]
                in
                check Alcotest.bool "merged <= sum of slices" true (merged <= slices);
                check Alcotest.bool "merged never goes backwards" true
                  (merged >= !last_merged);
                last_merged := merged
            | Ok (status, _) -> Alcotest.failf "/metrics answered %d" status
            | Error e -> Alcotest.failf "/metrics scrape failed: %s" e);
            ignore (Unix.select [] [] [] 0.02)
          done;
          List.iter
            (fun pid ->
              match Unix.waitpid [] pid with
              | _, Unix.WEXITED 0 -> ()
              | _, Unix.WEXITED n -> Alcotest.failf "load client exited %d" n
              | _, _ -> Alcotest.fail "load client killed")
            clients;
          check Alcotest.bool "load reached the fleet" true (!last_merged > 0.0);
          (* Quiescent: merged totals equal the sum of the slices exactly,
             for the counter and for the histogram's sample count. *)
          let varz =
            match Http_obs.get obs "/varz" with
            | Ok (200, body) -> Json.parse body
            | Ok (status, _) -> Alcotest.failf "/varz answered %d" status
            | Error e -> Alcotest.failf "/varz failed: %s" e
          in
          let path keys j =
            List.fold_left
              (fun acc k ->
                match Option.bind acc (Json.member k) with
                | Some v -> Some v
                | None -> None)
              (Some j) keys
          in
          let num keys =
            match path keys varz with
            | Some (Json.Num v) -> v
            | _ -> Alcotest.failf "varz lacks %s" (String.concat "." keys)
          in
          let merged = num [ "metrics"; "counters"; "server.requests" ] in
          let slices =
            List.fold_left
              (fun acc i ->
                acc
                +. num
                     [
                       "metrics"; "counters";
                       Printf.sprintf "server.worker.%d.requests" i;
                     ])
              0.0 [ 1; 2; 3; 4 ]
          in
          check (Alcotest.float 0.0) "quiescent merged = sum of slices" slices
            merged;
          let hist_count name =
            num [ "metrics"; "histograms"; name; "count" ]
          in
          let slice_counts =
            List.fold_left
              (fun acc i ->
                acc
                +. hist_count (Printf.sprintf "server.worker.%d.request_ms" i))
              0.0 [ 1; 2; 3; 4 ]
          in
          check (Alcotest.float 0.0)
            "fleet request_ms count = sum of worker histograms" slice_counts
            (hist_count "server.request_ms");
          Unix.kill server_pid Sys.sigterm;
          (match Unix.waitpid [] server_pid with
          | _, Unix.WEXITED 0 -> ()
          | _, Unix.WEXITED n -> Alcotest.failf "server exited %d on SIGTERM" n
          | _, _ -> Alcotest.fail "server stopped");
          check Alcotest.bool "obs socket removed on shutdown" false
            (Sys.file_exists obs_sock);
          (* Four worker domains appended every traced request into one
             sink fd: no line may be torn or interleaved. *)
          let trace_lines =
            List.filter (fun l -> String.trim l <> "") (read_lines trace_path)
          in
          check Alcotest.bool "sink saw the burst" true
            (List.length trace_lines >= 100);
          let workers_seen =
            List.sort_uniq compare
              (List.filter_map
                 (fun line ->
                   match Json.parse line with
                   | j -> (
                       match
                         Option.bind (Json.member "meta" j) (Json.member "worker")
                       with
                       | Some (Json.Num w) -> Some (int_of_float w)
                       | _ -> None)
                   | exception Json.Parse_error _ ->
                       Alcotest.failf "torn JSONL line: %s" line)
                 trace_lines)
          in
          check Alcotest.bool "sink interleaves multiple domains" true
            (List.length workers_seen >= 2);
          List.iter
            (fun line ->
              match Json.parse line with
              | _ -> ()
              | exception Json.Parse_error _ ->
                  Alcotest.failf "torn event line: %s" line)
            (List.filter (fun l -> String.trim l <> "") (read_lines events_path))))

(* Fault injection: freeze one worker with SLEEP and watch /healthz flip
   to 503 within a watchdog interval of the stall budget, then back to
   200 when the worker recovers — with both transitions journaled. *)
let test_healthz_fault_e2e () =
  with_tmp_dir (fun dir ->
      let repo_dir = Filename.concat dir "repo" in
      let sock = Filename.concat dir "h.sock" in
      let obs_sock = Filename.concat dir "hobs.sock" in
      let events_path = Filename.concat dir "events.jsonl" in
      (let repo = Repo.open_dir repo_dir in
       let tree = Models.yule ~rng:(Prng.create 11) ~leaves:20 () in
       ignore (Loader.load_tree ~f:4 repo ~name:"gold" tree);
       Repo.close repo);
      flush stdout;
      flush stderr;
      let server_pid =
        match Unix.fork () with
        | 0 ->
            Crimson_obs.Trace.child_reset ();
            Crimson_obs.Events.child_reset ();
            Crimson_obs.Metrics.reset_all ();
            let repo = Repo.open_dir ~create:false repo_dir in
            let config =
              {
                Engine.default_config with
                Engine.max_sessions = 8;
                (* SLEEP 1500 against a 0.3 s deadline and factor 2: the
                   watchdog flags the worker ~0.6 s in and clears it on
                   the reply, well inside the sleep. stall_after stays
                   long so idle workers never trip it here. *)
                request_timeout = 0.3;
                workers = 2;
                stall_after = 30.0;
                stall_factor = 2.0;
                debug_verbs = true;
                events_out = Some events_path;
                obs_listen = Some (Wire.Unix_path obs_sock);
              }
            in
            Fun.protect
              ~finally:(fun () -> Repo.close repo)
              (fun () -> Server.run ~config repo (Wire.Unix_path sock));
            Unix._exit 0
        | pid -> pid
      in
      wait_for_file sock;
      wait_for_file obs_sock;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill server_pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] server_pid) with Unix.Unix_error _ -> ())
        (fun () ->
          let obs = Wire.Unix_path obs_sock in
          let healthz () =
            match Http_obs.get obs "/healthz" with
            | Ok (status, body) -> (status, body)
            | Error e -> Alcotest.failf "/healthz failed: %s" e
          in
          check Alcotest.int "healthy at boot" 200 (fst (healthz ()));
          flush stdout;
          flush stderr;
          let sleeper =
            match Unix.fork () with
            | 0 ->
                Crimson_obs.Trace.child_reset ();
                Crimson_obs.Events.child_reset ();
                let status =
                  try
                    let c = Client.connect (Wire.Unix_path sock) in
                    if not (Client.ok (Client.request c "SLEEP 1500")) then
                      Unix._exit 3;
                    ignore (Client.request c "QUIT");
                    Client.close c;
                    0
                  with _ -> 2
                in
                Unix._exit status
            | pid -> pid
          in
          (* /healthz runs a watchdog pass per probe, so polling observes
             the 503 as soon as the stall budget (0.6 s) is crossed. *)
          let poll_until want =
            let deadline = Unix.gettimeofday () +. 5.0 in
            let rec go last =
              if fst last = want then last
              else if Unix.gettimeofday () >= deadline then
                Alcotest.failf "healthz never answered %d (last %d)" want
                  (fst last)
              else begin
                ignore (Unix.select [] [] [] 0.05);
                go (healthz ())
              end
            in
            go (healthz ())
          in
          let _, stalled_body = poll_until 503 in
          check Alcotest.bool "503 detail names the frozen verb" true
            (contains "SLEEP" stalled_body);
          let _, _ = poll_until 200 in
          (match Unix.waitpid [] sleeper with
          | _, Unix.WEXITED 0 -> ()
          | _, Unix.WEXITED n -> Alcotest.failf "sleeper exited %d" n
          | _, _ -> Alcotest.fail "sleeper killed");
          Unix.kill server_pid Sys.sigterm;
          (match Unix.waitpid [] server_pid with
          | _, Unix.WEXITED 0 -> ()
          | _, Unix.WEXITED n -> Alcotest.failf "server exited %d on SIGTERM" n
          | _, _ -> Alcotest.fail "server stopped");
          (* Both transitions reached the event journal, in order. *)
          let kinds =
            List.filter_map
              (fun line ->
                if String.trim line = "" then None
                else
                  match Json.member "event" (Json.parse line) with
                  | Some (Json.Str k) -> Some k
                  | _ -> None)
              (read_lines events_path)
          in
          let rec after k = function
            | [] -> []
            | x :: rest -> if x = k then rest else after k rest
          in
          check Alcotest.bool "worker_stalled journaled" true
            (List.mem "worker_stalled" kinds);
          check Alcotest.bool "worker_recovered follows the stall" true
            (List.mem "worker_recovered" (after "worker_stalled" kinds))))

(* ---------------------------- Wire parity --------------------------- *)

(* Replay a fixed script against a deterministic repository and compare
   every reply byte-for-byte with the committed golden transcript
   (test/data/wire_parity.golden). This pins the wire protocol across
   refactors of the dispatch path: success replies for the existing
   verbs must not change shape, field order or formatting.

   Out of scope, by design: HELLO (sanctioned to grow protocol/verb
   advertisement fields), error replies (sanctioned to move to
   structured {code, message} objects), and the clock-dependent
   STATS/METRICS/TOP snapshots. Wall-clock and GC fields that vary run
   to run (elapsed_ms, minor/major words) are normalised to 0 on both
   sides before comparing.

   Regenerate after an intentional protocol change with
     CRIMSON_PARITY_PROMOTE=$PWD/test/data/wire_parity.golden \
       dune exec test/test_server.exe -- test parity *)

let parity_script =
  [
    "USE gold";
    "SEED 42";
    "QUERY info()";
    "QUERY lca(T0, T7)";
    "QUERY distance(T0, T9)";
    "QUERY clade(T1, T2, T3)";
    "QUERY path(T0, T5)";
    "QUERY depth(T3)";
    "QUERY parent(T3)";
    "QUERY children(T3)";
    "QUERY project(T0, T1, T2)";
    "QUERY sample(4)";
    "QUERY sample(3, 1.0)";
    "QUERY frontier(0.5)";
    "QUERY consensus('boot')";
    "EXPLAIN lca(T0, T7)";
    "EXPLAIN consensus('boot')";
    "PROFILE lca(T0, T7)";
    "CONSENSUS boot";
    "CONSENSUS boot 0.8";
    "SUPPORT boot";
    "RFMATRIX boot";
    "COLLSTATS boot";
    "SLOWLOG";
    "SLOWLOG 5";
    "QUIT";
  ]

(* Zero every numeric field whose value is clock- or GC-dependent, so
   the transcript is stable while everything else stays byte-exact. *)
let parity_normalise body =
  let volatile = [ "\"elapsed_ms\":"; "\"ms\":"; "\"minor_words\":"; "\"major_words\":" ] in
  let buf = Buffer.create (String.length body) in
  let n = String.length body in
  let starts_with_at i p =
    i + String.length p <= n && String.sub body i (String.length p) = p
  in
  let is_num_char ch =
    (ch >= '0' && ch <= '9') || ch = '-' || ch = '+' || ch = '.' || ch = 'e' || ch = 'E'
  in
  let i = ref 0 in
  while !i < n do
    match List.find_opt (starts_with_at !i) volatile with
    | Some p ->
        Buffer.add_string buf p;
        Buffer.add_char buf '0';
        i := !i + String.length p;
        while !i < n && is_num_char body.[!i] do incr i done
    | None ->
        Buffer.add_char buf body.[!i];
        incr i
  done;
  Buffer.contents buf

let parity_transcript () =
  let repo = Repo.open_mem () in
  let gold = Models.yule ~rng:(Prng.create 7) ~leaves:40 () in
  ignore (Loader.load_tree ~f:4 repo ~name:"gold" gold);
  let boot = Models.yule ~rng:(Prng.create 9) ~leaves:15 () in
  let taxa = Array.to_list (Tree.leaves boot) |> List.filter_map (Tree.name boot) in
  let c = Collection.create repo ~name:"boot" ~taxa in
  ignore (Collection.ingest c boot);
  ignore (Collection.ingest c (Models.yule ~rng:(Prng.create 10) ~leaves:15 ()));
  let t = Engine.create repo in
  let s = match Engine.open_session t with Ok s -> s | Error _ -> Alcotest.fail "open" in
  let out = Buffer.create 4096 in
  List.iter
    (fun line ->
      let reply = Engine.handle_line t s line in
      Buffer.add_string out ("> " ^ line ^ "\n");
      Buffer.add_string out (parity_normalise (body reply)))
    parity_script;
  Buffer.contents out

(* dune runtest runs with cwd _build/default/test, `dune exec
   test/test_server.exe` from the project root — accept either. *)
let parity_golden_path =
  if Sys.file_exists "data/wire_parity.golden" then "data/wire_parity.golden"
  else "test/data/wire_parity.golden"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_wire_parity () =
  let transcript = parity_transcript () in
  match Sys.getenv_opt "CRIMSON_PARITY_PROMOTE" with
  | Some path ->
      let oc = open_out_bin path in
      output_string oc transcript;
      close_out oc;
      Printf.printf "wrote %d bytes to %s\n%!" (String.length transcript) path
  | None ->
      let golden = read_file parity_golden_path in
      if transcript <> golden then begin
        (* Locate the first divergence for a readable failure. *)
        let n = min (String.length transcript) (String.length golden) in
        let rec first_diff i =
          if i >= n then n
          else if transcript.[i] <> golden.[i] then i
          else first_diff (i + 1)
        in
        let at = first_diff 0 in
        let ctx s =
          let lo = max 0 (at - 80) in
          let hi = min (String.length s) (at + 80) in
          String.sub s lo (hi - lo)
        in
        Alcotest.failf
          "wire replies diverge from golden at byte %d\n--- golden:   …%s…\n--- replayed: …%s…"
          at (ctx golden) (ctx transcript)
      end

(* ---------------------------- Transport ----------------------------- *)

module Conn = Crimson_server.Conn

(* A connection's writing end over a socketpair, plus the reading end. *)
let with_conn_pair f =
  let w, r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock w;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close w with Unix.Unix_error _ -> ());
      try Unix.close r with Unix.Unix_error _ -> ())
    (fun () -> f (Conn.make ~max_line:64 ~meta:() w) r)

(* Drain [c] into a reader that takes at most [chunk] bytes per turn
   and only when the writer has stalled on a full socket: the replies
   must arrive whole and in order. Returns the bytes read and how many
   flushes left bytes behind. *)
let slow_read c r ~chunk =
  let got = Buffer.create (1 lsl 20) and partial = ref 0 in
  let buf = Bytes.create chunk in
  let deadline = Unix.gettimeofday () +. 20.0 in
  while Conn.pending_out c > 0 && Unix.gettimeofday () < deadline do
    check Alcotest.bool "peer alive" true (Conn.flush c);
    if Conn.pending_out c > 0 then begin
      incr partial;
      let n = Unix.read r buf 0 chunk in
      Buffer.add_subbytes got buf 0 n
    end
  done;
  check Alcotest.int "everything written" 0 (Conn.pending_out c);
  (* What the last flush wrote is still in the socket. *)
  Unix.set_nonblock r;
  (try
     while true do
       let n = Unix.read r buf 0 chunk in
       if n = 0 then raise Exit;
       Buffer.add_subbytes got buf 0 n
     done
   with Exit | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  (Buffer.contents got, !partial)

let test_conn_large_reply () =
  with_conn_pair (fun c r ->
      let reply = String.init ((1 lsl 20) + 12_345) (fun i -> Char.chr (i * 7 mod 251)) in
      Conn.enqueue c reply;
      check Alcotest.int "pending" (String.length reply) (Conn.pending_out c);
      let got, partial = slow_read c r ~chunk:1000 in
      check Alcotest.bool "the socket filled up" true (partial > 0);
      check Alcotest.int "length" (String.length reply) (String.length got);
      check Alcotest.bool "intact" true (String.equal reply got))

let test_conn_queue_order () =
  with_conn_pair (fun c r ->
      let replies =
        [ "first\n"; String.make 300_000 'a' ^ "\n"; "third\n"; String.make 70_000 'b' ^ "\n"; "last\n" ]
      in
      List.iter (Conn.enqueue c) replies;
      let got, _ = slow_read c r ~chunk:4096 in
      check Alcotest.bool "in order, whole" true (String.equal (String.concat "" replies) got);
      (* An idle connection that is closing and drained is done. *)
      check Alcotest.bool "open while not closing" true (Conn.settle c);
      c.Conn.closing <- true;
      check Alcotest.bool "closing and drained" false (Conn.settle c))

(* Raw client I/O with a deadline, for exchanges the blocking clients
   cannot express (pipelining, waiting for the server's close). *)
let connect_raw path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* Everything the server sends until it closes, read [chunk] bytes at a
   time; fails if it does not close within the deadline. *)
let read_to_eof ?(chunk = 65536) ?(pause = 0.0) fd =
  let got = Buffer.create 4096 and buf = Bytes.create chunk in
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "server did not close the connection"
    else
      match Unix.select [ fd ] [] [] 0.5 with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd buf 0 chunk with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes got buf 0 n;
              if pause > 0.0 then Unix.sleepf pause;
              go ())
  in
  go ();
  Unix.close fd;
  Buffer.contents got

(* Split a stream of HTTP responses on their Content-Length framing. *)
let split_responses s =
  let rec go from acc =
    if from >= String.length s then List.rev acc
    else
      let rec head_end i =
        if String.sub s i 4 = "\r\n\r\n" then i else head_end (i + 1)
      in
      let he = head_end from in
      let head = String.sub s from (he - from) in
      let len =
        List.find_map
          (fun l ->
            match String.index_opt l ':' with
            | Some i when String.lowercase_ascii (String.sub l 0 i) = "content-length" ->
                int_of_string_opt (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
            | _ -> None)
          (String.split_on_char '\n' head)
        |> Option.get
      in
      go (he + 4 + len) ((head, String.sub s (he + 4) len) :: acc)
  in
  go 0 []

(* Write-through replies through both server loops (1 worker and a
   2-worker coordinator), with one admission slot: a connection that
   asks to close is dropped as soon as its replies drain, so the next
   client is admitted; pipelined replies, together far larger than the
   socket buffer and read slowly, arrive whole and in order. *)
let test_write_through_e2e () =
  with_tmp_dir (fun dir ->
      let repo_dir = Filename.concat dir "repo" in
      (let repo = Repo.open_dir repo_dir in
       let big = Models.yule ~rng:(Prng.create 21) ~leaves:2000 () in
       let small = Models.yule ~rng:(Prng.create 22) ~leaves:20 () in
       ignore (Loader.load_tree ~f:8 repo ~name:"gold" big);
       ignore (Loader.load_tree ~f:4 repo ~name:"silver" small);
       Repo.close repo);
      List.iter
        (fun workers ->
          let sock = Filename.concat dir (Printf.sprintf "w%d.sock" workers) in
          let hsock = Filename.concat dir (Printf.sprintf "h%d.sock" workers) in
          flush stdout;
          flush stderr;
          let server_pid =
            match Unix.fork () with
            | 0 ->
                Crimson_obs.Trace.child_reset ();
                Crimson_obs.Events.child_reset ();
                let repo = Repo.open_dir ~create:false repo_dir in
                let config =
                  {
                    Engine.default_config with
                    Engine.max_sessions = 1;
                    request_timeout = 10.0;
                    workers;
                    http_listen = Some (Wire.Unix_path hsock);
                  }
                in
                Fun.protect
                  ~finally:(fun () -> Repo.close repo)
                  (fun () -> Server.run ~config repo (Wire.Unix_path sock));
                Unix._exit 0
            | pid -> pid
          in
          let deadline = Unix.gettimeofday () +. 15.0 in
          while
            (not (Sys.file_exists sock && Sys.file_exists hsock))
            && Unix.gettimeofday () < deadline
          do
            ignore (Unix.select [] [] [] 0.02)
          done;
          Fun.protect
            ~finally:(fun () ->
              (try Unix.kill server_pid Sys.sigkill with Unix.Unix_error _ -> ());
              try ignore (Unix.waitpid [] server_pid) with Unix.Unix_error _ -> ())
            (fun () ->
              let label s = Printf.sprintf "%d worker(s): %s" workers s in
              let wire_lines s =
                String.split_on_char '\n' s |> List.filter (fun l -> l <> "")
                |> List.map Json.parse
              in
              (* The one slot is taken: a second client is refused. *)
              let holder = connect_raw sock in
              write_all holder "HELLO\n";
              let over = read_to_eof (connect_raw sock) in
              check Alcotest.bool (label "over-limit refused") false
                (Client.ok (Json.parse (String.trim over)));
              (* QUIT pipelined behind other requests: replies in order,
                 then the server closes and frees the slot. *)
              write_all holder "USE gold\nQUERY lca(T0, T1)\nQUIT\nHELLO\n";
              let replies = wire_lines (read_to_eof holder) in
              check Alcotest.int (label "hello, use, query, quit") 4 (List.length replies);
              check Alcotest.bool (label "all ok") true (List.for_all Client.ok replies);
              check Alcotest.bool (label "use reply second") true
                (Json.member "tree" (List.nth replies 1) = Some (Json.Str "gold"));
              (* Pipelined HTTP: ~1 MB of overviews interleaved with small
                 replies, read slowly; the last asks to close. *)
              let paths =
                List.init 36 (fun i ->
                    match i mod 3 with
                    | 0 -> "/v1/trees/gold/overview?depth=1"
                    | 1 -> "/v1/trees/silver"
                    | _ -> "/v1/trees/gold/overview?depth=2")
              in
              let get ?(close = false) p =
                Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n%s\r\n" p
                  (if close then "Connection: close\r\n" else "")
              in
              let fd = connect_raw hsock in
              write_all fd
                (String.concat ""
                   (List.mapi (fun i p -> get ~close:(i = List.length paths - 1) p) paths));
              let stream = read_to_eof ~chunk:8192 ~pause:0.0005 fd in
              let responses = split_responses stream in
              check Alcotest.int (label "every pipelined reply") (List.length paths)
                (List.length responses);
              check Alcotest.bool (label "more than 1 MB") true (String.length stream > 1 lsl 20);
              (* Each path again on its own connection (each admitted only
                 because the previous one was dropped): same bytes. *)
              let single p =
                let fd = connect_raw hsock in
                write_all fd (get ~close:true p);
                match split_responses (read_to_eof fd) with
                | [ (head, body) ] ->
                    check Alcotest.bool (label "200") true
                      (String.length head > 12 && String.sub head 0 12 = "HTTP/1.1 200");
                    body
                | _ -> Alcotest.fail (label "expected one response")
              in
              let expected = List.map single [ List.nth paths 0; List.nth paths 1; List.nth paths 2 ] in
              List.iteri
                (fun i (_, body) ->
                  if not (String.equal body (List.nth expected (i mod 3))) then
                    Alcotest.failf "%s: pipelined reply %d differs" (label "order") i)
                responses;
              (* And the wire side is admitted again. *)
              let fd = connect_raw sock in
              write_all fd "HELLO\nQUIT\n";
              check Alcotest.bool (label "re-admitted") true
                (List.for_all Client.ok (wire_lines (read_to_eof fd)))))
        [ 1; 2 ])

let () =
  (* The e2e tests fork servers and clients and write into sockets the
     peer may already have closed (e.g. an admission rejection); without
     this the test runner dies silently of SIGPIPE instead of seeing the
     EPIPE the client maps to Connection_error. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "crimson_server"
    [
      ( "wire",
        [
          Alcotest.test_case "parse_addr" `Quick test_parse_addr;
          Alcotest.test_case "parse_command" `Quick test_parse_command;
          Alcotest.test_case "line buffer framing" `Quick test_line_buffer;
          Alcotest.test_case "any chunking frames alike" `Quick
            test_line_buffer_chunking;
          Alcotest.test_case "trickled max-size line" `Quick
            test_line_buffer_trickled;
        ] );
      ( "engine",
        [
          Alcotest.test_case "sessions and admission" `Quick test_engine_sessions;
          Alcotest.test_case "metrics and recording" `Quick test_engine_metrics;
          Alcotest.test_case "explain, profile and top" `Quick test_explain_profile_top;
          Alcotest.test_case "over-budget profile line" `Quick
            test_profile_over_budget_line;
          Alcotest.test_case "request timeout" `Quick test_request_timeout;
          Alcotest.test_case "collection verbs" `Quick test_collection_verbs;
          Alcotest.test_case "auto workers" `Quick test_auto_workers;
          Alcotest.test_case "top comparator is total" `Quick
            test_compare_rows_total;
          Alcotest.test_case "sleep verb gated" `Quick test_sleep_verb_gated;
        ] );
      ( "parity",
        [ Alcotest.test_case "wire replay vs golden" `Quick test_wire_parity ] );
      ( "repo",
        [
          Alcotest.test_case "open_dir typed errors" `Quick test_open_dir_errors;
          Alcotest.test_case "read-only mode" `Quick test_read_only_mode;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "concurrent smoke" `Slow test_e2e_smoke;
          Alcotest.test_case "multi-worker fleet" `Slow test_multiworker_e2e;
          Alcotest.test_case "observability fleet scrape" `Slow
            test_obs_fleet_e2e;
          Alcotest.test_case "healthz fault injection" `Slow
            test_healthz_fault_e2e;
          Alcotest.test_case "write-through replies" `Slow test_write_through_e2e;
        ] );
      ( "transport",
        [
          Alcotest.test_case "1 MB reply to a slow reader" `Quick
            test_conn_large_reply;
          Alcotest.test_case "queued replies keep order" `Quick
            test_conn_queue_order;
        ] );
    ]
