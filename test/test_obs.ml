(* Unit tests for the telemetry library: counter/gauge/histogram
   semantics, percentile summaries on known distributions, span nesting
   and the text/JSON exporters (including a JSON round-trip). *)

module Metrics = Crimson_obs.Metrics
module Span = Crimson_obs.Span
module Json = Crimson_obs.Json
module Fleet = Crimson_obs.Fleet
module Events = Crimson_obs.Events

let check = Alcotest.check

(* ------------------------------ Counters --------------------------- *)

let test_counter_semantics () =
  let c = Metrics.counter "test.counter.basic" in
  check Alcotest.int "starts at 0" 0 (Metrics.Counter.value c);
  Metrics.Counter.incr c;
  Metrics.Counter.incr c;
  Metrics.Counter.add c 40;
  check Alcotest.int "incr + add" 42 (Metrics.Counter.value c);
  Metrics.Counter.add c (-2);
  check Alcotest.int "negative add" 40 (Metrics.Counter.value c);
  (* Get-or-create returns the same instance. *)
  let c' = Metrics.counter "test.counter.basic" in
  Metrics.Counter.incr c';
  check Alcotest.int "same instance" 41 (Metrics.Counter.value c);
  check Alcotest.int "counter_value helper" 41 (Metrics.counter_value "test.counter.basic");
  check Alcotest.int "missing counter reads 0" 0 (Metrics.counter_value "test.counter.none");
  (* Local counters stay out of the registry. *)
  let local = Metrics.Counter.make "test.counter.local" in
  Metrics.Counter.incr local;
  check Alcotest.bool "local not registered" true
    (Metrics.find "test.counter.local" = None)

let test_kind_collision () =
  ignore (Metrics.counter "test.collision");
  match Metrics.histogram "test.collision" with
  | _ -> Alcotest.fail "expected Invalid_argument on kind collision"
  | exception Invalid_argument _ -> ()

let test_gauge_semantics () =
  let g = Metrics.gauge "test.gauge.basic" in
  check (Alcotest.float 0.0) "starts at 0" 0.0 (Metrics.Gauge.value g);
  Metrics.Gauge.set g 2.5;
  Metrics.Gauge.add g 0.5;
  check (Alcotest.float 1e-9) "set + add" 3.0 (Metrics.Gauge.value g)

(* ----------------------------- Histograms -------------------------- *)

let test_histogram_basic () =
  let h = Metrics.histogram "test.hist.basic" in
  check Alcotest.int "empty count" 0 (Metrics.Histogram.count h);
  check (Alcotest.float 0.0) "empty mean" 0.0 (Metrics.Histogram.mean h);
  check (Alcotest.float 0.0) "empty p50" 0.0 (Metrics.Histogram.percentile h 50.0);
  List.iter (Metrics.Histogram.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  check Alcotest.int "count" 4 (Metrics.Histogram.count h);
  check (Alcotest.float 1e-9) "sum" 10.0 (Metrics.Histogram.sum h);
  check (Alcotest.float 1e-9) "mean" 2.5 (Metrics.Histogram.mean h);
  check (Alcotest.float 1e-9) "min exact" 1.0 (Metrics.Histogram.min h);
  check (Alcotest.float 1e-9) "max exact" 4.0 (Metrics.Histogram.max h);
  (* Negative and NaN samples clamp to 0 rather than corrupting state. *)
  Metrics.Histogram.observe h (-5.0);
  Metrics.Histogram.observe h Float.nan;
  check Alcotest.int "clamped count" 6 (Metrics.Histogram.count h);
  check (Alcotest.float 1e-9) "clamped min" 0.0 (Metrics.Histogram.min h);
  match Metrics.Histogram.percentile h 101.0 with
  | _ -> Alcotest.fail "expected Invalid_argument for p > 100"
  | exception Invalid_argument _ -> ()

(* An empty histogram has no meaningful statistics; every summary
   accessor is documented to return 0.0 rather than raise or produce
   NaN, so exporters can run against a freshly-reset registry. *)
let test_histogram_empty () =
  let h = Metrics.histogram "test.hist.empty" in
  check Alcotest.int "count" 0 (Metrics.Histogram.count h);
  check (Alcotest.float 0.0) "sum" 0.0 (Metrics.Histogram.sum h);
  check (Alcotest.float 0.0) "mean" 0.0 (Metrics.Histogram.mean h);
  check (Alcotest.float 0.0) "min" 0.0 (Metrics.Histogram.min h);
  check (Alcotest.float 0.0) "max" 0.0 (Metrics.Histogram.max h);
  List.iter
    (fun p ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "p%g" p)
        0.0
        (Metrics.Histogram.percentile h p))
    [ 0.0; 50.0; 99.0; 100.0 ];
  (* Reset brings a used histogram back to the same empty behaviour. *)
  Metrics.Histogram.observe h 9.0;
  Metrics.reset_all ();
  check (Alcotest.float 0.0) "mean after reset" 0.0 (Metrics.Histogram.mean h);
  check (Alcotest.float 0.0) "p99 after reset" 0.0
    (Metrics.Histogram.percentile h 99.0)

(* Log-scale buckets bound the relative error; check the summary
   percentiles of known distributions within that bound. *)
let test_histogram_percentiles () =
  let h = Metrics.histogram "test.hist.uniform" in
  for i = 1 to 1000 do
    Metrics.Histogram.observe h (float_of_int i)
  done;
  let within p expected tolerance =
    let v = Metrics.Histogram.percentile h p in
    if Float.abs (v -. expected) > tolerance *. expected then
      Alcotest.failf "p%.0f = %.1f, expected %.1f ± %.0f%%" p v expected
        (100.0 *. tolerance)
  in
  within 50.0 500.0 0.25;
  within 90.0 900.0 0.25;
  within 99.0 990.0 0.25;
  check (Alcotest.float 1e-9) "p0 is the min" 1.0 (Metrics.Histogram.percentile h 0.0);
  check (Alcotest.float 1e-9) "p100 is the max" 1000.0
    (Metrics.Histogram.percentile h 100.0);
  (* A constant distribution: every percentile is (close to) the value,
     and clamping to observed min/max makes it exact. *)
  let k = Metrics.histogram "test.hist.constant" in
  for _ = 1 to 100 do
    Metrics.Histogram.observe k 7.0
  done;
  check (Alcotest.float 1e-9) "constant p50" 7.0 (Metrics.Histogram.percentile k 50.0);
  check (Alcotest.float 1e-9) "constant p99" 7.0 (Metrics.Histogram.percentile k 99.0)

(* ------------------------------- Spans ----------------------------- *)

let test_span_nesting () =
  check Alcotest.int "no open spans" 0 (Span.depth ());
  let result =
    Span.with_ ~name:"test.span.outer" (fun () ->
        check Alcotest.int "outer open" 1 (Span.depth ());
        check (Alcotest.option Alcotest.string) "outer current"
          (Some "test.span.outer") (Span.current ());
        let inner =
          Span.with_ ~name:"test.span.inner" (fun () ->
              check Alcotest.int "inner open" 2 (Span.depth ());
              check (Alcotest.option Alcotest.string) "inner current"
                (Some "test.span.inner") (Span.current ());
              17)
        in
        check Alcotest.int "inner closed" 1 (Span.depth ());
        inner + 1)
  in
  check Alcotest.int "value threads through" 18 result;
  check Alcotest.int "all closed" 0 (Span.depth ());
  (match Metrics.find "test.span.outer" with
  | Some (Metrics.Histogram h) -> check Alcotest.int "outer recorded" 1 (Metrics.Histogram.count h)
  | _ -> Alcotest.fail "outer span histogram missing");
  match Metrics.find "test.span.inner" with
  | Some (Metrics.Histogram h) -> check Alcotest.int "inner recorded" 1 (Metrics.Histogram.count h)
  | _ -> Alcotest.fail "inner span histogram missing"

let test_span_records_on_raise () =
  (match Span.with_ ~name:"test.span.raising" (fun () -> failwith "boom") with
  | () -> Alcotest.fail "expected the exception to propagate"
  | exception Failure _ -> ());
  check Alcotest.int "stack unwound" 0 (Span.depth ());
  match Metrics.find "test.span.raising" with
  | Some (Metrics.Histogram h) ->
      check Alcotest.int "elapsed recorded despite raise" 1 (Metrics.Histogram.count h)
  | _ -> Alcotest.fail "raising span histogram missing"

let test_span_timed_and_record () =
  let (v, ms) = Span.timed ~name:"test.span.timed" (fun () -> 5) in
  check Alcotest.int "timed value" 5 v;
  check Alcotest.bool "elapsed non-negative" true (ms >= 0.0);
  let h = Metrics.histogram "test.span.fast" in
  let v = Span.record h (fun () -> 9) in
  check Alcotest.int "record value" 9 v;
  check Alcotest.int "record observed" 1 (Metrics.Histogram.count h)

(* ------------------------------ Exporters -------------------------- *)

let test_text_exporter () =
  ignore (Metrics.counter "test.export.counter");
  Metrics.Counter.add (Metrics.counter "test.export.counter") 3;
  Metrics.Histogram.observe (Metrics.histogram "test.export.hist") 1.5;
  let text = Metrics.to_text () in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
    scan 0
  in
  check Alcotest.bool "counter row present" true (contains "test.export.counter" text);
  check Alcotest.bool "histogram row present" true (contains "test.export.hist" text);
  check Alcotest.bool "percentile columns present" true (contains "p99" text)

let test_json_round_trip () =
  Metrics.Counter.add (Metrics.counter "test.json.counter") 11;
  Metrics.Gauge.set (Metrics.gauge "test.json.gauge") 2.25;
  let h = Metrics.histogram "test.json.hist" in
  List.iter (Metrics.Histogram.observe h) [ 0.5; 1.0; 8.0 ];
  let json = Metrics.to_json () in
  let round_tripped = Json.parse (Json.to_string json) in
  check Alcotest.bool "snapshot survives render/parse" true (Json.equal json round_tripped);
  (* And the decoded values are the ones we put in. *)
  (match Json.member "counters" round_tripped with
  | Some counters -> (
      match Json.member "test.json.counter" counters with
      | Some (Json.Num v) -> check (Alcotest.float 1e-9) "counter value" 11.0 v
      | _ -> Alcotest.fail "counter missing from JSON")
  | None -> Alcotest.fail "counters object missing");
  match Json.member "histograms" round_tripped with
  | Some hists -> (
      match Json.member "test.json.hist" hists with
      | Some hist -> (
          match Json.member "count" hist with
          | Some (Json.Num n) -> check (Alcotest.float 0.0) "histogram count" 3.0 n
          | _ -> Alcotest.fail "count missing")
      | None -> Alcotest.fail "histogram missing from JSON")
  | None -> Alcotest.fail "histograms object missing"

let test_json_parser_details () =
  let cases =
    [
      ({|{"a":1,"b":[true,false,null],"c":"x\ny"}|} : string);
      {|[1.5,-2,3e2,""]|};
      {|"plain"|};
      {|{}|};
      {|[]|};
    ]
  in
  List.iter
    (fun s ->
      let v = Json.parse s in
      let v' = Json.parse (Json.to_string v) in
      check Alcotest.bool (Printf.sprintf "round-trip %s" s) true (Json.equal v v'))
    cases;
  (match Json.parse "{\"a\":1} trailing" with
  | _ -> Alcotest.fail "expected trailing-garbage failure"
  | exception Json.Parse_error _ -> ());
  match Json.parse "{broken" with
  | _ -> Alcotest.fail "expected parse failure"
  | exception Json.Parse_error _ -> ()

(* The encoder's contract is byte identity with the Printf-based
   renderer it replaced: wire replies, HTTP bodies, ETag-covered
   resources and the golden parity file all hold its bytes. This is
   that renderer, verbatim, kept as the oracle. *)
module Printf_oracle = struct
  let escape_to buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let number_to_string x =
    if Float.is_nan x || Float.abs x = Float.infinity then "null"
    else if Float.is_integer x && Float.abs x <= 1e15 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%.17g" x

  let to_string v =
    let buf = Buffer.create 256 in
    let rec go = function
      | Json.Null -> Buffer.add_string buf "null"
      | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Json.Num x -> Buffer.add_string buf (number_to_string x)
      | Json.Str s -> escape_to buf s
      | Json.List items ->
          Buffer.add_char buf '[';
          List.iteri
            (fun i item ->
              if i > 0 then Buffer.add_char buf ',';
              go item)
            items;
          Buffer.add_char buf ']'
      | Json.Obj fields ->
          Buffer.add_char buf '{';
          List.iteri
            (fun i (k, item) ->
              if i > 0 then Buffer.add_char buf ',';
              escape_to buf k;
              Buffer.add_char buf ':';
              go item)
            fields;
          Buffer.add_char buf '}'
    in
    go v;
    Buffer.contents buf
end

let check_encodes_like_oracle label v =
  check Alcotest.string label (Printf_oracle.to_string v) (Json.to_string v);
  let buf = Buffer.create 8 in
  Buffer.add_string buf "<";
  Json.to_buffer buf v;
  check Alcotest.string (label ^ " (to_buffer appends)")
    ("<" ^ Printf_oracle.to_string v)
    (Buffer.contents buf)

let test_json_encoder_edges () =
  let nums =
    [
      0.;
      -0.;
      1.;
      -1.;
      1e15;
      -1e15;
      1e15 +. 1.;
      -.(1e15 +. 1.);
      999_999_999_999_999.;
      1e16;
      float_of_int max_int;
      float_of_int min_int;
      2. ** 62.;
      -.(2. ** 63.);
      1e300;
      1e-300;
      Float.min_float;
      Float.min_float /. 2.;
      5e-324;
      -5e-324;
      Float.max_float;
      -.Float.max_float;
      0.1;
      -0.5;
      1.5;
      123456.789;
      Float.epsilon;
      Float.pred 1e15;
      Float.succ 1e15;
      Float.nan;
      -.Float.nan;
      Float.infinity;
      Float.neg_infinity;
    ]
  in
  List.iter
    (fun x -> check_encodes_like_oracle (Printf.sprintf "number %h" x) (Json.Num x))
    nums;
  List.iter
    (fun x -> check Alcotest.string "non-finite is null" "null" (Json.to_string (Json.Num x)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  check Alcotest.string "-0 keeps its sign" "-0" (Json.to_string (Json.Num (-0.)));
  let all_bytes = String.init 256 Char.chr in
  List.iter
    (fun s -> check_encodes_like_oracle (Printf.sprintf "string %S" s) (Json.Str s))
    [
      "";
      "plain";
      "\"";
      "\\";
      "a\"b\\c";
      "\n\r\t\b\012\000\031\127";
      "tail\001";
      "\001head";
      "caf\xc3\xa9 \xff\xfe";
      all_bytes;
    ];
  List.iter
    (fun v -> check_encodes_like_oracle "container" v)
    [
      Json.List [];
      Json.Obj [];
      Json.List [ Json.List []; Json.Obj [] ];
      Json.Obj [ ("", Json.Obj []); ("k\"\n", Json.List [ Json.Null; Json.Bool true ]) ];
      Json.Obj [ (all_bytes, Json.Str all_bytes) ];
    ]

let json_gen =
  let open QCheck.Gen in
  let number =
    frequency
      [
        (3, map float_of_int (int_range (-1000) 1000));
        (2, map float_of_int int);
        (2, float);
        (* Any bit pattern: subnormals, NaN payloads, both zeros. *)
        ( 2,
          map2
            (fun hi lo ->
              Int64.float_of_bits
                (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)))
            (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF) );
        ( 1,
          oneofl
            [
              0.; -0.; 1e15; -1e15; 1e15 +. 1.; Float.nan; Float.infinity;
              Float.neg_infinity; 5e-324;
            ] );
      ]
  in
  let str = string_size ~gen:char (int_bound 12) in
  sized
  @@ fix (fun self n ->
         let leaf =
           frequency
             [
               (1, return Json.Null);
               (1, map (fun b -> Json.Bool b) bool);
               (4, map (fun x -> Json.Num x) number);
               (3, map (fun s -> Json.Str s) str);
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (3, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_bound 5) (self (n / 3))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 5) (pair str (self (n / 3)))) );
             ])

let test_json_encoder_property () =
  let cell =
    QCheck.Test.make ~count:2000 ~name:"encoder = Printf oracle"
      (QCheck.make ~print:Printf_oracle.to_string json_gen)
      (fun v -> String.equal (Json.to_string v) (Printf_oracle.to_string v))
  in
  QCheck_alcotest.to_alcotest cell |> fun (_, _, f) -> f ()

(* Worker domains encode replies concurrently: with no shared scratch
   state, each domain's output matches the oracle. *)
let test_json_encoder_domains () =
  let values = QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:300 json_gen in
  let encode_all () = List.map Json.to_string values in
  let d = Domain.spawn encode_all in
  let here = encode_all () in
  let there = Domain.join d in
  let want = List.map Printf_oracle.to_string values in
  check (Alcotest.list Alcotest.string) "this domain" want here;
  check (Alcotest.list Alcotest.string) "other domain" want there

(* Trace records travel as one JSON line each; the parser must survive
   the values traces actually carry — escaped query text, deeply nested
   child arrays, and large/precise floats — without loss. *)
let test_json_trace_payloads () =
  let round_trip label v =
    let v' = Json.parse (Json.to_string v) in
    check Alcotest.bool label true (Json.equal v v')
  in
  (* Escapes: quotes, backslashes, newlines, tabs and control bytes in
     span attributes (e.g. the raw request line). *)
  round_trip "escaped strings"
    (Json.Obj
       [
         ("line", Json.Str "QUERY lca(\"A\", \"B\")\\n\ttrailing");
         ("ctrl", Json.Str "\x01\x1f bell\x07");
         ("unicode-ish", Json.Str "caf\xc3\xa9");
       ]);
  (match Json.parse {|"aA\t\"b\\"|} with
  | Json.Str s -> check Alcotest.string "escape decoding" "aA\t\"b\\" s
  | _ -> Alcotest.fail "expected a string");
  (* Nested arrays: a span tree several levels deep. *)
  let rec deep n =
    if n = 0 then Json.List [ Json.Num 0.0 ]
    else Json.List [ Json.Num (float_of_int n); deep (n - 1) ]
  in
  round_trip "nested arrays" (deep 24);
  (* Large and precise floats: timestamps in ms since epoch and
     sub-microsecond elapsed times. *)
  round_trip "large floats"
    (Json.Obj
       [
         ("started_at", Json.Num 1770000000.123456);
         ("elapsed_ms", Json.Num 0.000244140625);
         ("big", Json.Num 9.007199254740991e15);
         ("tiny", Json.Num 5e-324);
         ("negative", Json.Num (-1234567.875));
       ]);
  match Json.parse "1770000000.123456" with
  | Json.Num v ->
      check (Alcotest.float 1e-6) "float precision survives" 1770000000.123456 v
  | _ -> Alcotest.fail "expected a number"

(* The Prometheus exporter: every metric appears under a crimson_
   prefix with a TYPE line, and every sample line is "name value" or
   "name{quantile=...} value" with a parseable float — the contract the
   smoke test's line-oriented parser enforces end to end. *)
let test_prometheus_exporter () =
  Metrics.Counter.add (Metrics.counter "test.prom.counter") 7;
  Metrics.Gauge.set (Metrics.gauge "test.prom-gauge") 2.5;
  let h = Metrics.histogram "test.prom.hist" in
  List.iter (Metrics.Histogram.observe h) [ 1.0; 2.0; 4.0 ];
  let text = Metrics.to_prometheus () in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  check Alcotest.bool "non-empty" true (lines <> []);
  let sample_lines = List.filter (fun l -> not (String.length l > 0 && l.[0] = '#')) lines in
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "sample line without value: %s" line
      | Some i -> (
          let name = String.sub line 0 i in
          let value = String.sub line (i + 1) (String.length line - i - 1) in
          check Alcotest.bool
            (Printf.sprintf "crimson_ prefix: %s" line)
            true
            (String.length name > 8 && String.sub name 0 8 = "crimson_");
          match float_of_string_opt value with
          | Some _ -> ()
          | None -> Alcotest.failf "unparseable value in %s" line))
    sample_lines;
  let has l = List.mem l lines in
  check Alcotest.bool "counter TYPE" true (has "# TYPE crimson_test_prom_counter counter");
  check Alcotest.bool "counter sample" true (has "crimson_test_prom_counter 7");
  (* Dots and dashes both fold to underscores. *)
  check Alcotest.bool "gauge name mangled" true (has "crimson_test_prom_gauge 2.5");
  check Alcotest.bool "histogram TYPE" true
    (has "# TYPE crimson_test_prom_hist histogram");
  check Alcotest.bool "histogram count" true (has "crimson_test_prom_hist_count 3");
  check Alcotest.bool "histogram sum" true (has "crimson_test_prom_hist_sum 7");
  check Alcotest.bool "+Inf bucket" true
    (has {|crimson_test_prom_hist_bucket{le="+Inf"} 3|});
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
    scan 0
  in
  check Alcotest.bool "finite le bucket present" true
    (List.exists (contains {|crimson_test_prom_hist_bucket{le="|}) lines);
  check Alcotest.bool "summary family TYPE" true
    (has "# TYPE crimson_test_prom_hist_summary summary");
  check Alcotest.bool "quantile label present" true
    (List.exists (contains {|crimson_test_prom_hist_summary{quantile="0.99"}|}) lines)

(* Cumulative bucket exposition: le bounds ascend, counts are cumulative
   and monotone, and the last finite bucket's count equals the total. *)
let test_prometheus_buckets () =
  let h = Metrics.histogram "test.prom.buckets" in
  List.iter (Metrics.Histogram.observe h) [ 0.5; 0.5; 5.0; 50.0; 50.0; 50.0 ];
  let buckets = Metrics.Histogram.cumulative_buckets h in
  check Alcotest.int "three non-empty buckets" 3 (List.length buckets);
  let les = List.map fst buckets and cums = List.map snd buckets in
  check (Alcotest.list Alcotest.int) "cumulative counts" [ 2; 3; 6 ] cums;
  check Alcotest.bool "ascending bounds" true (List.sort compare les = les);
  List.iter2
    (fun le cum ->
      let below =
        List.length (List.filter (fun v -> v <= le) [ 0.5; 0.5; 5.0; 50.0; 50.0; 50.0 ])
      in
      check Alcotest.int (Printf.sprintf "cum at le=%g" le) below cum)
    les cums;
  check (Alcotest.list (Alcotest.pair (Alcotest.float 0.0) Alcotest.int))
    "empty histogram has no buckets" []
    (Metrics.Histogram.cumulative_buckets (Metrics.histogram "test.prom.empty"))

(* Name mangling and HELP/label escaping. *)
let test_prometheus_escaping () =
  check Alcotest.string "name mangling"
    "crimson_storage_pager_read_ms"
    (Metrics.prometheus_name "storage.pager/read-ms");
  check Alcotest.string "help escaping" {|a\\b\nc "quoted"|}
    (Metrics.prometheus_escape_help "a\\b\nc \"quoted\"");
  check Alcotest.string "label escaping" {|a\\b\nc \"quoted\"|}
    (Metrics.prometheus_escape_label "a\\b\nc \"quoted\"");
  Metrics.Counter.incr (Metrics.counter "test.prom.helped");
  Metrics.set_help "test.prom.helped" "line one\nline two \\ done";
  let text = Metrics.to_prometheus () in
  let lines = String.split_on_char '\n' text in
  check Alcotest.bool "HELP line escaped" true
    (List.mem {|# HELP crimson_test_prom_helped line one\nline two \\ done|} lines);
  (* The embedded newline must not have split the HELP across lines:
     nothing in the output starts with the unescaped second half. *)
  check Alcotest.bool "no raw newline leaked" true
    (not (List.exists (fun l -> l = "line two \\ done") lines))

let test_reset_all () =
  let c = Metrics.counter "test.reset.counter" in
  Metrics.Counter.add c 5;
  let h = Metrics.histogram "test.reset.hist" in
  Metrics.Histogram.observe h 3.0;
  Metrics.reset_all ();
  check Alcotest.int "counter zeroed" 0 (Metrics.Counter.value c);
  check Alcotest.int "histogram emptied" 0 (Metrics.Histogram.count h);
  check Alcotest.bool "registration survives" true
    (Metrics.find "test.reset.counter" <> None)

(* ------------------------------ Fleet ------------------------------ *)

(* True percentile over the raw sample stream, same nearest-rank +
   interpolation convention is irrelevant here: the histogram estimate
   only promises to land within one log-scale bucket, so the reference
   just sorts and indexes. *)
let exact_percentile samples p =
  match List.sort compare samples with
  | [] -> 0.0
  | sorted ->
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      let idx = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
      arr.(max 0 (min (n - 1) idx))

let test_fleet_merge_empty () =
  let m = Fleet.merge_hist Fleet.empty_hist Fleet.empty_hist in
  check Alcotest.int "empty+empty count" 0 (Fleet.hist_count m);
  check (Alcotest.float 0.0) "empty+empty p99" 0.0 (Fleet.percentile m 99.0);
  check (Alcotest.float 0.0) "empty+empty min sanitized" 0.0 (Fleet.hist_min m);
  let one = Fleet.hist_of_samples [ 3.5 ] in
  let m1 = Fleet.merge_hist Fleet.empty_hist one in
  let m2 = Fleet.merge_hist one Fleet.empty_hist in
  check Alcotest.int "empty+one count" 1 (Fleet.hist_count m1);
  check (Alcotest.float 1e-9) "empty+one min" 3.5 (Fleet.hist_min m1);
  check (Alcotest.float 1e-9) "empty+one max" 3.5 (Fleet.hist_max m1);
  check (Alcotest.float 1e-9) "empty+one p50 clamps to sample" 3.5
    (Fleet.percentile m1 50.0);
  check Alcotest.bool "merge commutes on empties" true (m1 = m2)

let test_fleet_merge_disjoint_ranges () =
  (* Two populated histograms whose buckets don't overlap at all: the
     merge must keep both populations, not lose or double either. *)
  let lo = Fleet.hist_of_samples [ 0.001; 0.002; 0.004 ] in
  let hi = Fleet.hist_of_samples [ 500.0; 900.0 ] in
  let m = Fleet.merge_hist lo hi in
  check Alcotest.int "count sums" 5 (Fleet.hist_count m);
  check (Alcotest.float 1e-9) "sum sums"
    (Fleet.hist_sum lo +. Fleet.hist_sum hi)
    (Fleet.hist_sum m);
  check (Alcotest.float 1e-9) "min from lo" (Fleet.hist_min lo) (Fleet.hist_min m);
  check (Alcotest.float 1e-9) "max from hi" (Fleet.hist_max hi) (Fleet.hist_max m);
  check Alcotest.bool "p20 in the low population" true
    (Fleet.percentile m 20.0 < 0.01);
  check Alcotest.bool "p99 in the high population" true
    (Fleet.percentile m 99.0 > 400.0);
  (* Overlapping buckets sum their counts: total bucket mass matches. *)
  let mass h =
    List.fold_left (fun a (_, c) -> a + c) 0 h.Fleet.h_buckets
  in
  let both = Fleet.merge_hist lo lo in
  check Alcotest.int "overlapping buckets sum" (2 * mass lo) (mass both);
  check Alcotest.int "overlapping count" 6 (Fleet.hist_count both)

let test_fleet_merge_property () =
  (* merge a b must observe exactly count a + count b samples, and its
     p50/p99 must land within one log-scale bucket (relative width
     2^0.25) of the same percentile over the union sample stream. *)
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 200) (float_range 1e-5 1e4))
        (list_size (int_range 0 200) (float_range 1e-5 1e4)))
  in
  let prop (xs, ys) =
    let a = Fleet.hist_of_samples xs and b = Fleet.hist_of_samples ys in
    let m = Fleet.merge_hist a b in
    let union = xs @ ys in
    if Fleet.hist_count m <> List.length union then false
    else if union = [] then Fleet.percentile m 99.0 = 0.0
    else
      let width = Float.pow 2.0 0.25 in
      List.for_all
        (fun p ->
          let est = Fleet.percentile m p in
          let exact = exact_percentile union p in
          est <= (exact *. width) +. 1e-9 && est >= (exact /. width) -. 1e-9)
        [ 50.0; 99.0 ]
  in
  let cell =
    QCheck.Test.make ~count:200 ~name:"fleet merge vs union stream"
      (QCheck.make gen) prop
  in
  QCheck_alcotest.to_alcotest cell |> fun (_, _, f) -> f ()

let test_fleet_snapshot_merge () =
  Metrics.reset_all ();
  Metrics.Counter.add (Metrics.counter "test.fleet.reqs") 7;
  Metrics.Gauge.set (Metrics.gauge "test.fleet.active") 3.0;
  Metrics.Histogram.observe (Metrics.histogram "test.fleet.ms") 2.0;
  let a = Fleet.capture () in
  let b =
    {
      Fleet.s_counters = [ ("test.fleet.other", 5); ("test.fleet.reqs", 4) ];
      s_gauges = [ ("test.fleet.active", 2.0) ];
      s_hists = [ ("test.fleet.ms", Fleet.hist_of_samples [ 8.0; 16.0 ]) ];
    }
  in
  let m = Fleet.merge a b in
  check Alcotest.int "counters sum" 11 (Fleet.counter_value m "test.fleet.reqs");
  check Alcotest.int "counter only in b" 5
    (Fleet.counter_value m "test.fleet.other");
  check (Alcotest.float 1e-9) "gauges sum" 5.0
    (List.assoc "test.fleet.active" m.Fleet.s_gauges);
  (match Fleet.find_hist m "test.fleet.ms" with
  | Some h ->
      check Alcotest.int "hists merge" 3 (Fleet.hist_count h);
      check (Alcotest.float 1e-9) "hist max" 16.0 (Fleet.hist_max h)
  | None -> Alcotest.fail "merged histogram missing");
  (* Snapshot JSON round-trips so slices can cross process borders. *)
  (match Fleet.of_json (Fleet.to_json m) with
  | Ok m' -> check Alcotest.bool "json round-trip" true (m = m')
  | Error e -> Alcotest.fail ("snapshot of_json: " ^ e));
  (* The merged exposition carries summed counters and bucket-derived
     quantiles. *)
  let prom = Fleet.to_prometheus m in
  check Alcotest.bool "prometheus has summed counter" true
    (List.mem "crimson_test_fleet_reqs 11" (String.split_on_char '\n' prom));
  check Alcotest.bool "prometheus has quantile family" true
    (let needle = "crimson_test_fleet_ms_summary{quantile=\"0.99\"}" in
     let n = String.length needle in
     let rec find i =
       i + n <= String.length prom && (String.sub prom i n = needle || find (i + 1))
     in
     find 0);
  Metrics.reset_all ()

let test_fleet_merge_records () =
  let rec_at ~trace t =
    {
      Crimson_obs.Trace.id = trace;
      started_at = t;
      root =
        {
          Crimson_obs.Trace.name = "r";
          depth = 0;
          start_ms = 0.0;
          elapsed_ms = 1.0;
          attrs = [];
          children = [];
        };
      meta = [];
    }
  in
  let w1 = [ rec_at ~trace:5 30.0; rec_at ~trace:3 10.0 ] in
  let w2 = [ rec_at ~trace:4 20.0 ] in
  let merged = Fleet.merge_records [ w1; w2 ] in
  check
    (Alcotest.list (Alcotest.float 0.0))
    "newest first across rings" [ 30.0; 20.0; 10.0 ]
    (List.map (fun r -> r.Crimson_obs.Trace.started_at) merged);
  check Alcotest.int "n caps" 2 (List.length (Fleet.merge_records ~n:2 [ w1; w2 ]));
  (* Equal timestamps break ties by trace id, descending — the order is
     total, so repeated merges never flap. *)
  let tie = Fleet.merge_records [ [ rec_at ~trace:1 5.0 ]; [ rec_at ~trace:2 5.0 ] ] in
  check
    (Alcotest.list Alcotest.int)
    "tie-break by id" [ 2; 1 ]
    (List.map (fun r -> r.Crimson_obs.Trace.id) tie)

(* ------------------------------ Events ----------------------------- *)

let test_events_journal () =
  let dir = Filename.temp_file "crimson_events" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "events.jsonl" in
  Events.set_journal (Some path);
  Events.emit "unit_test" ~fields:[ ("n", Json.Num 1.0) ];
  Events.emit "unit_test" ~fields:[ ("n", Json.Num 2.0) ];
  Events.flush ();
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  check Alcotest.int "two lines" 2 (List.length lines);
  List.iteri
    (fun i line ->
      match Json.parse line with
      | Json.Obj fields ->
          check Alcotest.bool "has ts" true (List.mem_assoc "ts" fields);
          check Alcotest.bool "kind" true
            (List.assoc_opt "event" fields = Some (Json.Str "unit_test"));
          check Alcotest.bool "field" true
            (List.assoc_opt "n" fields = Some (Json.Num (float_of_int (i + 1))))
      | _ -> Alcotest.fail "event line is not an object")
    lines;
  (* Rotation: shrink the cap so the next event rotates to .1. *)
  Events.set_journal ~max_bytes:1 (Some path);
  Events.emit "rotated";
  Events.flush ();
  check Alcotest.bool "rotated file exists" true (Sys.file_exists (path ^ ".1"));
  Events.set_journal None;
  check Alcotest.bool "uninstalled" true (not (Events.installed ()));
  (* Without a journal, emit drops (and counts) instead of failing. *)
  let dropped = Metrics.counter_value "obs.events.dropped" in
  Events.emit "dropped_event";
  check Alcotest.int "dropped counted" (dropped + 1)
    (Metrics.counter_value "obs.events.dropped");
  Sys.remove path;
  Sys.remove (path ^ ".1");
  Unix.rmdir dir

let () =
  Alcotest.run "crimson_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
          Alcotest.test_case "kind collision" `Quick test_kind_collision;
          Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
          Alcotest.test_case "histogram basics" `Quick test_histogram_basic;
          Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
          Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "records on raise" `Quick test_span_records_on_raise;
          Alcotest.test_case "timed and record" `Quick test_span_timed_and_record;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "text exporter" `Quick test_text_exporter;
          Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
          Alcotest.test_case "json parser details" `Quick test_json_parser_details;
          Alcotest.test_case "json trace payloads" `Quick test_json_trace_payloads;
          Alcotest.test_case "json encoder edge cases" `Quick test_json_encoder_edges;
          Alcotest.test_case "json encoder = Printf oracle" `Quick
            test_json_encoder_property;
          Alcotest.test_case "json encoder across domains" `Quick
            test_json_encoder_domains;
          Alcotest.test_case "prometheus exporter" `Quick test_prometheus_exporter;
          Alcotest.test_case "prometheus buckets" `Quick test_prometheus_buckets;
          Alcotest.test_case "prometheus escaping" `Quick test_prometheus_escaping;
          Alcotest.test_case "reset all" `Quick test_reset_all;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "merge empties" `Quick test_fleet_merge_empty;
          Alcotest.test_case "merge disjoint ranges" `Quick
            test_fleet_merge_disjoint_ranges;
          Alcotest.test_case "merge vs union stream" `Quick
            test_fleet_merge_property;
          Alcotest.test_case "snapshot merge + exposition" `Quick
            test_fleet_snapshot_merge;
          Alcotest.test_case "trace ring interleave" `Quick
            test_fleet_merge_records;
        ] );
      ( "events",
        [ Alcotest.test_case "journal emit + rotation" `Quick test_events_journal ] );
    ]
