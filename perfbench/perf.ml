(* Benchmark harness entry point; run.py builds and drives it.

   perf.exe --workload W --seed N --seconds S --trace 0|1
            --work DIR --crimson PATH [--spans FILE]

   Prints human-readable progress and, as its last line, the JSON
   result run.py forwards. *)

open Common

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let work = ref "" and crimson = ref "" and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME wire-deep | http-browse | ingest-eval");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--work", Arg.Set_string work, "DIR scratch directory");
      ("--crimson", Arg.Set_string crimson, "PATH crimson executable");
      ("--spans", Arg.Set_string spans, "FILE span output of a traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe --workload W --seed N --seconds S --trace 0|1 --work DIR --crimson PATH";
  let trace = !trace = 1 in
  fresh_dir !work;
  let run =
    match !workload with
    | "wire-deep" -> Wire_deep.run ~crimson:!crimson
    | "http-browse" -> Http_browse.run ~crimson:!crimson
    | "ingest-eval" -> Ingest_eval.run
    | w -> failwith ("unknown workload " ^ w)
  in
  let attempted, failed, metrics = run ~work:!work ~seed:!seed ~seconds:!seconds ~trace in
  if trace && !spans <> "" then Spans.write !spans;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics
