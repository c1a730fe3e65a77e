(* The label layer timed directly: building the layered index of each
   workload tree in memory, and the stored label bytes per node. *)

open Common
module Layered = Crimson_label.Layered

let record trees =
  let nodes, ms, bytes =
    List.fold_left
      (fun (n, ms, b) t ->
        let index, dt = time_ms (fun () -> Layered.build ~f:8 t) in
        let st = Layered.stats index in
        (n + st.Layered.nodes, ms +. dt, b + st.Layered.total_label_bytes))
      (0, 0.0, 0) trees
  in
  set_layer "label.build_ms_per_knode" (ms /. (float_of_int nodes /. 1000.0));
  set_layer "label.bytes_per_node" (float_of_int bytes /. float_of_int nodes)
