(** Minimal JSON values for the telemetry exporters.

    Crimson deliberately carries no external JSON dependency; metric
    snapshots and bench results need only this small subset: rendering
    is exact for the values the registry produces, and [parse] accepts
    everything [to_string] emits (used by the round-trip tests and by
    scripts that slurp BENCH lines). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of { pos : int; message : string }

val to_string : t -> string
(** Compact single-line rendering. Numbers that are exact integers with
    magnitude at most 1e15 print as plain decimal digits (["-0"] for
    [-0.0]); other finite numbers print as ["%.17g"] does; NaN and
    infinities render as [null] (JSON has no spelling for them). *)

val to_buffer : Buffer.t -> t -> unit
(** [to_buffer buf v] appends exactly the bytes of [to_string v] to
    [buf]. The encoder keeps no shared state, so concurrent domains may
    call it on their own buffers. *)

val parse : string -> t
(** Strict parser for the subset above. Raises {!Parse_error} with the
    byte offset of the offending character. *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing keys or non-objects. *)

val equal : t -> t -> bool
(** Structural equality; object fields compare order-insensitively. *)
