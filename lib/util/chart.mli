(** Minimal ASCII charts for the benchmark harness: horizontal bar charts
    and sparklines, so tradeoff curves are visible at a glance in
    terminal output. *)

val bars :
  ?width:int ->
  ?title:string ->
  (string * float) list ->
  string
(** [bars series] renders one labelled horizontal bar per entry, scaled
    to the maximum value ([width] characters, default 50).  Negative
    values are clamped to 0. *)

val spark : float list -> string
(** A one-line sparkline using eight block glyphs; empty input gives
    the empty string. *)

val log_bars : ?width:int -> (string * float) list -> string
(** Like {!bars}, untitled and on a log₂ scale — appropriate when the series spans
    orders of magnitude (e.g. brute force vs Algorithm 1 CC).  Values
    [<= 1] render as empty bars. *)
