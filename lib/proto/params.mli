(** Shared protocol parameters (the paper's model constants, Table 1).

    Every protocol in this library is configured by a value of this type.
    [n], [d], [c] and (where applicable) [f] and [t] are knowledge the
    paper grants the protocol; nodes never see the topology itself. *)

type t = private {
  n : int;  (** number of nodes [N] *)
  d : int;  (** diameter of the failure-free topology *)
  c : int;  (** failures never raise the diameter above [c·d] *)
  t : int;  (** failures AGG/VERI intend to tolerate ([>= 0]) *)
  max_input : int;  (** inputs lie in [\[0, max_input\]] *)
  caaf : Ftagg_caaf.Caaf.t;
  inputs : int array;  (** input per node, length [n] *)
  id_bits : int;  (** {!id_bits} *)
  level_bits : int;  (** {!level_bits} *)
  value_bits : int;  (** {!value_bits} *)
  input_bits : int;  (** width of a raw input: [ceil(log2 (max_input + 1))] *)
}
(** Private, so every value comes from the constructors below: the
    message widths are filled once from the fields they depend on, and a
    record update could leave them stale. *)

val make :
  ?c:int ->
  ?t:int ->
  ?caaf:Ftagg_caaf.Caaf.t ->
  graph:Ftagg_graph.Graph.t ->
  inputs:int array ->
  unit ->
  t
(** Derive parameters from a concrete topology: [d] is computed exactly.
    Defaults: [c = 2], [t = 0], [caaf = Instances.sum].  [max_input] is
    the largest input, at least 1.  Raises if the graph is disconnected
    or [inputs] has the wrong length or a negative entry. *)

val of_diameter : ?t:int -> d:int -> inputs:int array -> unit -> t
(** As {!make} with [c = 2] and [caaf = Instances.sum], for a caller
    that knows [d] (or a sound bound on it) without a
    {!Ftagg_graph.Graph.t}: [n] is the length of [inputs]. *)

val with_t : t -> int -> t
(** The same parameters at another tolerance [t]. *)

val with_inputs : t -> caaf:Ftagg_caaf.Caaf.t -> inputs:int array -> t
(** The same topology and tolerance computing another CAAF over other
    inputs (length [n]); [max_input] and the value widths follow. *)

val cd : t -> int
(** [c·d] — the post-failure diameter bound, the paper's unit for phase
    lengths. *)

val id_bits : t -> int
(** Width of a node id: [ceil(log2 n)]. *)

val level_bits : t -> int
(** Width of a tree level (levels never exceed [cd]). *)

val value_bits : t -> int
(** Width of a partial aggregate, from the CAAF's domain. *)

val agg_bit_budget : t -> int
(** AGG's abort threshold: [(11t + 14)(log N + 5)] (§4). *)

val veri_bit_budget : t -> int
(** VERI's overflow threshold: [(5t + 7)(3·log N + 10)] (§5.1). *)

val random_inputs : rng:Ftagg_util.Prng.t -> n:int -> max_input:int -> int array
