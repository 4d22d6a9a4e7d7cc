(** Standard CAAF instances.

    All operate on non-negative integer inputs bounded by a polynomial of
    [N], as the paper's model requires. *)

val sum : Caaf.t
(** The paper's canonical function. *)

val count : Caaf.t
(** Counts participating inputs; every input is treated as contributing 1.
    Feed it all-ones inputs (or any inputs — they are ignored except for
    presence via {!Caaf.aggregate} over [1]s).  In network protocols use
    input 1 per node. *)

val max_ : Caaf.t
val min_ : Caaf.t
(** [min_]'s identity is a large sentinel ([max_input] must not exceed
    it); its domain is that of the inputs. *)

val bool_or : Caaf.t
val bool_and : Caaf.t
(** Inputs must be 0/1. *)

val gcd : Caaf.t
(** Greatest common divisor, with [gcd 0 x = x]. *)

val modsum : int -> Caaf.t
(** Sum modulo [m] — a valid CAAF (domain size [m]) that is {e not}
    monotone; exercises the exhaustive correctness interval. *)

val packed2 : bits:int -> Caaf.t -> Caaf.t -> Caaf.t
(** [packed2 ~bits a b] aggregates two CAAFs in one protocol execution by
    bit-packing both components into a single value: the low [bits] bits
    carry [a]'s aggregate, the next [bits] bits carry [b]'s.  Each
    component's inputs and partial aggregates must fit in [bits] bits
    ([1 <= bits <= 30]); combine unpacks, combines componentwise and
    repacks.  The pack of (SUM, COUNT) computes AVERAGE in a single run.
    Monotonicity is [Increasing] iff both components are, [Decreasing]
    iff both are, otherwise [Non_monotone].  Components whose identity
    does not fit in [bits] (e.g. {!min_}'s +∞ sentinel) are rejected at
    construction time. *)

val pack2 : bits:int -> int -> int -> int
(** Encode a component pair (checked to fit). *)

val unpack2 : bits:int -> int -> int * int
(** Decode a packed value into [(a, b)]. *)

val all : Caaf.t list
(** The instances above (with [modsum 97] for the modular one). *)

val of_name : string -> Caaf.t option
(** [sum], [count], [max], [min], [or], [and] or [gcd] in any case: the
    names of the CLI's [--aggregate] and a job's ["caaf"]. *)
