(** Synchronous round-driven execution engine.

    Implements the paper's model (§2): protocols proceed in rounds; in each
    round a node first receives everything its neighbours broadcast in the
    previous round, computes locally, and may broadcast a single message,
    delivered to all live neighbours next round.  {!run} is exactly that
    model: reliable local broadcast, crash-stop failures.  Message loss,
    duplication and delay leave it, so they are {!run_chaos} faults, and
    {!run_reference}[ ~loss] is the specification lossy runs are checked
    against.

    A protocol is a per-node automaton over an abstract payload type.  The
    automaton may emit several logical payloads in one round; the engine
    combines them into the single physical broadcast the model allows and
    charges their summed bit widths to the sender (matching the pseudo-code
    comment in the paper's Algorithm 2). *)

type node_id = int

type ('state, 'msg) protocol = {
  init : node_id -> rng:Ftagg_util.Prng.t -> 'state;
      (** Initial state.  [rng] is a private-coin stream for this node,
          derived from the run seed. *)
  step :
    round:int ->
    me:node_id ->
    state:'state ->
    inbox:(node_id * 'msg) list ->
    'state * 'msg list;
      (** One round of local computation.  [inbox] holds the logical
          payloads received this round with their senders, senders in the
          order of the receiver's CSR row: ascending ids on every CSR
          built from edges, a renumbered row's source order on a
          [Scale.Layout] (so the inbox is the source run's, relabelled).
          The returned payloads are broadcast together; an empty list
          means the node stays silent. *)
  msg_bits : 'msg -> int;
      (** Bit width charged per logical payload. *)
  root_done : 'state -> bool;
      (** Checked on the root after every round; a [true] halts the run
          (the paper's executions end when the root outputs). *)
  wake : 'state -> round:int -> int;
      (** The node's schedule, which lets the round loop skip quiescent
          nodes.  The loop calls [wake st ~round:0] on every initial
          state and [wake st ~round:r] on the state a step in round [r]
          returned.  It returns the smallest later round in which stepping
          the node with an empty inbox could change its state or make it
          broadcast, or [max_int] if there is none.

          In round [r] the loop steps a live node only if its inbox
          (fresh plus delayed messages) is non-empty or its wake round is
          [<= r].  Otherwise it leaves the node alone: it does not read
          the state, call [step], [observer] or [obs], or allocate, and
          unless a neighbour broadcast it does not visit the node at
          all.  A round earlier than that smallest one costs time only;
          a later one changes the run.  {!every_round} is always sound. *)
}

val every_round : 'state -> round:int -> int
(** [round + 1]: step the node every round.  The [wake] of every
    protocol that does not declare a schedule. *)

val run :
  ?observer:(round:int -> node:int -> 'msg list -> unit) ->
  ?obs:Ftagg_obs.Obs.t ->
  graph:Ftagg_graph.Graph.t ->
  failures:Failure.t ->
  max_rounds:int ->
  seed:int ->
  ('state, 'msg) protocol ->
  'state array * Metrics.t
(** Execute the protocol.  Returns the final state of every node (crashed
    nodes keep the state they had when they crashed) and the metrics.
    Halts after [max_rounds] rounds or as soon as [root_done] holds.

    [observer] is invoked once per stepped node with the node's outgoing
    broadcast (possibly empty) — the hook behind {!Trace}.  Under
    {!every_round} that is every live node every round; a node that a
    protocol's [wake] lets the loop skip is not observed that round.

    [obs] is the telemetry sink ({!Ftagg_obs.Obs}): the engine feeds it
    one event per round plus one per non-empty broadcast, and installs
    its span collector as the domain's ambient collector so instrumented
    protocols ([Agg]/[Veri]/[Tradeoff]) can annotate their phases via
    [Ftagg_obs.Span].  Telemetry never touches the PRNG streams: with
    [obs] present or absent, enabled or disabled, the run's states and
    metrics are identical (checked in [test/test_obs.ml]).

    The delivery loop reads the graph's rows in place (a
    {!Ftagg_graph.Graph.t} is the flat {!Ftagg_graph.Csr} adjacency, so
    no run copies or rebuilds it), allocating nothing per round beyond
    the inbox cells the [step] API requires.  A round costs O(traffic):
    it visits, in ascending order, only the neighbours of the last
    round's broadcasters, the nodes whose [wake] round has come (kept in
    a calendar of per-node bits, one row per wake round mod 32) and the
    nodes holding delayed mail, plus a scan of a few bitmap rows of n/63
    words each.  It steps the visited nodes with mail or a due [wake]
    round; every other node is neither read nor written.
    {!Metrics.node_visits} and {!Metrics.node_steps} count the two.
    Raises [Invalid_argument] when [failures] does not cover exactly
    [Graph.n graph] nodes. *)

(** {2 Chaos instrumentation}

    Hooks on {!run}'s round loop for resilience experiments:
    message-level fault injection beyond the paper's model, {e online}
    (adaptive) adversaries that watch the traffic before deciding whom to
    crash, and per-round invariant watchdogs.  All three are opt-in; with
    every knob at its default, {!run_chaos} is observationally identical
    to {!run} (same states, metrics, and PRNG streams — checked
    differentially in [test/test_chaos.ml]). *)

type faults = {
  loss : float;
      (** probability a per-edge delivery is dropped, drawn as
          {!run_reference}'s [loss] is *)
  dup : float;  (** probability a delivered per-edge message is duplicated *)
  delay : float;
      (** probability a delivered per-edge message arrives one round late
          (it then survives the sender's crash, like any in-flight
          message) *)
}
(** Per-edge, per-round fault probabilities, each drawn independently in
    [\[0, 1\]].  {b Everything here leaves the paper's model} — the
    guarantees assume reliable local broadcast; these knobs exist to map
    where the guarantees break (bench E16/E17).  {!run_chaos} rejects
    a probability outside [\[0, 1\]] with [Invalid_argument]. *)

val no_faults : faults
(** All probabilities zero: the paper's reliable local broadcast. *)

type round_report = {
  rr_round : int;  (** the round that just executed *)
  rr_broadcasters : int list;
      (** nodes that sent a non-empty broadcast this round, ascending *)
  rr_metrics : Metrics.t;
      (** live cumulative accounting — per-node bit totals so far *)
  rr_crash_rounds : int array;
      (** the schedule as materialized so far; treat as read-only *)
}
(** What an online adversary sees after each round: exactly the per-round
    traffic (who broadcast, per-node bit totals) plus the crash state. *)

type online = round_report -> int list
(** Called after every round; the returned nodes crash at the start of
    the next round (their current-round broadcast is still delivered —
    crash means stop, not message loss).  The root and already-crashed
    nodes are ignored.  Budget enforcement is the adversary's job (see
    [Ftagg_chaos.Adversary]). *)

type 'state view = {
  v_round : int;
  v_states : 'state array;
  v_metrics : Metrics.t;
  v_crash_rounds : int array;  (** treat as read-only *)
  v_broadcasters : int list;
      (** nodes that sent a non-empty broadcast this round, ascending —
          the same list as the round's [rr_broadcasters].  A per-node
          check whose inputs change only when a node broadcasts can walk
          this instead of all [n] nodes.  Read off the round's
          broadcaster bitmaps once per round, and only when a watch or an
          online adversary is present. *)
}
(** Snapshot handed to a watchdog after each round's steps. *)

type 'state watch = 'state view -> (string * string) option
(** Per-round invariant check: [Some (invariant, detail)] reports a
    violation of the named invariant. *)

type violation = {
  at_round : int;
  invariant : string;
  detail : string;
}

type 'state chaos_result = {
  c_states : 'state array;
  c_metrics : Metrics.t;
  c_schedule : Failure.t;
      (** the materialized schedule: the oblivious input plus every
          crash the online adversary decided — replaying it obliviously
          reproduces the run *)
  c_violation : violation option;
      (** the first watchdog violation, if any *)
}

val run_chaos :
  ?observer:(round:int -> node:int -> 'msg list -> unit) ->
  ?obs:Ftagg_obs.Obs.t ->
  ?faults:faults ->
  ?online:online ->
  ?watch:'state watch ->
  ?halt_on_violation:bool ->
  graph:Ftagg_graph.Graph.t ->
  failures:Failure.t ->
  max_rounds:int ->
  seed:int ->
  ('state, 'msg) protocol ->
  'state chaos_result
(** The instrumented engine.  [failures] is the oblivious part of the
    schedule; [online] (if any) extends it on the fly.  [watch] runs
    after every round; on its first violation the run stops (unless
    [halt_on_violation] is [false], default [true]) and the violation is
    reported in the result.  [obs] is as in {!run}; watchdog violations
    are additionally forwarded to it, so chaos incidents carry a
    telemetry tail.  Faults change how {!run}'s loop builds inboxes;
    [online] and [watch] run after each round. *)

(** {2 Partitioned rounds} *)

val run_ranges :
  parts:(int * int) array ->
  dispatch:(int -> (int -> unit) -> unit) ->
  graph:Ftagg_graph.Graph.t ->
  failures:Failure.t ->
  max_rounds:int ->
  seed:int ->
  ('state, 'msg) protocol ->
  'state array * Metrics.t
(** {!run}'s round loop, split into [parts]: contiguous
    ascending ranges [(lo, hi)] covering [\[0, n)] (else
    [Invalid_argument]).  Each partition owns its nodes' slots and its
    own buffers — its visit marks, wake calendar, broadcaster rows and
    work counters — and [dispatch r step] must call [step k] once for
    every partition [k] in each round [r].  Within a round a partition
    writes only what it owns and reads the other partitions' broadcaster
    rows of the round before, so the calls may run on different domains
    once a barrier separates rounds — this is how [Scale.Executor]
    parallelises a round.  A partition's round costs its share of the
    traffic plus a scan of the last round's broadcaster bitmaps of every
    partition.  No faults, no observer and no telemetry: those share one
    PRNG stream or sink in global node order.  With one partition it is
    exactly {!run}, and every split visits and steps the same nodes. *)

val run_reference :
  ?loss:float ->
  graph:Ftagg_graph.Graph.t ->
  failures:Failure.t ->
  max_rounds:int ->
  seed:int ->
  ('state, 'msg) protocol ->
  'state array * Metrics.t
(** The original list-based engine, kept as the executable specification
    of {!run}: same final states, same metrics, same per-node PRNG
    streams.  It ignores [wake] and steps every live node every round,
    so comparing it with {!run} checks a protocol's [wake] too.

    [loss] (default 0; outside [\[0, 1)] it raises [Invalid_argument])
    drops each per-edge delivery independently with that probability: the
    specification of {!run_chaos} with only [faults.loss] set, which
    draws the same loss PRNG stream.  Used by the differential
    equivalence tests and as the baseline of the [perf] benchmark;
    {b not} a hot path. *)
