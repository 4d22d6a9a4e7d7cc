(** Multi-domain partitioned round executor.

    Runs an {!Ftagg_sim.Engine.protocol} over a {!Bigraph} CSR with the
    node range split into [domains] contiguous partitions, one OCaml
    domain each.  The synchronous model's round boundary is the one true
    barrier: within a round each partition writes only its own slots of
    the states / next-broadcast / wake-round arrays and its own buffers
    (visit marks, wake calendar, broadcaster rows, work counters), and
    reads anything from the previous round's, so the only
    synchronisation is a generation-counted barrier per round.

    A round costs O(traffic) per partition: it visits only the nodes of
    its range that have mail, are due or hold delayed mail (see
    {!Ftagg_sim.Engine.run}), plus a scan of every partition's last-round
    broadcaster bitmap (n/63 words in all) and of its own bitmap rows.

    {b Differential pin}: with the same [seed], [failures] and topology,
    [run] produces byte-identical states and metrics to [Engine.run] on
    the same graph, for every domain count — it {e is} the
    engine's round loop ({!Ftagg_sim.Engine.run_ranges}): the executor
    only dispatches each round's node ranges to the domains and waits at
    the barrier.  [run] takes the graph as numbered; [Scale_run.agg]
    hands it a {!Layout} of the caller's graph, whose run is the
    isomorphic image of this one.  There are no chaos faults here, as
    in [Engine.run]: per-edge loss, duplication and delay draws
    ([Engine.run_chaos]) consume a shared PRNG stream in global node
    order, which no partitioning can reproduce.

    Failure schedules apply as in [Engine.run] (crash = stop, not message
    loss).  Torn barriers abort cleanly: an exception in any partition is
    captured, every other partition finishes its round, workers are
    stopped and joined, and {!Partition_failed} is raised on the caller —
    no deadlock, no leaked domain. *)

exception
  Partition_failed of {
    round : int;
    partition : int;
    exn : exn;  (** what the partition raised *)
  }

val partitions : n:int -> domains:int -> (int * int) array
(** The contiguous split: partition [k] owns nodes
    [\[k·n/D, (k+1)·n/D)].  {!Layout} deals its BFS order over these
    ranges. *)

val frontier_edges : Bigraph.t -> domains:int -> int
(** Edges whose endpoints live in different partitions — the traffic
    crossing domain boundaries each round. *)

val run :
  ?domains:int ->
  ?meter:Mem.t ->
  ?registry:Ftagg_obs.Registry.t ->
  graph:Bigraph.t ->
  failures:Ftagg_sim.Failure.t ->
  max_rounds:int ->
  seed:int ->
  ('state, 'msg) Ftagg_sim.Engine.protocol ->
  'state array * Ftagg_sim.Metrics.t
(** Execute.  [domains] defaults to 1.  [meter] is checked at the round
    barrier; its ceiling aborts via {!Mem.Ceiling_exceeded}.  [registry]
    receives [scale_rounds_total], [scale_node_visits_total] and
    [scale_node_steps_total] (the kernel's work, summed over partitions:
    {!Ftagg_sim.Metrics.node_visits} / [node_steps]), [scale_domains],
    [scale_frontier_edges] and [scale_minor_words_per_round]
    (coordinator-domain minor allocation per executed round — the
    allocation-regression canary). *)
