module Engine = Ftagg_sim.Engine
module Metrics = Ftagg_sim.Metrics
module Registry = Ftagg_obs.Registry

exception
  Partition_failed of {
    round : int;
    partition : int;
    exn : exn;
  }

let partitions ~n ~domains = Array.init domains (fun k -> (k * n / domains, (k + 1) * n / domains))

let frontier_edges bg ~domains =
  let n = Bigraph.n bg in
  let owner = Bytes.create n in
  Array.iteri
    (fun k (lo, hi) -> if hi > lo then Bytes.fill owner lo (hi - lo) (Char.chr k))
    (partitions ~n ~domains);
  let count = ref 0 in
  for u = 0 to n - 1 do
    Bigraph.iter_neighbors bg u (fun v ->
        if v > u && Bytes.get owner u <> Bytes.get owner v then incr count)
  done;
  !count

(* Everything the worker domains share with the coordinator.  Within a
   round, [job k] (the engine's kernel on partition [k]) writes only
   partition [k]'s node slots and buffers and reads the previous round's;
   the mutex-protected barrier orders one round's writes before the next
   round's reads, so the run is data-race-free. *)
type shared = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable gen : int;  (** barrier generation; bumping it releases workers *)
  mutable job : int -> unit;
  mutable pending : int;
  mutable stop : bool;
  mutable failed : (int * exn) option;  (** first failing partition *)
}

let run ?(domains = 1) ?meter ?registry ~graph ~failures ~max_rounds ~seed proto =
  if domains < 1 || domains > 64 then invalid_arg "Executor.run: need 1 <= domains <= 64";
  let parts = partitions ~n:(Bigraph.n graph) ~domains in
  let sh =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      gen = 0;
      job = ignore;
      pending = 0;
      stop = false;
      failed = None;
    }
  in
  (* Record one partition's failure; call with the lock held. *)
  let settle p = function
    | Ok () -> ()
    | Error e -> if Option.is_none sh.failed then sh.failed <- Some (p, e)
  in
  (* A worker steps its partition once per barrier generation until
     stopped. *)
  let worker p () =
    let rec next_round seen =
      Mutex.lock sh.lock;
      while sh.gen = seen && not sh.stop do
        Condition.wait sh.cond sh.lock
      done;
      if sh.stop then Mutex.unlock sh.lock
      else begin
        let gen = sh.gen and job = sh.job in
        Mutex.unlock sh.lock;
        let outcome = try Ok (job p) with e -> Error e in
        Mutex.lock sh.lock;
        settle p outcome;
        sh.pending <- sh.pending - 1;
        if sh.pending = 0 then Condition.broadcast sh.cond;
        Mutex.unlock sh.lock;
        next_round gen
      end
    in
    next_round 0
  in
  let workers = Array.init (domains - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  let minor0 = ref 0.0 in
  (* One round: publish the job and release the workers, run partition 0
     on the coordinator, then wait at the barrier. *)
  let dispatch r job =
    if r = 1 then minor0 := Gc.minor_words ();
    Mutex.lock sh.lock;
    sh.job <- job;
    sh.pending <- domains - 1;
    sh.gen <- sh.gen + 1;
    Condition.broadcast sh.cond;
    Mutex.unlock sh.lock;
    let own = try Ok (job 0) with e -> Error e in
    Mutex.lock sh.lock;
    while sh.pending > 0 do
      Condition.wait sh.cond sh.lock
    done;
    settle 0 own;
    let failed = sh.failed in
    Mutex.unlock sh.lock;
    (match failed with
    | Some (partition, e) -> raise (Partition_failed { round = r; partition; exn = e })
    | None -> ());
    match meter with Some m -> Mem.check m ~round:r | None -> ()
  in
  let cleanup () =
    Mutex.lock sh.lock;
    sh.stop <- true;
    Condition.broadcast sh.cond;
    Mutex.unlock sh.lock;
    Array.iter Domain.join workers
  in
  let states, metrics =
    Fun.protect ~finally:cleanup (fun () ->
        Engine.run_ranges ~parts ~dispatch ~graph ~failures ~max_rounds ~seed proto)
  in
  let executed = Metrics.rounds metrics in
  (match registry with
  | Some reg when Registry.enabled () ->
    Registry.incr reg "scale_rounds_total" executed;
    Registry.incr reg "scale_node_visits_total" (Metrics.node_visits metrics);
    Registry.incr reg "scale_node_steps_total" (Metrics.node_steps metrics);
    Registry.set_gauge reg "scale_domains" (float_of_int domains);
    Registry.set_gauge reg "scale_frontier_edges" (float_of_int (frontier_edges graph ~domains));
    if executed > 0 then
      Registry.set_gauge reg "scale_minor_words_per_round"
        ((Gc.minor_words () -. !minor0) /. float_of_int executed)
  | _ -> ());
  (match meter with Some m -> Mem.finish m | None -> ());
  (states, metrics)
