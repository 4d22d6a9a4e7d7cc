module Graph = Ftagg_graph.Graph
module Csr = Ftagg_graph.Csr
module Prng = Ftagg_util.Prng
module Obs = Ftagg_obs.Obs
module Span = Ftagg_obs.Span

type node_id = int

type ('state, 'msg) protocol = {
  init : node_id -> rng:Prng.t -> 'state;
  step :
    round:int ->
    me:node_id ->
    state:'state ->
    inbox:(node_id * 'msg) list ->
    'state * 'msg list;
  msg_bits : 'msg -> int;
  root_done : 'state -> bool;
  wake : 'state -> round:int -> int;
}

let every_round _ ~round = round + 1

(* The original list-based engine, kept verbatim as the executable
   specification: [run] must be observationally identical to it (same
   final states, same metrics, same PRNG stream), which
   test_engine_perf.ml checks differentially and bench `perf` uses as
   the speedup baseline.  It steps every live node every round and never
   consults [wake]. *)
let run_reference ?observer ?(loss = 0.0) ~graph ~failures ~max_rounds ~seed proto =
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Engine.run: loss must be in [0, 1)";
  let n = Graph.n graph in
  let rng = Prng.create seed in
  let loss_rng = Prng.split rng in
  let delivered () = loss = 0.0 || Prng.float loss_rng 1.0 >= loss in
  let states = Array.init n (fun u -> proto.init u ~rng:(Prng.split rng)) in
  let metrics = Metrics.create n in
  (* [in_flight.(u)] holds what [u] broadcast in the previous round (its
     logical payloads), to be delivered to u's neighbours this round. *)
  let in_flight : 'msg list array = Array.make n [] in
  let next_flight : 'msg list array = Array.make n [] in
  let round = ref 1 in
  let halted = ref false in
  while (not !halted) && !round <= max_rounds do
    let r = !round in
    Metrics.note_round metrics r;
    for u = 0 to n - 1 do
      if Failure.is_alive failures ~node:u ~round:r then begin
        let inbox =
          List.concat_map
            (fun v ->
              if in_flight.(v) = [] then []
              else if delivered () then List.map (fun m -> (v, m)) in_flight.(v)
              else [])
            (Graph.neighbors graph u)
        in
        let state', out = proto.step ~round:r ~me:u ~state:states.(u) ~inbox in
        states.(u) <- state';
        next_flight.(u) <- out;
        (match observer with Some f -> f ~round:r ~node:u out | None -> ());
        let bits = List.fold_left (fun acc m -> acc + proto.msg_bits m) 0 out in
        Metrics.charge metrics ~node:u ~bits
      end
      else next_flight.(u) <- []
    done;
    Array.blit next_flight 0 in_flight 0 n;
    Array.fill next_flight 0 n [];
    if proto.root_done states.(Graph.root) then halted := true;
    incr round
  done;
  (states, metrics)

(* ------------------------------------------------------------------ *)
(* Chaos instrumentation: message-level fault injection, online        *)
(* (adaptive) adversaries and per-round invariant watchdogs.           *)
(* ------------------------------------------------------------------ *)

type faults = {
  loss : float;
  dup : float;
  delay : float;
}

let no_faults = { loss = 0.0; dup = 0.0; delay = 0.0 }

type round_report = {
  rr_round : int;
  rr_broadcasters : int list;
  rr_metrics : Metrics.t;
  rr_crash_rounds : int array;
}

type online = round_report -> int list

type 'state view = {
  v_round : int;
  v_states : 'state array;
  v_metrics : Metrics.t;
  v_crash_rounds : int array;
  v_broadcasters : int list;
}

type 'state watch = 'state view -> (string * string) option

type violation = {
  at_round : int;
  invariant : string;
  detail : string;
}

type 'state chaos_result = {
  c_states : 'state array;
  c_metrics : Metrics.t;
  c_schedule : Failure.t;
  c_violation : violation option;
}

(* ------------------------------------------------------------------ *)
(* The round kernel                                                    *)
(* ------------------------------------------------------------------ *)

(* Chaos as per-round hooks on the one loop: [faults] changes how
   inboxes are built; [online] and [watch] run after each round. *)
type 'state chaos = {
  faults : faults;
  online : online option;
  watch : 'state watch option;
  halt_on_violation : bool;
}

let no_chaos = { faults = no_faults; online = None; watch = None; halt_on_violation = true }

(* Prepend [(v, m)] for every [m] of [msgs] onto [acc], preserving the
   order of [msgs].  Messages per broadcast are few, so the non-tail
   recursion is fine. *)
let rec deliver v msgs acc =
  match msgs with [] -> acc | m :: tl -> (v, m) :: deliver v tl acc

(* Typed, so the Bigarray read compiles to an inline load. *)
let get (a : Csr.ints) i = Bigarray.Array1.unsafe_get a i

let rec sum_bits msg_bits acc = function
  | [] -> acc
  | m :: tl -> sum_bits msg_bits (acc + msg_bits m) tl

(* The one round loop.  Observationally identical to [run_reference]
   (same final states, metrics and PRNG streams), but the delivery walks
   a CSR snapshot with no per-round set filtering and no closure
   allocation — the only allocations left are the inbox cells the
   protocol API requires.

   Frontier rounds: [wake.(u)] is the next round in which [u] must be
   stepped even with an empty inbox, as its protocol's [wake] declared
   after [u]'s last step.  A live node with no mail before that round
   is not stepped at all: its next in-flight slot is cleared and its
   state, [observer] and [obs] are left untouched.  "Has mail" comes
   from the neighbour walk every live node still takes, so the fault
   coins are drawn exactly as before.

   Each round, [dispatch r step] must call [step lo hi] once for every
   range of a partition of the nodes; the ranges touch disjoint per-node
   slots, so [Executor] runs them on different domains.  Per-edge fault
   coins come from one shared stream in global node order, so callers
   that split the range pass no faults, [observer] or [obs]. *)
let loop ~dispatch ?observer ?obs ~chaos ~csr ~failures ~max_rounds ~seed proto =
  let n = Csr.n csr in
  let offsets = csr.Csr.offsets and targets = csr.Csr.targets in
  let crash = Failure.crash_rounds failures in
  if Array.length crash <> n then invalid_arg "Engine: failure schedule size mismatch";
  let { loss; dup; delay } = chaos.faults in
  let lossy = loss > 0.0 || dup > 0.0 || delay > 0.0 and delays = delay > 0.0 in
  (* A private copy: online crash decisions must not mutate the caller's
     oblivious schedule. *)
  let crash = if Option.is_none chaos.online then crash else Array.copy crash in
  let rng = Prng.create seed in
  let loss_rng = Prng.split rng in
  let states = Array.init n (fun u -> proto.init u ~rng:(Prng.split rng)) in
  let wake = Array.map (fun st -> proto.wake st ~round:0) states in
  let metrics = Metrics.create n in
  let in_flight : 'msg list array ref = ref (Array.make n []) in
  let next_flight : 'msg list array ref = ref (Array.make n []) in
  (* [held.(u)] holds (sender, payload) pairs whose delivery to [u] was
     pushed one round; they arrive ahead of this round's traffic and
     survive the sender's crash (in flight = in flight).  Every slot of
     [held] is emptied as the loop reaches its node, stepped or not, so
     after the swap [next_held] starts each round empty. *)
  let held = ref (if delays then Array.make n [] else [||]) in
  let next_held = ref (if delays then Array.make n [] else [||]) in
  (* Per-edge coin outcomes of the node being visited: 0 = nothing
     delivered, else the copy count (1, or 2 when duplicated), plus 4
     when delayed. *)
  let flags = if lossy then Array.make (max 1 (Csr.max_degree csr)) 0 else [||] in
  let draw p = p > 0.0 && Prng.float loss_rng 1.0 < p in
  (* One forward walk draws every coin in ascending neighbour order —
     loss, then dup, then delay, each only when its probability is
     positive, and only for neighbours that broadcast — then a backward
     walk assembles the inbox and the delayed batch front to back. *)
  let lossy_inbox u inflight =
    let lo = get offsets u and hi = get offsets (u + 1) in
    for i = lo to hi - 1 do
      flags.(i - lo) <-
        (match Array.unsafe_get inflight (get targets i) with
        | [] -> 0
        | _ ->
          if draw loss then 0
          else
            let copies = if draw dup then 2 else 1 in
            if draw delay then copies lor 4 else copies)
    done;
    let fresh = ref [] and late = ref [] in
    for i = hi - 1 downto lo do
      let f = flags.(i - lo) in
      if f <> 0 then begin
        let v = get targets i in
        let msgs = Array.unsafe_get inflight v in
        let dst = if f land 4 = 0 then fresh else late in
        dst := deliver v msgs !dst;
        if f land 3 = 2 then dst := deliver v msgs !dst
      end
    done;
    (match !late with [] -> () | l -> !next_held.(u) <- l);
    !fresh
  in
  (* [had_traffic] = did anyone broadcast last round?  When false, every
     fresh inbox is empty and no coin would be drawn (coins are only
     drawn for neighbours with a non-empty in-flight slot), so the whole
     neighbour scan is skipped — most rounds of a typical protocol are
     globally silent. *)
  let step_range r had_traffic lo hi =
    if lo < 0 || hi > n then invalid_arg "Engine: dispatched range outside the nodes";
    let inflight = !in_flight and nextflight = !next_flight in
    let traffic = ref false in
    for u = lo to hi - 1 do
      if Array.unsafe_get crash u > r then begin
        let fresh =
          if not had_traffic then []
          else if lossy then lossy_inbox u inflight
          else begin
            (* Build front-to-back order by walking neighbours
               backwards. *)
            let acc = ref [] in
            for i = get offsets (u + 1) - 1 downto get offsets u do
              let v = get targets i in
              match Array.unsafe_get inflight v with
              | [] -> ()
              | msgs -> acc := deliver v msgs !acc
            done;
            !acc
          end
        in
        let inbox =
          if not delays then fresh
          else begin
            let late = !held.(u) in
            !held.(u) <- [];
            match late with [] -> fresh | _ -> late @ fresh
          end
        in
        if inbox == [] && Array.unsafe_get wake u > r then Array.unsafe_set nextflight u []
        else begin
          let state', out = proto.step ~round:r ~me:u ~state:states.(u) ~inbox in
          states.(u) <- state';
          Array.unsafe_set wake u (proto.wake state' ~round:r);
          Array.unsafe_set nextflight u out;
          (match observer with Some f -> f ~round:r ~node:u out | None -> ());
          (* An empty broadcast charges 0 bits and no message — skip the
             fold and the metrics write entirely. *)
          match out with
          | [] -> ()
          | _ ->
            traffic := true;
            let bits = sum_bits proto.msg_bits 0 out in
            Metrics.charge metrics ~node:u ~bits;
            (match obs with
            | Some o -> Obs.on_broadcast o ~round:r ~node:u ~msgs:(List.length out) ~bits
            | None -> ())
        end
      end
      else begin
        Array.unsafe_set nextflight u [];
        if delays then !held.(u) <- []
      end
    done;
    !traffic
  in
  let violation = ref None in
  let round = ref 1 in
  let halted = ref false in
  (* Who broadcast this round, ascending — what both the watch view and
     the online report carry.  Built once per round, and only when one
     of them will read it. *)
  let broadcasters () =
    let sent = !in_flight in
    let rec go u acc =
      if u < 0 then acc else go (u - 1) (match sent.(u) with [] -> acc | _ -> u :: acc)
    in
    go (n - 1) []
  in
  let after_round r =
    let sent =
      if Option.is_none chaos.watch && Option.is_none chaos.online then [] else broadcasters ()
    in
    (match chaos.watch with
    | Some w when !violation = None -> (
      match
        w
          {
            v_round = r;
            v_states = states;
            v_metrics = metrics;
            v_crash_rounds = crash;
            v_broadcasters = sent;
          }
      with
      | Some (invariant, detail) ->
        violation := Some { at_round = r; invariant; detail };
        (match obs with Some o -> Obs.on_violation o ~round:r ~invariant ~detail | None -> ());
        if chaos.halt_on_violation then halted := true
      | None -> ())
    | _ -> ());
    match chaos.online with
    | Some adversary when not !halted ->
      let report =
        { rr_round = r; rr_broadcasters = sent; rr_metrics = metrics; rr_crash_rounds = crash }
      in
      List.iter
        (fun u -> if u > 0 && u < n && crash.(u) > r + 1 then crash.(u) <- r + 1)
        (adversary report)
    | _ -> ()
  in
  let traffic = ref false in
  let rounds () =
    while (not !halted) && !round <= max_rounds do
      let r = !round in
      Metrics.note_round metrics r;
      (match obs with Some o -> Obs.on_round o r | None -> ());
      traffic := dispatch r (step_range r !traffic);
      (* Every slot of the [next_*] buffers was written this round, so
         swapping replaces a blit + fill without copying. *)
      let fl = !in_flight in
      in_flight := !next_flight;
      next_flight := fl;
      let hl = !held in
      held := !next_held;
      next_held := hl;
      after_round r;
      if proto.root_done states.(Graph.root) then halted := true;
      incr round
    done
  in
  (* With [obs], its span collector is ambient for the run (so protocol
     [step] functions can open phase spans) and every span is closed on
     the way out. *)
  (match obs with
  | None -> rounds ()
  | Some o ->
    Span.with_ambient (Obs.spans o) (fun () ->
        rounds ();
        Obs.finish o));
  (states, metrics, crash, !violation)

let whole_range n _round step = step 0 n

let run ?observer ?obs ?(loss = 0.0) ~graph ~failures ~max_rounds ~seed proto =
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Engine.run: loss must be in [0, 1)";
  let states, metrics, _, _ =
    loop ~dispatch:(whole_range (Graph.n graph)) ?observer ?obs
      ~chaos:{ no_chaos with faults = { no_faults with loss } }
      ~csr:(Graph.csr graph) ~failures ~max_rounds ~seed proto
  in
  (states, metrics)

let run_chaos ?observer ?obs ?(faults = no_faults) ?online ?watch ?(halt_on_violation = true)
    ~graph ~failures ~max_rounds ~seed proto =
  let { loss; dup; delay } = faults in
  if loss < 0.0 || loss > 1.0 then invalid_arg "Engine.run_chaos: loss must be in [0, 1]";
  if dup < 0.0 || dup > 1.0 then invalid_arg "Engine.run_chaos: dup must be in [0, 1]";
  if delay < 0.0 || delay > 1.0 then invalid_arg "Engine.run_chaos: delay must be in [0, 1]";
  let states, metrics, crash, violation =
    loop ~dispatch:(whole_range (Graph.n graph)) ?observer ?obs
      ~chaos:{ faults; online; watch; halt_on_violation }
      ~csr:(Graph.csr graph) ~failures ~max_rounds ~seed proto
  in
  {
    c_states = states;
    c_metrics = metrics;
    c_schedule = Failure.of_crash_rounds crash;
    c_violation = violation;
  }

let run_ranges ~dispatch ~graph ~failures ~max_rounds ~seed proto =
  let states, metrics, _, _ =
    loop ~dispatch ~chaos:no_chaos ~csr:graph ~failures ~max_rounds ~seed proto
  in
  (states, metrics)
