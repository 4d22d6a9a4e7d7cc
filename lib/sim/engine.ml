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

(* The original list-based engine, kept as the executable
   specification: [run] must be observationally identical to it (same
   final states, same metrics, same PRNG stream), and so must
   [run_chaos] with only [loss] set, which test_engine_perf.ml checks
   differentially and bench `perf` uses as the speedup baseline.  It
   visits and steps every live node every round and never consults
   [wake]. *)
let run_reference ?(loss = 0.0) ~graph ~failures ~max_rounds ~seed proto =
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Engine.run_reference: loss must be in [0, 1)";
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
  let steps = ref 0 in
  while (not !halted) && !round <= max_rounds do
    let r = !round in
    Metrics.note_round metrics r;
    for u = 0 to n - 1 do
      if Failure.is_alive failures ~node:u ~round:r then begin
        incr steps;
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
  Metrics.count_work metrics ~visits:!steps ~steps:!steps;
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

(* Node sets are bitmaps over a partition's range, [word_bits] nodes to
   an int: bit [b] of word [i] is node [lo + i·word_bits + b]. *)
let word_bits = 63

(* [f] on every set bit of [w] as a node id, ascending; [u] is the node
   of bit 0. *)
let iter_bits w u f =
  let w = ref w and u = ref u in
  while !w <> 0 do
    if !w land 0xff = 0 then begin
      w := !w lsr 8;
      u := !u + 8
    end
    else begin
      if !w land 1 <> 0 then f !u;
      w := !w lsr 1;
      incr u
    end
  done

(* What a visit reports: the node was stepped; it is to be visited
   again next round. *)
let stepped = 1
let again = 2

(* Wake rounds more than one round ahead wait in calendar row [w mod
   calendar_rows]; a row comes round every [calendar_rows] rounds. *)
let calendar_rows = 32

(* Everything one partition [\[lo, hi)] owns: its work counters and one
   int array of bitmap rows over [\[lo, hi)].  Within a round only the
   partition's own stepping writes these, and the other partitions read
   only its [sent] row of the round before, so partitions run on
   different domains without sharing a written word.  Rows:
   - [marks]: the nodes this round visits for a due wake or delayed
     mail; the words the scan has passed hold next round's;
   - [mail]: the nodes this round visits for fresh mail, the neighbours
     of the last round's broadcasters;
   - [sent r]: who broadcast in round [r] — read by every partition in
     round [r + 1], and their in-flight slots emptied in round [r + 2];
   - [calendar w]: the nodes whose wake round is [≡ w (mod
     calendar_rows)], more than one round ahead and within the run. *)
type part = {
  lo : int;
  hi : int;
  words : int;  (** bitmap words per row *)
  bits : int array;
  mutable visits : int;
  mutable steps : int;
}

let marks = 0
let mail = 1
let sent r = 2 + (r mod 3)
let calendar w = 5 + (w mod calendar_rows)

let part (lo, hi) =
  let words = (hi - lo + word_bits - 1) / word_bits in
  { lo; hi; words; bits = Array.make ((5 + calendar_rows) * words) 0; visits = 0; steps = 0 }

let word p row i = Array.unsafe_get p.bits ((row * p.words) + i)
let put p row i x = Array.unsafe_set p.bits ((row * p.words) + i) x

(* Set / clear node [u]'s bit in [row]. *)
let set p row u =
  let i = u - p.lo in
  let j = i / word_bits in
  put p row j (word p row j lor (1 lsl (i mod word_bits)))

let clear p row u =
  let i = u - p.lo in
  let j = i / word_bits in
  put p row j (word p row j land lnot (1 lsl (i mod word_bits)))

(* The one round loop.  Observationally identical to [run_reference]
   (same final states, metrics and PRNG streams), but the delivery walks
   the graph's CSR rows in place with no closure allocation — the only
   allocations left are the inbox cells the protocol API requires.

   Sparse rounds: round [r] visits, in ascending order, only the nodes
   that can act — the neighbours of round [r − 1]'s broadcasters, the
   nodes whose wake round is [r], and (lossy runs) the nodes holding
   delayed mail.  Every other live node has an empty inbox and a wake
   round still ahead, so visiting it would only have cleared its
   in-flight slot; that slot is already empty, because each round first
   clears the slots of the broadcasters of round [r − 2].  A visited
   node runs the per-node body unchanged: the crash test, the inbox, the
   "empty inbox and not due" skip, then [step], accounting, [observer]
   and [obs].  Ascending visits draw every fault coin in the order a
   walk over all nodes would.

   [wake.(u)] holds [max w (r + 1)] for the [w] that [u]'s protocol
   declared after its step in round [r] (round 1 at init) — the same
   answer to the [wake > r] test.  A wake of [r + 1] sets [u]'s mark for
   the next round directly; a later one within [max_rounds] sets [u]'s
   bit in its calendar row, and round [w] moves it into the marks.  A
   reschedule clears the old bit, so a row holds no stale entries.

   [parts] splits the nodes into contiguous ascending ranges, and each
   round [dispatch r step] must call [step k] once for every partition
   [k].  Partitions write only their own slots and bitmaps, so
   [Executor] runs them on different domains.  Per-edge fault coins come
   from one shared stream in global node order, so callers that split
   the range pass no faults, [observer] or [obs]. *)
let loop ~parts ~dispatch ?observer ?obs ~chaos ~graph ~failures ~max_rounds ~seed proto =
  let n = Csr.n graph in
  let offsets = graph.Csr.offsets and targets = graph.Csr.targets in
  let crash = Failure.crash_rounds failures in
  if Array.length crash <> n then invalid_arg "Engine: failure schedule size mismatch";
  let next = Array.fold_left (fun at (lo, hi) -> if lo = at && hi >= lo then hi else -1) 0 parts in
  if parts = [||] || next <> n then
    invalid_arg "Engine: parts must split [0, n) into ascending contiguous ranges";
  let parts = Array.map part parts in
  let { loss; dup; delay } = chaos.faults in
  let lossy = loss > 0.0 || dup > 0.0 || delay > 0.0 and delays = delay > 0.0 in
  (* A private copy: online crash decisions must not mutate the caller's
     oblivious schedule. *)
  let crash = if Option.is_none chaos.online then crash else Array.copy crash in
  let rng = Prng.create seed in
  let loss_rng = Prng.split rng in
  let states = Array.init n (fun u -> proto.init u ~rng:(Prng.split rng)) in
  (* The last round worth a calendar bit. *)
  let horizon = min max_rounds (max_int - 1) in
  let wake =
    Array.map
      (fun st ->
        let w = proto.wake st ~round:0 in
        if w > 0 then w else 1)
      states
  in
  Array.iter
    (fun p ->
      for u = p.lo to p.hi - 1 do
        let w = wake.(u) in
        if w = 1 then set p marks u else if w <= horizon then set p (calendar w) u
      done)
    parts;
  let metrics = Metrics.create n in
  let in_flight : 'msg list array ref = ref (Array.make n []) in
  let next_flight : 'msg list array ref = ref (Array.make n []) in
  (* [held.(u)] holds (sender, payload) pairs whose delivery to [u] was
     pushed one round; they arrive ahead of this round's traffic and
     survive the sender's crash (in flight = in flight).  A node that
     holds mail is marked for the next round, and every visit empties
     its slot, so after the swap [next_held] starts each round empty. *)
  let held = ref (if delays then Array.make n [] else [||]) in
  let next_held = ref (if delays then Array.make n [] else [||]) in
  (* Per-edge coin outcomes of the node being visited: 0 = nothing
     delivered, else the copy count (1, or 2 when duplicated), plus 4
     when delayed. *)
  let flags = if lossy then Array.make (max 1 (Csr.max_degree graph)) 0 else [||] in
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
  let step_part r k =
    let p = parts.(k) in
    let inflight = !in_flight and nextflight = !next_flight in
    let words = p.words and lo = p.lo and hi = p.hi in
    (* The in-flight slots written in round [r − 2]; nobody reads them
       again. *)
    let row = sent (r + 1) in
    let empty u = Array.unsafe_set nextflight u [] in
    for i = 0 to words - 1 do
      let w = word p row i in
      if w <> 0 then begin
        put p row i 0;
        iter_bits w (lo + (i * word_bits)) empty
      end
    done;
    (* Due: round [r]'s calendar row holds exactly the nodes whose wake
       is [r] or a later round of the same row. *)
    let row = calendar r in
    let due = ref 0 in
    let check u =
      if Array.unsafe_get wake u = r then due := !due lor (1 lsl ((u - lo) mod word_bits))
    in
    for i = 0 to words - 1 do
      let w = word p row i in
      if w <> 0 then begin
        due := 0;
        iter_bits w (lo + (i * word_bits)) check;
        if !due <> 0 then begin
          put p row i (w land lnot !due);
          put p marks i (word p marks i lor !due)
        end
      end
    done;
    (* Mail: the neighbours in [lo, hi) of every partition's broadcasters
       of round [r − 1]. *)
    let mark_receivers u =
      for i = get offsets u to get offsets (u + 1) - 1 do
        let v = get targets i in
        if v >= lo && v < hi then set p mail v
      done
    in
    let row = sent (r - 1) in
    Array.iter
      (fun q ->
        for i = 0 to q.words - 1 do
          let w = word q row i in
          if w <> 0 then iter_bits w (q.lo + (i * word_bits)) mark_receivers
        done)
      parts;
    (* The per-node body: [has_mail] says a neighbour broadcast last
       round.  Returns [stepped] plus [again] when [u] is to be visited
       next round (due then, or holding delayed mail). *)
    let visit u has_mail =
      if Array.unsafe_get crash u > r then begin
        let fresh =
          (* No broadcasting neighbour: no mail, and no coin to draw. *)
          if not has_mail then []
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
        let due = Array.unsafe_get wake u in
        let code =
          if inbox == [] && due > r then 0
          else begin
            let state', out = proto.step ~round:r ~me:u ~state:states.(u) ~inbox in
            states.(u) <- state';
            (* [max w (r + 1)], compared as ints. *)
            let w = proto.wake state' ~round:r in
            let w = if w > r then w else r + 1 in
            if w <> due then begin
              if due > r && due <= horizon then clear p (calendar due) u;
              Array.unsafe_set wake u w;
              if w > r + 1 && w <= horizon then set p (calendar w) u
            end;
            (match observer with Some f -> f ~round:r ~node:u out | None -> ());
            (* An empty broadcast charges 0 bits and no message — skip
               the fold and the metrics write entirely. *)
            (match out with
            | [] -> ()
            | _ ->
              Array.unsafe_set nextflight u out;
              set p (sent r) u;
              let bits = sum_bits proto.msg_bits 0 out in
              Metrics.charge metrics ~node:u ~bits;
              (match obs with
              | Some o -> Obs.on_broadcast o ~round:r ~node:u ~msgs:(List.length out) ~bits
              | None -> ()));
            if w = r + 1 && w <> due then stepped lor again else stepped
          end
        in
        if delays && !next_held.(u) != [] then code lor again else code
      end
      else begin
        if delays then !held.(u) <- [];
        0
      end
    in
    (* The scan, word by word and ascending within a word, written out
       rather than through [iter_bits] so the word's accumulators stay
       local.  [later] collects the word's nodes to visit next round,
       written back once the word is done (nothing else writes the word
       meanwhile). *)
    let visits = ref 0 and steps = ref 0 in
    for i = 0 to words - 1 do
      let m = word p mail i in
      let w = word p marks i lor m in
      if w <> 0 then begin
        put p mail i 0;
        let u0 = lo + (i * word_bits) in
        let later = ref 0 and rest = ref w and k = ref 0 in
        while !rest <> 0 do
          if !rest land 0xff = 0 then begin
            rest := !rest lsr 8;
            k := !k + 8
          end
          else begin
            if !rest land 1 <> 0 then begin
              incr visits;
              let bit = 1 lsl !k in
              let code = visit (u0 + !k) (m land bit <> 0) in
              steps := !steps + (code land stepped);
              if code land again <> 0 then later := !later lor bit
            end;
            rest := !rest lsr 1;
            incr k
          end
        done;
        put p marks i !later
      end
    done;
    p.visits <- p.visits + !visits;
    p.steps <- p.steps + !steps
  in
  let violation = ref None in
  let round = ref 1 in
  let halted = ref false in
  (* Who broadcast in round [r], ascending — what both the watch view and
     the online report carry.  Read off the partitions' [sent] rows, and
     only when one of them will read it. *)
  let broadcasters r =
    let acc = ref [] in
    for k = Array.length parts - 1 downto 0 do
      let q = parts.(k) in
      for i = q.words - 1 downto 0 do
        let w = word q (sent r) i in
        if w <> 0 then
          for b = word_bits - 1 downto 0 do
            if w land (1 lsl b) <> 0 then acc := (q.lo + (i * word_bits) + b) :: !acc
          done
      done
    done;
    !acc
  in
  let after_round r =
    let senders =
      if Option.is_none chaos.watch && Option.is_none chaos.online then [] else broadcasters r
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
            v_broadcasters = senders;
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
        { rr_round = r; rr_broadcasters = senders; rr_metrics = metrics; rr_crash_rounds = crash }
      in
      List.iter
        (fun u -> if u > 0 && u < n && crash.(u) > r + 1 then crash.(u) <- r + 1)
        (adversary report)
    | _ -> ()
  in
  let rounds () =
    while (not !halted) && !round <= max_rounds do
      let r = !round in
      Metrics.note_round metrics r;
      (match obs with Some o -> Obs.on_round o r | None -> ());
      dispatch r (step_part r);
      (* Every non-empty slot of [next_flight] was written this round and
         every other one is empty, so swapping replaces a blit + fill. *)
      let fl = !in_flight in
      in_flight := !next_flight;
      next_flight := fl;
      let hl = !held in
      held := !next_held;
      next_held := hl;
      after_round r;
      if proto.root_done states.(Graph.root) then halted := true;
      incr round
    done;
    Array.iter (fun p -> Metrics.count_work metrics ~visits:p.visits ~steps:p.steps) parts
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

let whole n = [| (0, n) |]
let one_part _round step = step 0

let run ?observer ?obs ~graph ~failures ~max_rounds ~seed proto =
  let states, metrics, _, _ =
    loop ~parts:(whole (Graph.n graph)) ~dispatch:one_part ?observer ?obs ~chaos:no_chaos ~graph
      ~failures ~max_rounds ~seed proto
  in
  (states, metrics)

let run_chaos ?observer ?obs ?(faults = no_faults) ?online ?watch ?(halt_on_violation = true)
    ~graph ~failures ~max_rounds ~seed proto =
  let { loss; dup; delay } = faults in
  if loss < 0.0 || loss > 1.0 then invalid_arg "Engine.run_chaos: loss must be in [0, 1]";
  if dup < 0.0 || dup > 1.0 then invalid_arg "Engine.run_chaos: dup must be in [0, 1]";
  if delay < 0.0 || delay > 1.0 then invalid_arg "Engine.run_chaos: delay must be in [0, 1]";
  let states, metrics, crash, violation =
    loop ~parts:(whole (Graph.n graph)) ~dispatch:one_part ?observer ?obs
      ~chaos:{ faults; online; watch; halt_on_violation }
      ~graph ~failures ~max_rounds ~seed proto
  in
  {
    c_states = states;
    c_metrics = metrics;
    c_schedule = Failure.of_crash_rounds crash;
    c_violation = violation;
  }

let run_ranges ~parts ~dispatch ~graph ~failures ~max_rounds ~seed proto =
  let states, metrics, _, _ =
    loop ~parts ~dispatch ~chaos:no_chaos ~graph ~failures ~max_rounds ~seed proto
  in
  (states, metrics)
