(* A bounded pool of domains pulling jobs off a shared counter.  Jobs are
   closures so the pool is oblivious to what a "job" is; results land in a
   slot-per-job array, which keeps the output order equal to the input
   order no matter which domain ran what. *)

let default_domains () = max 1 (min 8 (Domain.recommended_domain_count () - 1))

exception Job_failed of int * exn

let map ?domains f xs =
  let jobs = Array.of_list xs in
  let n = Array.length jobs in
  if n = 0 then []
  else begin
    let domains =
      match domains with
      | Some d ->
        if d < 1 then invalid_arg "Sweep.map: domains must be >= 1";
        d
      | None -> default_domains ()
    in
    let results = Array.make n None in
    let first_error = Atomic.make None in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get first_error <> None then continue := false
        else
          match f jobs.(i) with
          | r -> results.(i) <- Some r
          | exception e ->
            (* Remember the first failure (by job index) and wind down;
               losing a later concurrent failure is fine. *)
            let rec record () =
              match Atomic.get first_error with
              | Some (j, _) when j <= i -> ()
              | old -> if not (Atomic.compare_and_set first_error old (Some (i, e))) then record ()
            in
            record ()
      done
    in
    let spawned = List.init (min domains n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    (match Atomic.get first_error with
    | Some (i, e) -> raise (Job_failed (i, e))
    | None -> ());
    Array.to_list (Array.map Option.get results)
  end

let resolve_domains = function
  | Some d ->
    if d < 1 then invalid_arg "Sweep.map_results: domains must be >= 1";
    d
  | None -> default_domains ()

(* Non-abandoning variant: every job runs to a [result], so one failure
   cannot sink the rest of the batch (the service scheduler's contract). *)
let map_results ?domains f xs =
  let jobs = Array.of_list xs in
  let n = Array.length jobs in
  if n = 0 then []
  else begin
    let domains = resolve_domains domains in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else results.(i) <- Some (match f jobs.(i) with r -> Ok r | exception e -> Error e)
      done
    in
    let spawned = List.init (min domains n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    Array.to_list (Array.map Option.get results)
  end

let map_seeds ~seeds f = map f seeds
