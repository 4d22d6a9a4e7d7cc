module Sweep = Ftagg_runner.Sweep

let map ?domains ~into f xs =
  let jobs =
    Sweep.map ?domains
      (fun x ->
        let reg = Registry.create () in
        let y = f reg x in
        (y, reg))
      xs
  in
  List.iter (fun (_, reg) -> Registry.merge_into ~into reg) jobs;
  List.map fst jobs
