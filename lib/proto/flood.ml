(* The seen-set is a list while it holds at most [list_max] bodies and a
   table beyond that.  AGG's and VERI's stay short, because their bit
   budgets cap what a node forwards; a brute-force node sees one value per
   node.  The list compares bodies structurally, as the table does. *)
let list_max = 8

type 'body seen = Few of 'body list  (* newest first *) | Many of ('body, unit) Hashtbl.t

type 'body t = {
  mutable seen : 'body seen;
  mutable outbox : 'body list;  (* reversed *)
}

let create () = { seen = Few []; outbox = [] }

let seen t body =
  match t.seen with Few l -> List.mem body l | Many h -> Hashtbl.mem h body

let add t body =
  match t.seen with
  | Few l when List.compare_length_with l list_max < 0 -> t.seen <- Few (body :: l)
  | Few l ->
    let h = Hashtbl.create (2 * list_max) in
    List.iter (fun b -> Hashtbl.replace h b ()) (body :: l);
    t.seen <- Many h
  | Many h -> Hashtbl.replace h body ()

let receive t body =
  if seen t body then false
  else begin
    add t body;
    t.outbox <- body :: t.outbox;
    true
  end

let originate = receive

let pending t = t.outbox <> []

let drain t =
  let out = List.rev t.outbox in
  t.outbox <- [];
  out

let fold_seen f t init =
  match t.seen with
  | Few l -> List.fold_left (fun acc body -> f body acc) init l
  | Many h -> Hashtbl.fold (fun body () acc -> f body acc) h init
