type body =
  | Tree_construct of { level : int; ancestors : int list }
  | Ack of { parent : int }
  | Aggregation of { psum : int; max_level : int }
  | Critical_failure of int
  | Flooded_psum of { source : int; psum : int }
  | Dominated of int
  | Compulsory of int
  | Agg_abort
  | Detect_failed_parent
  | Failed_parent of { node : int; depth : int }
  | Detect_failed_child
  | Failed_child of int
  | Lfc_tail of int
  | Not_lfc_tail of int
  | Veri_overflow
  | Bf_init
  | Bf_value of { source : int; value : int }

type t = { exec : int; body : body }

let tag_bits = 5

let bits (p : Params.t) body =
  let id = p.id_bits and level = p.level_bits and value = p.value_bits and input = p.input_bits in
  let fields =
    match body with
    | Tree_construct { level = _; ancestors } -> level + (List.length ancestors * id)
    | Ack _ -> id
    | Aggregation _ -> value + level
    | Critical_failure _ -> id
    | Flooded_psum _ -> id + value
    | Dominated _ | Compulsory _ -> id
    | Agg_abort | Veri_overflow | Detect_failed_parent | Detect_failed_child | Bf_init -> 0
    | Failed_parent _ -> id + level
    | Failed_child _ | Lfc_tail _ | Not_lfc_tail _ -> id
    | Bf_value _ -> id + input
  in
  tag_bits + id + fields

let msg_bits p { exec = _; body } = bits p body

let is_flood = function
  | Tree_construct _ | Ack _ | Aggregation _ -> false
  | Critical_failure _ | Flooded_psum _ | Dominated _ | Compulsory _ | Agg_abort
  | Detect_failed_parent | Failed_parent _ | Detect_failed_child | Failed_child _
  | Lfc_tail _ | Not_lfc_tail _ | Veri_overflow | Bf_init | Bf_value _ ->
    true

let pp_body ppf = function
  | Tree_construct { level; ancestors } ->
    Format.fprintf ppf "tc(l%d,%d anc)" level (List.length ancestors)
  | Ack { parent } -> Format.fprintf ppf "ack(%d)" parent
  | Aggregation { psum; max_level } -> Format.fprintf ppf "agg(%d,ml%d)" psum max_level
  | Critical_failure v -> Format.fprintf ppf "crit(%d)" v
  | Flooded_psum { source; psum } -> Format.fprintf ppf "psum(%d:%d)" source psum
  | Dominated v -> Format.fprintf ppf "dom(%d)" v
  | Compulsory v -> Format.fprintf ppf "comp(%d)" v
  | Agg_abort -> Format.fprintf ppf "abort"
  | Detect_failed_parent -> Format.fprintf ppf "dfp"
  | Failed_parent { node; depth } -> Format.fprintf ppf "fp(%d,x%d)" node depth
  | Detect_failed_child -> Format.fprintf ppf "dfc"
  | Failed_child v -> Format.fprintf ppf "fc(%d)" v
  | Lfc_tail v -> Format.fprintf ppf "lfc(%d)" v
  | Not_lfc_tail v -> Format.fprintf ppf "nolfc(%d)" v
  | Veri_overflow -> Format.fprintf ppf "overflow"
  | Bf_init -> Format.fprintf ppf "bf"
  | Bf_value { source; value } -> Format.fprintf ppf "bfv(%d:%d)" source value

let pp ppf { exec; body } = Format.fprintf ppf "%d:%a" exec pp_body body
