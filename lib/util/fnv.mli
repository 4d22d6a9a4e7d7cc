(** FNV-1a 64: the one string hash behind the repository's derived seeds,
    job digests, membership keys and ring placement.  Unlike
    [Hashtbl.hash] it is stable across OCaml versions and word sizes.
    Hashing parts one after another equals hashing their concatenation,
    so a caller mixing several fields hashes them joined. *)

val hash : string -> int64
