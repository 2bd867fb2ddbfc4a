(** The varint of every byte format in this library: [Codec]'s primitives,
    reliable frames and journal records. Private to the library; the
    writer does no bounds checks. *)

val max_bytes : int
(** The longest varint the writer produces (9 bytes: 63 bits). *)

val size : int -> int
(** Bytes in the varint of [n], read as unsigned 63-bit. *)

val put_at : bytes -> int -> int -> int
(** [put_at b pos n] stores the varint of [n] at [pos] and returns the
    position after it. The caller has sized [b] to leave [size n] bytes
    free at [pos]: nothing is bounds-checked. *)

val get_at : string -> int -> int -> (int * int) option
(** [get_at s pos limit] reads the varint at [pos] whose bytes all lie
    before [limit] (at most [String.length s]): [Some (value, next)], or
    [None] when it runs into [limit] or is longer than 10 bytes. The value
    may come out negative (bit 63 set); unsigned contexts check that. *)

val zigzag : int -> int
val unzigzag : int -> int
(** Signed ↔ unsigned mapping: small magnitudes get short varints. *)
