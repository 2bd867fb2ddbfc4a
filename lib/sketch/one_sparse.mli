(** 1-sparse recovery cell.

    A linear summary of a vector that can tell, with high probability,
    whether the vector is zero, exactly 1-sparse (and then recover the
    single (index, value)), or has ≥ 2 nonzeros. It stores the count
    Σ x_i, the index-weighted sum Σ i·x_i, and two independent random
    fingerprints Σ x_i·c(i) over GF(2^31−1); a spurious [One] answer
    requires both fingerprints to collide (probability ≈ 2^{-62}·poly).
    Building block of {!S_sparse} and hence of the ℓ0-sampler
    (Lemma 2.6).

    Cells live flat in an [int array], {!stride} ints each at an offset
    [o]: [sum] at [o], [isum] at [o+1], [fp1] at [o+2], [fp2] at [o+3].
    Every kernel takes the array and the cell's offset, so a structure of
    many cells is one allocation. *)

type spec
(** The random fingerprint coefficients, shared by compatible cells. *)

val spec : Matprod_util.Prng.t -> spec

val stride : int
(** Ints per cell (4). *)

val make : int -> int array
(** [make n]: [n] zero cells, at offsets [0, stride, …]. *)

val is_zero : int array -> int -> bool
(** [is_zero a o]: the cell at offset [o] is all zero. *)

val update : spec -> int array -> int -> int -> int -> unit
(** [update spec a o i v] adds v·e_i to the cell at offset [o]. *)

val add_scaled : int array -> int -> coeff:int -> int array -> int -> unit
(** [add_scaled dst od ~coeff src os] adds coeff times the [src] cell at
    offset [os] into the [dst] cell at offset [od] (fingerprints combine
    over the field). An all-zero source cell is skipped: adding [coeff·0]
    is the identity. *)

type verdict = Zero | One of int * int | Many

val decode : spec -> int array -> int -> verdict
(** [One (i, v)] means the summarised vector is x = v·e_i (whp). *)
