module Prng = Matprod_util.Prng
module Hashing = Matprod_util.Hashing
module Field31 = Matprod_util.Field31

type spec = { c1 : Hashing.t; c2 : Hashing.t }

let spec rng = { c1 = Hashing.create rng ~k:2; c2 = Hashing.create rng ~k:2 }
(* The cell layout Codec.sparse_cells ships. *)
let stride = 4
let make n = Array.make (stride * n) 0

let is_zero a o =
  a.(o) = 0 && a.(o + 1) = 0 && a.(o + 2) = 0 && a.(o + 3) = 0

(* Innermost kernel of every recovery structure: deliberately carries no
   Metrics calls — hash/cell accounting is hoisted into the callers
   (S_sparse, L0_sampler) so the enabled() branch never sits inside a
   per-coordinate loop. *)
let update spec a o i v =
  if i < 0 then invalid_arg "One_sparse.update: negative index";
  if v <> 0 then begin
    let w = Field31.of_int v in
    a.(o) <- a.(o) + v;
    a.(o + 1) <- a.(o + 1) + (i * v);
    a.(o + 2) <-
      Field31.add a.(o + 2) (Field31.mul w (Hashing.field_coeff spec.c1 i));
    a.(o + 3) <-
      Field31.add a.(o + 3) (Field31.mul w (Hashing.field_coeff spec.c2 i))
  end

let add_scaled dst od ~coeff src os =
  if coeff <> 0 && not (is_zero src os) then begin
    let c = Field31.of_int coeff in
    dst.(od) <- dst.(od) + (coeff * src.(os));
    dst.(od + 1) <- dst.(od + 1) + (coeff * src.(os + 1));
    dst.(od + 2) <- Field31.add dst.(od + 2) (Field31.mul c src.(os + 2));
    dst.(od + 3) <- Field31.add dst.(od + 3) (Field31.mul c src.(os + 3))
  end

type verdict = Zero | One of int * int | Many

let decode spec a o =
  let sum = a.(o) and isum = a.(o + 1) in
  if is_zero a o then Zero
  else if sum = 0 then Many
  else
    let i = isum / sum in
    if i < 0 || i * sum <> isum then Many
    else
      let w = Field31.of_int sum in
      let want1 = Field31.mul w (Hashing.field_coeff spec.c1 i) in
      let want2 = Field31.mul w (Hashing.field_coeff spec.c2 i) in
      if a.(o + 2) = want1 && a.(o + 3) = want2 then One (i, sum) else Many
