(* LEB128 varint over the unsigned 63-bit interpretation of the int: [lsr]
   is a logical shift, so negative bit patterns (from zigzag of huge ints)
   encode and terminate correctly, in at most 9 bytes. *)
let max_bytes = 9

let size n =
  let rec go k n = if n land lnot 0x7f = 0 then k else go (k + 1) (n lsr 7) in
  go 1 n

let put_at b p n =
  if n land lnot 0x7f = 0 then begin
    Bytes.unsafe_set b p (Char.unsafe_chr n);
    p + 1
  end
  else begin
    let p = ref p and n = ref n in
    while !n land lnot 0x7f <> 0 do
      Bytes.unsafe_set b !p (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
      incr p;
      n := !n lsr 7
    done;
    Bytes.unsafe_set b !p (Char.unsafe_chr !n);
    !p + 1
  end

let get_at s pos limit =
  let rec go p shift acc =
    if p >= limit then None
    else
      let b = Char.code s.[p] in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then Some (acc, p + 1)
      else if shift >= 63 then None
      else go (p + 1) (shift + 7) acc
  in
  go pos 0 0

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor (-(z land 1))
