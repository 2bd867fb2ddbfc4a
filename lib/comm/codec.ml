(* Encoders write into one growable byte buffer through an int cursor;
   every primitive reserves its worst case once and then stores without
   bounds checks. Decoders read through a mutable cursor and fill arrays
   they allocate once the length is known. *)
type writer = { mutable buf : Bytes.t; mutable len : int }
type reader = { src : string; mutable pos : int }
type 'a t = { enc : writer -> 'a -> unit; dec : reader -> 'a }

exception Decode_error of string

let dec_fail msg = raise (Decode_error msg)

(* Dense-array decoders (counter_array, sparse_cells) must allocate the
   logical length, which a sparse encoding legitimately makes much larger
   than the wire bytes. This cap bounds what a corrupted or adversarial
   length prefix can make us allocate: 2^24 words ≈ 128 MB, far above any
   sketch state the library ships. *)
let max_dense_length = 1 lsl 24

let reserve w n =
  let need = w.len + n in
  if need > Bytes.length w.buf then begin
    let nb = Bytes.create (max need (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 nb 0 w.len;
    w.buf <- nb
  end

let run_enc c v =
  let w = { buf = Bytes.create 64; len = 0 } in
  c.enc w v;
  w

let encode c v =
  let w = run_enc c v in
  Bytes.sub_string w.buf 0 w.len

let decode c s =
  let r = { src = s; pos = 0 } in
  let v = c.dec r in
  if r.pos <> String.length s then dec_fail "Codec.decode: trailing bytes";
  v

let encoded_bytes c v = (run_enc c v).len

let truncated () = dec_fail "Codec: truncated input"

let get_byte r =
  let p = r.pos in
  if p >= String.length r.src then truncated ();
  r.pos <- p + 1;
  Char.code (String.unsafe_get r.src p)

let max_varint = Varint.max_bytes

(* Caller has reserved [max_varint] bytes. *)
let put_varbits w n = w.len <- Varint.put_at w.buf w.len n

let put_uvarint w n =
  if n < 0 then invalid_arg "Codec.uint: negative";
  put_varbits w n

let enc_varbits w n =
  reserve w max_varint;
  put_varbits w n

let enc_uvarint w n =
  reserve w max_varint;
  put_uvarint w n

(* [Varint]'s format read through the cursor, raising [Decode_error]. *)
let dec_uvarint_loop r =
  let s = r.src in
  let len = String.length s in
  let p = ref r.pos and acc = ref 0 and shift = ref 0 and fin = ref false in
  while not !fin do
    if !p >= len then truncated ();
    let byte = Char.code (String.unsafe_get s !p) in
    incr p;
    acc := !acc lor ((byte land 0x7f) lsl !shift);
    if byte land 0x80 = 0 then fin := true
    else if !shift >= 63 then dec_fail "Codec: varint too long"
    else shift := !shift + 7
  done;
  r.pos <- !p;
  !acc

(* Inlined, so every call site checks the one-byte case (< 128) itself. *)
let dec_uvarint r =
  let s = r.src and p = r.pos in
  if p < String.length s && Char.code (String.unsafe_get s p) < 0x80 then begin
    r.pos <- p + 1;
    Char.code (String.unsafe_get s p)
  end
  else dec_uvarint_loop r
[@@inline]

(* A 9-byte varint can set bit 63 and come out negative; every unsigned
   context (values, lengths, deltas) must reject that rather than feed a
   negative into [Array.make] or index arithmetic. *)
let dec_unonneg r =
  let n = dec_uvarint r in
  if n < 0 then dec_fail "Codec: negative unsigned varint";
  n

(* Length prefix for a sequence whose elements each occupy at least one
   byte: a well-formed count can never exceed the bytes left, so cap the
   allocation by the remaining input. *)
let dec_count r what =
  let n = dec_unonneg r in
  if n > String.length r.src - r.pos then
    dec_fail (what ^ ": length prefix exceeds remaining input");
  n

(* Dense logical length of a sparse encoding, capped before allocation. *)
let dec_dense_length r ~words_per what =
  let n = dec_unonneg r in
  if n > max_dense_length / words_per then
    dec_fail (what ^ ": dense length exceeds cap");
  n

let zigzag = Varint.zigzag
let unzigzag = Varint.unzigzag

let unit = { enc = (fun _ () -> ()); dec = (fun _ -> ()) }

let enc_byte w c =
  reserve w 1;
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr c);
  w.len <- w.len + 1

let bool =
  {
    enc = (fun w v -> enc_byte w (if v then 1 else 0));
    dec =
      (fun r ->
        match get_byte r with
        | 0 -> false
        | 1 -> true
        | _ -> dec_fail "Codec.bool: bad byte");
  }

let uint = { enc = enc_uvarint; dec = dec_unonneg }

let int =
  {
    enc = (fun w n -> enc_varbits w (zigzag n));
    dec = (fun r -> unzigzag (dec_uvarint r));
  }

(* Fixed-width little-endian fields: take the bytes, or fail truncated. *)
let take r n =
  let p = r.pos in
  if n > String.length r.src - p then truncated ();
  r.pos <- p + n;
  p

(* Callers reserve 8 (resp. 4) bytes per value. *)
let put_float64 w f =
  Bytes.set_int64_le w.buf w.len (Int64.bits_of_float f);
  w.len <- w.len + 8

let put_float32 w f =
  Bytes.set_int32_le w.buf w.len (Int32.bits_of_float f);
  w.len <- w.len + 4

let get_float64 r = Int64.float_of_bits (String.get_int64_le r.src (take r 8))
let get_float32 r = Int32.float_of_bits (String.get_int32_le r.src (take r 4))

let float64 =
  {
    enc =
      (fun w f ->
        reserve w 8;
        put_float64 w f);
    dec = get_float64;
  }

let float32 =
  {
    enc =
      (fun w f ->
        reserve w 4;
        put_float32 w f);
    dec = get_float32;
  }

let pair ca cb =
  {
    enc =
      (fun w (x, y) ->
        ca.enc w x;
        cb.enc w y);
    dec =
      (fun r ->
        let x = ca.dec r in
        let y = cb.dec r in
        (x, y));
  }

let triple ca cb cc =
  {
    enc =
      (fun w (x, y, z) ->
        ca.enc w x;
        cb.enc w y;
        cc.enc w z);
    dec =
      (fun r ->
        let x = ca.dec r in
        let y = cb.dec r in
        let z = cc.dec r in
        (x, y, z));
  }

let option c =
  {
    enc =
      (fun w -> function
        | None -> enc_byte w 0
        | Some v ->
            enc_byte w 1;
            c.enc w v);
    dec =
      (fun r ->
        match get_byte r with
        | 0 -> None
        | 1 -> Some (c.dec r)
        | _ -> dec_fail "Codec.option: bad tag");
  }

(* [n] elements decoded in wire order into a fresh array. *)
let dec_fill n dec_elt r =
  if n = 0 then [||]
  else begin
    let a = Array.make n (dec_elt r) in
    for i = 1 to n - 1 do
      Array.unsafe_set a i (dec_elt r)
    done;
    a
  end

let array c =
  {
    enc =
      (fun w a ->
        enc_uvarint w (Array.length a);
        Array.iter (c.enc w) a);
    dec = (fun r -> dec_fill (dec_count r "Codec.array") c.dec r);
  }

let list c =
  {
    enc =
      (fun w l ->
        enc_uvarint w (List.length l);
        List.iter (c.enc w) l);
    dec =
      (fun r ->
        let n = dec_count r "Codec.list" in
        let acc = ref [] in
        for _ = 1 to n do
          acc := c.dec r :: !acc
        done;
        List.rev !acc);
  }

(* Varint arrays reserve the worst case for the whole array up front and
   keep the write cursor in a local. [signed] is a constant of each codec,
   so the per-element branches on it always go the same way. *)
let varint_array ~signed =
  {
    enc =
      (fun w a ->
        let n = Array.length a in
        reserve w (max_varint * (n + 1));
        put_uvarint w n;
        let b = w.buf and p = ref w.len in
        for i = 0 to n - 1 do
          let x = Array.unsafe_get a i in
          let x =
            if signed then zigzag x
            else if x < 0 then invalid_arg "Codec.uint: negative"
            else x
          in
          p := Varint.put_at b !p x
        done;
        w.len <- !p);
    dec =
      (fun r ->
        let n = dec_count r "Codec.array" in
        let a = Array.make n 0 in
        for i = 0 to n - 1 do
          Array.unsafe_set a i
            (if signed then unzigzag (dec_uvarint r) else dec_unonneg r)
        done;
        a);
  }

let int_array = varint_array ~signed:true
let uint_array = varint_array ~signed:false

let sorted_int_array =
  {
    enc =
      (fun w a ->
        let n = Array.length a in
        reserve w (max_varint * (n + 1));
        put_uvarint w n;
        let prev = ref (-1) in
        for i = 0 to n - 1 do
          let x = Array.unsafe_get a i in
          if x <= !prev then
            invalid_arg "Codec.sorted_int_array: not strictly increasing";
          put_uvarint w (x - !prev - 1);
          prev := x
        done);
    dec =
      (fun r ->
        let n = dec_count r "Codec.sorted_int_array" in
        let a = Array.make n 0 in
        let prev = ref (-1) in
        for i = 0 to n - 1 do
          let d = dec_unonneg r in
          prev := !prev + 1 + d;
          if !prev < 0 then dec_fail "Codec.sorted_int_array: index overflow";
          Array.unsafe_set a i !prev
        done;
        a);
  }

let sparse_int_vec =
  {
    enc =
      (fun w a ->
        let n = Array.length a in
        reserve w (max_varint * ((2 * n) + 1));
        put_uvarint w n;
        let prev = ref (-1) in
        for i = 0 to n - 1 do
          let k, v = Array.unsafe_get a i in
          if k <= !prev then
            invalid_arg "Codec.sparse_int_vec: indices not increasing";
          put_uvarint w (k - !prev - 1);
          put_varbits w (zigzag v);
          prev := k
        done);
    dec =
      (fun r ->
        let n = dec_count r "Codec.sparse_int_vec" in
        let prev = ref (-1) in
        dec_fill n
          (fun r ->
            let d = dec_unonneg r in
            let v = unzigzag (dec_uvarint r) in
            prev := !prev + 1 + d;
            if !prev < 0 then dec_fail "Codec.sparse_int_vec: index overflow";
            (!prev, v))
          r);
  }

(* Fixed-width float arrays: one length check for the whole run of
   elements before the array is allocated, then unboxed stores and loads.
   [wide] (float64, else float32) is a constant of each codec. *)
let fixed_float_array ~wide =
  let width = if wide then 8 else 4 in
  {
    enc =
      (fun w a ->
        let n = Array.length a in
        reserve w (max_varint + (width * n));
        put_uvarint w n;
        let b = w.buf and p = w.len in
        for i = 0 to n - 1 do
          let f = Array.unsafe_get a i and at = p + (width * i) in
          if wide then Bytes.set_int64_le b at (Int64.bits_of_float f)
          else Bytes.set_int32_le b at (Int32.bits_of_float f)
        done;
        w.len <- p + (width * n));
    dec =
      (fun r ->
        let n = dec_count r "Codec.array" in
        let p = take r (width * n) in
        let s = r.src in
        let a = Array.create_float n in
        for i = 0 to n - 1 do
          let at = p + (width * i) in
          Array.unsafe_set a i
            (if wide then Int64.float_of_bits (String.get_int64_le s at)
             else Int32.float_of_bits (String.get_int32_le s at))
        done;
        a);
  }

let float_array = fixed_float_array ~wide:true
let float32_array = fixed_float_array ~wide:false

let bytes =
  {
    enc =
      (fun w s ->
        let n = String.length s in
        reserve w (max_varint + n);
        put_uvarint w n;
        Bytes.blit_string s 0 w.buf w.len n;
        w.len <- w.len + n);
    dec =
      (fun r ->
        let n = dec_count r "Codec.bytes" in
        String.sub r.src (take r n) n);
  }

let counter_array =
  {
    enc =
      (fun w a ->
        let len = Array.length a in
        let nz = ref 0 in
        for i = 0 to len - 1 do
          if Array.unsafe_get a i <> 0 then incr nz
        done;
        reserve w (max_varint * ((2 * !nz) + 2));
        put_uvarint w len;
        put_uvarint w !nz;
        let prev = ref (-1) in
        for i = 0 to len - 1 do
          let v = Array.unsafe_get a i in
          if v <> 0 then begin
            put_uvarint w (i - !prev - 1);
            put_uvarint w v;
            prev := i
          end
        done);
    dec =
      (fun r ->
        let len = dec_dense_length r ~words_per:1 "Codec.counter_array" in
        let n = dec_count r "Codec.counter_array" in
        (* Pairs land in an input-bounded buffer first; the dense array is
           allocated only once the whole encoding has parsed. *)
        let pairs = Array.make (2 * n) 0 in
        let prev = ref (-1) in
        for k = 0 to n - 1 do
          let d = dec_unonneg r in
          let v = dec_unonneg r in
          prev := !prev + 1 + d;
          if !prev < 0 || !prev >= len then
            dec_fail "Codec.counter_array: index beyond dense length";
          pairs.(2 * k) <- !prev;
          pairs.((2 * k) + 1) <- v
        done;
        let a = Array.make len 0 in
        for k = 0 to n - 1 do
          a.(pairs.(2 * k)) <- pairs.((2 * k) + 1)
        done;
        a);
  }

let cell_width = 4

let cell_is_zero a o =
  Array.unsafe_get a o = 0
  && Array.unsafe_get a (o + 1) = 0
  && Array.unsafe_get a (o + 2) = 0
  && Array.unsafe_get a (o + 3) = 0

let sparse_cells =
  {
    enc =
      (fun w a ->
        let len = Array.length a in
        if len mod cell_width <> 0 then
          invalid_arg "Codec.sparse_cells: length not a multiple of 4";
        let cells = len / cell_width in
        let nz = ref 0 in
        for c = 0 to cells - 1 do
          if not (cell_is_zero a (cell_width * c)) then incr nz
        done;
        reserve w (max_varint * ((5 * !nz) + 2));
        put_uvarint w cells;
        put_uvarint w !nz;
        for c = 0 to cells - 1 do
          let o = cell_width * c in
          if not (cell_is_zero a o) then begin
            put_uvarint w c;
            put_varbits w (zigzag (Array.unsafe_get a o));
            put_varbits w (zigzag (Array.unsafe_get a (o + 1)));
            put_uvarint w (Array.unsafe_get a (o + 2));
            put_uvarint w (Array.unsafe_get a (o + 3))
          end
        done);
    dec =
      (fun r ->
        let cells =
          dec_dense_length r ~words_per:cell_width "Codec.sparse_cells"
        in
        let n = dec_count r "Codec.sparse_cells" in
        (* (index, sum, isum, fp1, fp2) per listed cell, in wire order: a
           repeated index keeps its last occurrence. *)
        let listed = Array.make (5 * n) 0 in
        for k = 0 to n - 1 do
          let idx = dec_unonneg r in
          if idx >= cells then
            dec_fail "Codec.sparse_cells: cell index beyond length";
          let sum = unzigzag (dec_uvarint r) in
          let isum = unzigzag (dec_uvarint r) in
          let fp1 = dec_unonneg r in
          let fp2 = dec_unonneg r in
          let o = 5 * k in
          listed.(o) <- idx;
          listed.(o + 1) <- sum;
          listed.(o + 2) <- isum;
          listed.(o + 3) <- fp1;
          listed.(o + 4) <- fp2
        done;
        let a = Array.make (cell_width * cells) 0 in
        for k = 0 to n - 1 do
          let o = 5 * k in
          Array.blit listed (o + 1) a (cell_width * listed.(o)) cell_width
        done;
        a);
  }

let map to_wire of_wire c =
  {
    enc = (fun w v -> c.enc w (to_wire v));
    dec = (fun r -> of_wire (c.dec r));
  }
