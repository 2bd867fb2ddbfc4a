(* Framing and retransmission policy for the unreliable wire. The framing
   is deliberately minimal: enough redundancy (CRC32) to reject corrupted
   or truncated frames with overwhelming probability, plus a sequence
   number so duplicates and stale retransmissions are recognised. The
   retry loop itself lives in Channel.send, which owns the transcript. *)

exception Link_failure of { label : string; attempts : int }

type config = {
  max_attempts : int;
  base_timeout : float;
  max_timeout : float;
}

let default_config =
  { max_attempts = 16; base_timeout = 0.05; max_timeout = 1.6 }

let config ?(max_attempts = default_config.max_attempts)
    ?(base_timeout = default_config.base_timeout)
    ?(max_timeout = default_config.max_timeout) () =
  if max_attempts < 1 then invalid_arg "Reliable.config: max_attempts >= 1";
  if not (base_timeout > 0.0 && max_timeout >= base_timeout) then
    invalid_arg "Reliable.config: need 0 < base_timeout <= max_timeout";
  { max_attempts; base_timeout; max_timeout }

let next_timeout cfg t = Float.min cfg.max_timeout (2.0 *. t)

(* --- CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) ------------------- *)

(* Slicing-by-8: row [k] of the flat table, [crc_table.(256 * k + n)], is
   the CRC register after byte [n] followed by [k] zero bytes, so eight
   input bytes fold into the register with eight independent lookups
   instead of eight dependent ones. Row 0 is the classic bytewise table. *)
let crc_table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.((256 * (k - 1)) + n) in
      t.((256 * k) + n) <- t.(prev land 0xff) lxor (prev lsr 8)
    done
  done;
  t

let crc32_sub s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Reliable.crc32_sub";
  let t = crc_table in
  let byte i = Char.code (String.unsafe_get s i) in
  let c = ref 0xFFFFFFFF and p = ref off in
  let stop8 = off + (len land lnot 7) in
  while !p < stop8 do
    let i = !p and x = !c in
    c :=
      Array.unsafe_get t (1792 + ((x lxor byte i) land 0xff))
      lxor Array.unsafe_get t (1536 + (((x lsr 8) lxor byte (i + 1)) land 0xff))
      lxor Array.unsafe_get t (1280 + (((x lsr 16) lxor byte (i + 2)) land 0xff))
      lxor Array.unsafe_get t (1024 + ((x lsr 24) lxor byte (i + 3)))
      lxor Array.unsafe_get t (768 + byte (i + 4))
      lxor Array.unsafe_get t (512 + byte (i + 5))
      lxor Array.unsafe_get t (256 + byte (i + 6))
      lxor Array.unsafe_get t (byte (i + 7));
    p := i + 8
  done;
  for i = stop8 to off + len - 1 do
    let x = !c in
    c := Array.unsafe_get t ((x lxor byte i) land 0xff) lxor (x lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_sub s 0 (String.length s)

(* --- frames ----------------------------------------------------------- *)

type kind = Data | Ack

(* frame := kind byte ++ uvarint seq ++ uvarint |payload| ++ payload
            ++ 4-byte little-endian CRC32 of everything before it. *)

(* One buffer: header, payload, then the CRC of everything before it. *)
let frame ~kind ~seq payload =
  let plen = String.length payload in
  let body_len = 1 + Varint.size seq + Varint.size plen + plen in
  let b = Bytes.create (body_len + 4) in
  Bytes.unsafe_set b 0 (match kind with Data -> '\000' | Ack -> '\001');
  let p = Varint.put_at b 1 seq in
  let p = Varint.put_at b p plen in
  Bytes.blit_string payload 0 b p plen;
  let crc = crc32_sub (Bytes.unsafe_to_string b) 0 body_len in
  Bytes.set_int32_le b body_len (Int32.of_int crc);
  Bytes.unsafe_to_string b

let data_frame ~seq payload = frame ~kind:Data ~seq payload
let ack_frame ~seq = frame ~kind:Ack ~seq ""

(* Parsing never raises: a mangled frame is just [Error]. The CRC is
   checked in place over [s.[0 .. len-5]]; only the payload is copied. *)
let parse s =
  let len = String.length s in
  if len < 5 then Error "frame too short"
  else begin
    let body_len = len - 4 in
    let stored = Int32.to_int (String.get_int32_le s body_len) land 0xFFFFFFFF in
    if crc32_sub s 0 body_len <> stored then Error "crc mismatch"
    else begin
      let kind =
        match s.[0] with '\000' -> Some Data | '\001' -> Some Ack | _ -> None
      in
      let uvarint pos =
        match Varint.get_at s pos body_len with
        | Some (n, _) as field when n >= 0 -> field
        | _ -> None
      in
      match (kind, uvarint 1) with
      | Some kind, Some (seq, pos) -> (
          match uvarint pos with
          | Some (plen, pos) when plen = body_len - pos ->
              Ok (kind, seq, String.sub s pos plen)
          | _ -> Error "malformed frame")
      | _ -> Error "malformed frame"
    end
  end

let overhead ~seq ~payload_bytes =
  String.length (data_frame ~seq (String.make payload_bytes '\000'))
  - payload_bytes
