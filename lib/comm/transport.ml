module Trace = Matprod_obs.Trace

exception Frame_error of string

let max_frame_bytes = 1 lsl 26 (* 64 MiB: far above any protocol message *)

let fail fmt = Printf.ksprintf (fun s -> raise (Frame_error s)) fmt

(* Frame layout on the wire:
     len   : 4 bytes, big-endian — length of everything after these 4 bytes
     flags : 1 byte — bit 0: an 18-byte telemetry context frame follows
     ctx   : Trace.context_frame_length bytes, iff flags bit 0
     payload
     crc   : 4 bytes, big-endian — CRC32 (IEEE) over flags..payload *)

let get_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

(* One buffer: prefix, flags, ctx and payload, then the CRC over
   flags..payload computed in place. *)
let frame payload =
  let ctx = if Trace.enabled () then Trace.context_frame () else "" in
  let clen = String.length ctx and plen = String.length payload in
  let len = 1 + clen + plen + 4 in
  if len > max_frame_bytes then
    fail "frame: payload of %d bytes exceeds max_frame_bytes" plen;
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.set b 4 (if clen = 0 then '\000' else '\001');
  Bytes.blit_string ctx 0 b 5 clen;
  Bytes.blit_string payload 0 b (5 + clen) plen;
  let crc = Reliable.crc32_sub (Bytes.unsafe_to_string b) 4 (len - 4) in
  Bytes.set_int32_be b len (Int32.of_int crc);
  Bytes.unsafe_to_string b

(* The body is [s.[off .. off+n-1]], everything after the length prefix:
   flags..payload ++ crc. The CRC is checked in place; only the payload
   (and the context, when present) is copied out. *)
let decode_body s off n =
  if n < 5 then fail "frame: body of %d bytes is shorter than flags+crc" n;
  let checked = n - 4 in
  if Reliable.crc32_sub s off checked <> get_u32 s (off + checked) then
    fail "frame: CRC mismatch";
  let flags = Char.code s.[off] in
  if flags land lnot 1 <> 0 then fail "frame: unknown flags 0x%02x" flags;
  let ctx_len = if flags land 1 = 1 then Trace.context_frame_length else 0 in
  if checked < 1 + ctx_len then fail "frame: truncated telemetry context";
  let ctx =
    if ctx_len = 0 then None else Some (String.sub s (off + 1) ctx_len)
  in
  (String.sub s (off + 1 + ctx_len) (checked - 1 - ctx_len), ctx)

let unframe s =
  if String.length s < 4 then fail "frame: missing length prefix";
  let len = get_u32 s 0 in
  if len > max_frame_bytes then fail "frame: declared length %d too large" len;
  if String.length s <> 4 + len then
    fail "frame: declared length %d, have %d bytes" len (String.length s - 4);
  decode_body s 4 len

(* Blocking, full-buffer socket I/O for the serve daemon. *)

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

let write_frame fd payload =
  let f = frame payload in
  write_all fd (Bytes.unsafe_of_string f) 0 (String.length f)

let read_exact fd len ~what =
  let b = Bytes.create len in
  let rec go off =
    if off < len then begin
      let n = Unix.read fd b off (len - off) in
      if n = 0 then
        if off = 0 && what = `Header then raise End_of_file
        else fail "frame: peer closed mid-frame";
      go (off + n)
    end
  in
  go 0;
  Bytes.unsafe_to_string b

let read_frame_ctx fd =
  let hdr = read_exact fd 4 ~what:`Header in
  let len = get_u32 hdr 0 in
  if len > max_frame_bytes then fail "frame: declared length %d too large" len;
  decode_body (read_exact fd len ~what:`Body) 0 len

let read_frame fd = fst (read_frame_ctx fd)

(* Backends *)

module type S = sig
  type conn

  val name : string

  val deliver :
    conn -> from:Transcript.party -> label:string -> string -> string

  val close : conn -> unit
end

type t = Conn : (module S with type conn = 'a) * 'a -> t

let name (Conn ((module B), _)) = B.name
let deliver (Conn ((module B), c)) ~from ~label payload =
  B.deliver c ~from ~label payload
let close (Conn ((module B), c)) = B.close c

module Sim = struct
  type conn = unit

  let name = "sim"
  let deliver () ~from:_ ~label:_ payload = payload
  let close () = ()
end

let sim () = Conn ((module Sim), ())

module Tcp = struct
  (* Both ends live in this process: Alice holds [a], Bob holds [b].
     [deliver] writes on the sender's end and reads the frame back on the
     receiver's end, interleaved under [select] so a payload larger than
     the kernel socket buffers cannot deadlock the single thread driving
     both ends. *)
  type conn = {
    a : Unix.file_descr;
    b : Unix.file_descr;
    mutable closed : bool;
    mutable delivered : int;
  }

  let name = "tcp"

  let close c =
    if not c.closed then begin
      c.closed <- true;
      (try Unix.close c.a with Unix.Unix_error _ -> ());
      try Unix.close c.b with Unix.Unix_error _ -> ()
    end

  let chunk = 65536

  let deliver c ~from ~label payload =
    if c.closed then fail "tcp: deliver on closed transport (label %s)" label;
    let wfd, rfd =
      match from with
      | Transcript.Alice -> (c.a, c.b)
      | Transcript.Bob -> (c.b, c.a)
    in
    let out = frame payload in
    let out_b = Bytes.unsafe_of_string out in
    let total = Bytes.length out_b in
    let sent = ref 0 in
    (* Receive the 4-byte prefix first, then the rest of the frame
       straight into a buffer of exactly the declared size. *)
    let inbuf = ref (Bytes.create 4) in
    let have = ref 0 in
    let missing () = Bytes.length !inbuf - !have in
    let rec pump () =
      let need = missing () in
      let writing = !sent < total in
      if need > 0 || writing then begin
        let rl = if need > 0 then [ rfd ] else [] in
        let wl = if writing then [ wfd ] else [] in
        let r, w, _ = Unix.select rl wl [] 10.0 in
        if r = [] && w = [] then
          fail "tcp: delivery stalled for 10s (label %s)" label;
        if w <> [] then begin
          let n = Unix.write wfd out_b !sent (min chunk (total - !sent)) in
          sent := !sent + n
        end;
        if r <> [] then begin
          let n = Unix.read rfd !inbuf !have (min chunk need) in
          if n = 0 then fail "tcp: peer closed mid-frame (label %s)" label;
          have := !have + n;
          if !have = 4 && Bytes.length !inbuf = 4 then begin
            let len = get_u32 (Bytes.unsafe_to_string !inbuf) 0 in
            if len > max_frame_bytes then
              fail "frame: declared length %d too large" len;
            let full = Bytes.create (4 + len) in
            Bytes.blit !inbuf 0 full 0 4;
            inbuf := full
          end
        end;
        pump ()
      end
    in
    pump ();
    c.delivered <- c.delivered + 1;
    fst (unframe (Bytes.unsafe_to_string !inbuf))
end

let tcp_loopback () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let a =
    try
      Unix.setsockopt listener Unix.SO_REUSEADDR true;
      Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen listener 1;
      let addr = Unix.getsockname listener in
      let a = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.set_nonblock a;
         (try Unix.connect a addr with
         | Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> ());
         a
       with e ->
         Unix.close a;
         raise e)
    with e ->
      Unix.close listener;
      raise e
  in
  let b, _ = Unix.accept listener in
  Unix.close listener;
  (* Loopback connects resolve immediately once accepted; wait for
     writability to be safe, then restore blocking mode. *)
  (match Unix.select [] [ a ] [] 5.0 with
  | _, [ _ ], _ -> ()
  | _ ->
      Unix.close a;
      Unix.close b;
      fail "tcp: loopback connect did not complete");
  Unix.clear_nonblock a;
  Unix.setsockopt a Unix.TCP_NODELAY true;
  Unix.setsockopt b Unix.TCP_NODELAY true;
  Conn ((module Tcp), { Tcp.a; b; closed = false; delivered = 0 })

type factory = unit -> t

let of_string = function
  | "sim" -> Ok (fun () -> sim ())
  | "tcp" -> Ok (fun () -> tcp_loopback ())
  | s -> Error (Printf.sprintf "unknown transport %S (expected sim|tcp)" s)
