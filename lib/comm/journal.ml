module Metrics = Matprod_obs.Metrics
module Trace = Matprod_obs.Trace

type entry = {
  sender : Transcript.party;
  label : string;
  payload : string;
}

let entry_bytes e = String.length e.payload

type t = {
  protocol : string;
  seed : int;
  entries : entry list;
  clean : bool;
  origin_trace : int64 option;
}

exception Replay_mismatch of { label : string; reason : string }

let magic = "MPJ1"
let version = '\x01'
let entry_tag = 'M'
let trace_tag = 'T'

(* --- raw fields --------------------------------------------------------- *)

(* Readers over a string; [None] on any malformed field. *)
let get_uvarint s pos = Varint.get_at s pos (String.length s)

let get_zigzag s pos =
  match get_uvarint s pos with
  | None -> None
  | Some (u, p) -> Some (Varint.unzigzag u, p)

(* [n] bytes at [pos] lie inside [s]; written to be overflow-free for any
   decoded length. *)
let fits s pos n = n >= 0 && n <= String.length s - pos

let get_bytes s pos n =
  if fits s pos n then Some (String.sub s pos n, pos + n) else None

let get_crc32_le s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF

(* --- record bodies --------------------------------------------------- *)

let sender_byte = function Transcript.Alice -> '\x00' | Transcript.Bob -> '\x01'

(* One buffer: tag, body, then the CRC of the body computed in place. *)
let entry_record e =
  let llen = String.length e.label and plen = String.length e.payload in
  let body_len =
    1 + Varint.size llen + llen + Varint.size plen + plen
  in
  let b = Bytes.create (body_len + 5) in
  Bytes.set b 0 entry_tag;
  Bytes.set b 1 (sender_byte e.sender);
  let p = Varint.put_at b 2 llen in
  Bytes.blit_string e.label 0 b p llen;
  let p = Varint.put_at b (p + llen) plen in
  Bytes.blit_string e.payload 0 b p plen;
  let crc = Reliable.crc32_sub (Bytes.unsafe_to_string b) 1 body_len in
  Bytes.set_int32_le b (1 + body_len) (Int32.of_int crc);
  Bytes.unsafe_to_string b

(* Trace records are telemetry, not transcript: they let a resumed run
   link its spans back to the crashed run's trace, and replay ignores
   them entirely. Same tag+body+crc framing as entries. *)
let trace_record tid =
  let b = Bytes.create 13 in
  Bytes.set b 0 trace_tag;
  Bytes.set_int64_le b 1 tid;
  let crc = Reliable.crc32_sub (Bytes.unsafe_to_string b) 1 8 in
  Bytes.set_int32_le b 9 (Int32.of_int crc);
  Bytes.unsafe_to_string b

let header ~protocol ~seed =
  let plen = String.length protocol and z = Varint.zigzag seed in
  let mlen = String.length magic in
  let b =
    Bytes.create (mlen + 1 + Varint.size plen + plen + Varint.size z)
  in
  Bytes.blit_string magic 0 b 0 mlen;
  Bytes.set b mlen version;
  let p = Varint.put_at b (mlen + 1) plen in
  Bytes.blit_string protocol 0 b p plen;
  ignore (Varint.put_at b (p + plen) z);
  Bytes.unsafe_to_string b

let to_bytes ~protocol ~seed entries =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (header ~protocol ~seed);
  List.iter (fun e -> Buffer.add_string buf (entry_record e)) entries;
  Buffer.contents buf

(* --- parsing --------------------------------------------------------- *)

let parse_entry s pos =
  (* [None] = this record (and hence the rest of the log) is unusable.
     Field extents are found first and the CRC checked in place; label and
     payload are copied only from a record that checks. *)
  if pos >= String.length s || s.[pos] <> entry_tag then None
  else
    let body_start = pos + 1 in
    match get_uvarint s (body_start + 1) with
    | Some (label_len, label_at) when fits s label_at label_len -> (
        match get_uvarint s (label_at + label_len) with
        | Some (payload_len, payload_at) when fits s payload_at payload_len
          -> (
            let body_end = payload_at + payload_len in
            let sender =
              match s.[body_start] with
              | '\x00' -> Some Transcript.Alice
              | '\x01' -> Some Transcript.Bob
              | _ -> None
            in
            match sender with
            | Some sender
              when fits s body_end 4
                   && Reliable.crc32_sub s body_start (body_end - body_start)
                      = get_crc32_le s body_end ->
                let label = String.sub s label_at label_len in
                let payload = String.sub s payload_at payload_len in
                Some ({ sender; label; payload }, body_end + 4)
            | _ -> None)
        | _ -> None)
    | _ -> None

let parse_trace s pos =
  if pos >= String.length s || s.[pos] <> trace_tag || not (fits s (pos + 1) 12)
  then None
  else if Reliable.crc32_sub s (pos + 1) 8 <> get_crc32_le s (pos + 9) then None
  else Some (String.get_int64_le s (pos + 1), pos + 13)

let of_bytes s =
  let mlen = String.length magic in
  if String.length s < mlen + 1 || String.sub s 0 mlen <> magic then
    Error "Journal: bad magic"
  else if s.[mlen] <> version then Error "Journal: unsupported version"
  else
    match get_uvarint s (mlen + 1) with
    | None -> Error "Journal: truncated header"
    | Some (plen, p) -> (
        match get_bytes s p plen with
        | None -> Error "Journal: truncated protocol id"
        | Some (protocol, p) -> (
            match get_zigzag s p with
            | None -> Error "Journal: truncated seed"
            | Some (seed, p) ->
                let rec records acc origin pos =
                  if pos = String.length s then (List.rev acc, origin, true)
                  else if s.[pos] = trace_tag then
                    match parse_trace s pos with
                    | Some (tid, next) ->
                        let origin =
                          match origin with None -> Some tid | some -> some
                        in
                        records acc origin next
                    | None -> (List.rev acc, origin, false)
                  else
                    match parse_entry s pos with
                    | Some (e, next) -> records (e :: acc) origin next
                    | None -> (List.rev acc, origin, false)
                in
                let entries, origin_trace, clean = records [] None p in
                Ok { protocol; seed; entries; clean; origin_trace }))

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_bytes s
  | exception Sys_error m -> Error m
  | exception End_of_file -> Error "Journal: unreadable file"

(* --- appending ------------------------------------------------------- *)

type writer = { oc : out_channel; mutable closed : bool }

let c_appends = Metrics.counter "journal_appends"
let c_append_bytes = Metrics.counter "journal_append_bytes"
let c_telemetry = Metrics.counter "telemetry_bytes"

(* The trace record is out-of-band metadata: its bytes count only toward
   telemetry_bytes, never toward the transcript or journal entry stats. *)
let put_trace_record oc tid =
  let record = trace_record tid in
  output_string oc record;
  if Metrics.enabled () then Metrics.incr_by c_telemetry (String.length record)

let create ~path ~protocol ~seed =
  let oc = open_out_bin path in
  output_string oc (header ~protocol ~seed);
  if Trace.enabled () then put_trace_record oc (Trace.trace_id ());
  flush oc;
  { oc; closed = false }

let reopen ~path t =
  let oc = open_out_bin path in
  output_string oc (header ~protocol:t.protocol ~seed:t.seed);
  (match t.origin_trace with
  | Some tid -> put_trace_record oc tid
  | None -> ());
  List.iter (fun e -> output_string oc (entry_record e)) t.entries;
  flush oc;
  { oc; closed = false }

let append w ~sender ~label ~payload =
  if w.closed then invalid_arg "Journal.append: writer closed";
  let record = entry_record { sender; label; payload } in
  output_string w.oc record;
  (* Flush per record: an in-process "crash" (exception) or a real one may
     strike at any point, and recovery must see every completed message. *)
  flush w.oc;
  if Metrics.enabled () then begin
    Metrics.incr c_appends;
    Metrics.incr_by c_append_bytes (String.length record)
  end

let close w =
  if not w.closed then begin
    w.closed <- true;
    close_out_noerr w.oc
  end
