(* Workload [serve]: the matprod serve daemon as its users see it.

   An in-process daemon with the default config holds the S1 pair (Gen
   n=24, density 0.2, uniform) and answers the S1 spec mix cycled to 16
   queries per batch. Client load runs in the same process and domain as
   the daemon, as an embedding application's would (a second client domain
   was measured to cost the daemon a third of its burst throughput, through
   cross-domain garbage collection):

   - paced: an open loop. One generator thread sends one batch every
     1/rate seconds, alternating over the connections, and takes a speed
     probe ([Pb.probe]) just before each is due; one reader thread
     reads every connection. Latency runs from when a batch was due to
     when its answer is in hand, so a stall also charges the batches
     queued behind it. A generator more than one period late invalidates
     the run.
   - burst: saturating [Loadgen.run] bursts, one after each paced
     segment; throughput is the median over bursts of each burst's
     answered queries per second.

   Every batch has its own seed ([Proto.batch_seed]), so the daemon's plan
   cache never hits here: this workload bypasses it. *)

open Pb
module Server = Matprod_serve.Server
module Loadgen = Matprod_serve.Loadgen
module Proto = Matprod_serve.Proto
module Ctx = Matprod_comm.Ctx
module Reliable = Matprod_comm.Reliable
module Imat = Matprod_matrix.Imat
module Workload = Matprod_workload.Workload

let n = 24
let density = 0.2
let queries_per_batch = 16
let pair = "w"
let base_specs = [ "norm:eps=0.25"; "top:k=3"; "rows:beta=0.5"; "l0:count=1" ]

let specs =
  List.init queries_per_batch (fun i ->
      List.nth base_specs (i mod List.length base_specs))

let queries = queries_of specs

(* Batches per connection in one burst; large enough that a burst lasts
   about a second on a 2-core machine. *)
let burst_batches = 32

(* Warm-up batches per session in each set-up. *)
let warm_batches = 4

(* Length of one paced segment between bursts. *)
let paced_segment_s = 2.0

(* Paced rate, batches per second: about a quarter of the daemon's burst
   capacity on a 2-core machine (40-50 batches/s). At half capacity the
   machine's slow periods pushed the daemon into saturation and the paced
   p90 stopped repeating; at a quarter it stays below half load even when
   the machine runs at half speed. *)
let rate = 10.0

(* The pair the daemon's [Gen] builds: the CLI generator's recipe. The
   oracle rebuilds it here so it never trusts the daemon's copy. *)
let s1_pair seed =
  let root = Prng.create seed in
  let rng_a = Prng.split root in
  let rng_b = Prng.split root in
  ( Imat.of_bmat (Workload.uniform_bool rng_a ~rows:n ~cols:n ~density),
    Imat.of_bmat (Workload.uniform_bool rng_b ~rows:n ~cols:n ~density) )

(* ------------------------------------------------------------------ *)
(* Daemon and raw sessions *)

type daemon = { srv : Server.t; th : Thread.t }

let start_daemon () =
  let srv = Server.create Server.default_config in
  { srv; th = Server.serve_background srv }

let stop_daemon d =
  Server.stop d.srv;
  Thread.join d.th

(* A session on a bare socket, so one reader can [select] over several. *)
type session = { fd : Unix.file_descr; session_seed : int }

let rpc fd req =
  Transport.write_frame fd (Proto.encode_request req);
  Proto.decode_response (Transport.read_frame fd)

let open_session ~port ~seed ~session_seed =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (match rpc fd (Proto.Hello { session_seed }) with
  | Proto.Welcome _ -> ()
  | _ -> invalid "serve: no Welcome");
  (match rpc fd (Proto.Gen { name = pair; n; density; seed; zipf = false }) with
  | Proto.Ready _ -> ()
  | _ -> invalid "serve: Gen refused");
  { fd; session_seed }

let close_session s =
  (try Transport.write_frame s.fd (Proto.encode_request Proto.Quit)
   with Unix.Unix_error _ -> ());
  try Unix.close s.fd with Unix.Unix_error _ -> ()

let session_seed ~seed ci = Prng.fresh_seed (Prng.derive seed ci 0x5e55)

let batch_request id = Proto.Batch { id; pair; specs }

(* ------------------------------------------------------------------ *)
(* Paced open loop *)

type sent = {
  conn : int;
  id : int;
  due : float;
  late : float;  (** generator lateness at send, s *)
  mutable done_at : float;  (** nan until answered *)
  mutable raw : string;  (** response payload, "" until read *)
  probe : float;  (** speed probe taken just before [due] *)
  mutable scale : float;  (** [Pb.speed_factor], nan until set *)
}

(* How long before a batch is due the generator starts its speed probe;
   the probe takes about 5 ms, and at a period of 100 ms the daemon has
   almost always answered the previous batch by then. *)
let probe_lead = 0.015

(* Returns every batch in send order. A batch's speed factor comes from
   its own probe and the next batch's, taken after it has (almost always)
   been answered; the last batch's from its own and a probe taken once the
   segment is over. Smoothing the factor over the probes of the batches
   around it (a second or more) tracked the host's speed less well. *)
let paced ~sessions ~duration ~first_id =
  let conns = Array.length sessions in
  let m = Mutex.create () and cv = Condition.create () in
  let pending = Array.init conns (fun _ -> Queue.create ()) in
  let outstanding = ref 0 and gen_done = ref false in
  let all = ref [] in
  let t0 = now () +. 0.02 +. probe_lead in
  let period = 1.0 /. rate in
  let total = max 1 (int_of_float (duration *. rate)) in
  let generator () =
    for k = 0 to total - 1 do
      let due = t0 +. (float_of_int k *. period) in
      let wait = due -. probe_lead -. now () in
      if wait > 0.0 then Unix.sleepf wait;
      let probe = probe () in
      let wait = due -. now () in
      if wait > 0.0 then Unix.sleepf wait;
      let conn = k mod conns in
      let r =
        {
          conn;
          id = first_id + (k / conns);
          due;
          late = now () -. due;
          done_at = nan;
          raw = "";
          probe;
          scale = nan;
        }
      in
      Mutex.lock m;
      Queue.push r pending.(conn);
      incr outstanding;
      all := r :: !all;
      Condition.signal cv;
      Mutex.unlock m;
      Transport.write_frame sessions.(conn).fd
        (Proto.encode_request (batch_request r.id))
    done;
    Mutex.lock m;
    gen_done := true;
    Condition.signal cv;
    Mutex.unlock m
  in
  let reader () =
    let finished = ref false in
    let last_progress = ref (now ()) in
    while not !finished do
      Mutex.lock m;
      while !outstanding = 0 && not !gen_done do Condition.wait cv m done;
      let live =
        List.filter (fun c -> not (Queue.is_empty pending.(c))) (List.init conns Fun.id)
      in
      if !outstanding = 0 && !gen_done then finished := true;
      Mutex.unlock m;
      if (not !finished) && live <> [] then begin
        let fds = List.map (fun c -> sessions.(c).fd) live in
        let ready, _, _ =
          try Unix.select fds [] [] 0.25
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        List.iter
          (fun c ->
            if List.mem sessions.(c).fd ready then begin
              let raw = Transport.read_frame sessions.(c).fd in
              let t = now () in
              Mutex.lock m;
              let r = Queue.pop pending.(c) in
              decr outstanding;
              Mutex.unlock m;
              r.done_at <- t;
              r.raw <- raw;
              last_progress := t
            end)
          live;
        (* A daemon that stops answering loses the rest of the phase. *)
        if now () -. !last_progress > 20.0 then finished := true
      end
    done
  in
  let g = Thread.create generator () and r = Thread.create reader () in
  Thread.join g;
  Thread.join r;
  let bs = List.rev !all in
  let afters = List.tl (List.map (fun r -> r.probe) bs) @ [ probe () ] in
  List.iter2 (fun r after -> r.scale <- speed_factor ~before:r.probe ~after) bs afters;
  bs

let answered r =
  (not (Float.is_nan r.done_at))
  &&
  match Proto.decode_response r.raw with
  | Proto.Answers _ -> true
  | _ | (exception _) -> false

let paced_phase name batches =
  let ok = List.length (List.filter answered batches) in
  let sent = List.length batches * queries_per_batch in
  { phase = name; sent; succeeded = ok * queries_per_batch;
    failed = sent - (ok * queries_per_batch) }

(* The generator must keep its schedule; otherwise latency measures the
   generator, not the daemon. *)
let check_schedule batches =
  let late_p99 = quantile (List.map (fun r -> r.late) batches) 0.99 in
  if late_p99 > 1.0 /. rate then
    invalid "serve: generator fell behind its schedule (p99 lateness %.1f ms > period %.1f ms)"
      (late_p99 *. 1e3) (1e3 /. rate);
  late_p99

(* In reference time; [wall_latencies] are the same in wall time. *)
let latencies batches =
  List.filter_map
    (fun r -> if answered r then Some ((r.done_at -. r.due) *. r.scale) else None)
    batches

(* The 90th percentile of a typical paced segment: the median over
   segments of each one's 90th percentile. The host slows down in spells
   of a few seconds that stretch the tail far more than they slow the
   speed probe, and the 90th percentile of the whole run counts however
   many spells the run happened to meet: over ten seeds in one such period
   its spread reached 0.24 of its median; over the same five runs, that of
   the whole run spread 0.068 and this median 0.045. *)
let segment_p90 segments =
  median
    (List.filter_map
       (fun seg ->
         match latencies seg with [] -> None | ls -> Some (quantile ls 0.9))
       segments)

let wall_latencies batches =
  List.filter_map
    (fun r -> if answered r then Some (r.done_at -. r.due) else None)
    batches

(* ------------------------------------------------------------------ *)
(* Oracle: a direct [Engine.run] at the batch's [Proto.batch_seed]. *)

let expected_response ~a ~b ~session_seed ~id =
  let seed = Proto.batch_seed ~session_seed ~batch_id:id in
  let run = Ctx.run ~seed (fun ctx -> Engine.run (Engine.create ()) ctx ~a ~b queries) in
  Proto.encode_response
    (Proto.Answers
       {
         id;
         bits = run.Ctx.bits;
         rounds = run.Ctx.rounds;
         replayed_bits = 0;
         answers = Array.to_list run.Ctx.output.Engine.answers;
       })

(* Up to [k] answered paced batches, evenly spread, must match byte for
   byte. *)
let check_paced ~a ~b ~sessions ~k batches =
  let ok = Array.of_list (List.filter answered batches) in
  let n_ok = Array.length ok in
  let picks = List.sort_uniq compare (List.init (min k n_ok) (fun i -> i * n_ok / max 1 (min k n_ok))) in
  List.iter
    (fun i ->
      let r = ok.(i) in
      let session_seed = sessions.(r.conn).session_seed in
      if expected_response ~a ~b ~session_seed ~id:r.id <> r.raw then
        invalid "serve: batch %d on connection %d differs from a direct Engine.run"
          r.id r.conn)
    picks;
  List.length picks

(* The burst's digest and bits must equal those of direct runs of the same
   batches. The session seeds repeat [Loadgen]'s derivation from (seed,
   connection index); should that derivation change, this check fails
   loudly rather than passing vacuously. *)
let check_burst ~a ~b ~seed ~connections (rep : Loadgen.report) =
  let digest = ref 0 and bits = ref 0 in
  for ci = 0 to connections - 1 do
    let session_seed = Prng.fresh_seed (Prng.derive seed ci 0x10ad) in
    for id = 0 to burst_batches - 1 do
      let raw = expected_response ~a ~b ~session_seed ~id in
      digest := (!digest + Reliable.crc32 raw) land ((1 lsl 30) - 1);
      match Proto.decode_response raw with
      | Proto.Answers x -> bits := !bits + x.bits
      | _ -> ()
    done
  done;
  if !digest <> rep.Loadgen.digest || !bits <> rep.Loadgen.bits then
    invalid "serve: burst digest/bits %d/%d differ from direct runs %d/%d"
      rep.Loadgen.digest rep.Loadgen.bits !digest !bits

(* ------------------------------------------------------------------ *)
(* Burst *)

let burst ~port ~seed ~connections =
  Loadgen.run ~port ~connections ~batches:burst_batches ~queries:queries_per_batch
    ~n ~density ~seed ~specs:base_specs ()

(* Answered queries per second of each burst, in reference time: the
   burst's wall time times its [Pb.speed_factor]. *)
let scaled_qps (reps : Loadgen.report list) scales =
  List.map2
    (fun r f -> float_of_int r.Loadgen.answered /. (float_of_int r.Loadgen.elapsed_ns /. 1e9 *. f))
    reps scales

let burst_phase name (reps : Loadgen.report list) =
  let sent = List.fold_left (fun a r -> a + r.Loadgen.queries) 0 reps in
  let ok = List.fold_left (fun a r -> a + r.Loadgen.answered) 0 reps in
  { phase = name; sent; succeeded = ok; failed = sent - ok }

(* Identical bursts must be identical responses. Bursts with failed
   queries are left out (their failures are counted); at least one burst
   must have answered everything. *)
let check_bursts_agree (reps : Loadgen.report list) =
  match List.filter (fun r -> r.Loadgen.errors = 0) reps with
  | [] -> invalid "serve: no burst answered every query"
  | r0 :: rest ->
      List.iter
        (fun r ->
          if r.Loadgen.digest <> r0.Loadgen.digest || r.Loadgen.bits <> r0.Loadgen.bits
          then invalid "serve: repeated bursts disagree")
        rest;
      r0

(* ------------------------------------------------------------------ *)

(* Proto and framing cost of one batch, re-timed here on the very request
   and response a paced batch exchanged. *)
let proto_cost batches =
  let rs = List.filter answered batches in
  let reps = 20 in
  let t0 = now () in
  for _ = 1 to reps do
    List.iter
      (fun r ->
        let req = Proto.encode_request (batch_request r.id) in
        ignore (Sys.opaque_identity (Proto.decode_request req));
        let resp = Proto.decode_response r.raw in
        ignore (Sys.opaque_identity (Proto.encode_response resp));
        ignore (Sys.opaque_identity (Transport.unframe (Transport.frame r.raw))))
      rs
  done;
  (now () -. t0) /. float_of_int (reps * max 1 (List.length rs))

(* Per-batch compute of a paced batch: the daemon's [ctx.run] span for the
   batch's seed, which sits inside its [serve_batch_ns] timer. *)
let compute_by_seed () =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (sp : Trace.span) ->
      if sp.Trace.name = "ctx.run" then
        match List.assoc_opt "seed" sp.Trace.attrs with
        | Some (Json.Int s) -> Hashtbl.replace tbl s (float_of_int sp.Trace.dur_ns /. 1e9)
        | _ -> ())
    (Trace.spans ());
  tbl

let run ~seed ~seconds ~trace =
  let connections = max 1 (min 2 (Domain.recommended_domain_count ())) in
  let a, b = s1_pair seed in
  let sessions_for d =
    Array.init connections (fun ci ->
        open_session ~port:(Server.port d.srv) ~seed
          ~session_seed:(session_seed ~seed ci))
  in
  let setup () =
    let d = start_daemon () in
    let sessions = sessions_for d in
    (* Warm batches: first-touch costs belong to set-up. *)
    Array.iter
      (fun s ->
        for id = 0 to warm_batches - 1 do
          match rpc s.fd (batch_request id) with
          | Proto.Answers _ -> ()
          | _ -> invalid "serve: warm-up batch failed"
        done)
      sessions;
    (d, sessions)
  in
  let teardown (d, sessions) =
    Array.iter close_session sessions;
    stop_daemon d
  in
  let (d, sessions), setup_s = repeated_setup ~times:11 ~setup ~teardown in
  let port = Server.port d.srv in
  let next_id = ref warm_batches in
  let paced_run duration =
    let first_id = !next_id in
    let bs = paced ~sessions ~duration ~first_id in
    next_id := first_id + List.length bs;
    bs
  in
  (* Paced segments alternate with single bursts until [duration] has
     passed, so both phases sample the whole run: the machine's speed
     drifts over tens of seconds, and a burst phase confined to one end of
     the run measured one drift period. Returns the paced segments, the
     bursts and each burst's speed factor. *)
  let interleaved ~duration =
    let deadline = now () +. duration in
    let rec go bs reps scales =
      if now () >= deadline && reps <> [] then (List.rev bs, List.rev reps, List.rev scales)
      else
        let b = paced_run paced_segment_s in
        let before = probe () in
        let r = burst ~port ~seed ~connections in
        let after = probe () in
        go (b :: bs) (r :: reps) (speed_factor ~before ~after :: scales)
    in
    go [] [] []
  in
  let oracle_checked = ref 0 in
  let check batches =
    oracle_checked := !oracle_checked + check_paced ~a ~b ~sessions ~k:8 batches
  in
  let finish () = teardown (d, sessions) in
  Fun.protect ~finally:finish @@ fun () ->
  if not trace then begin
    let segments, reps, scales = interleaved ~duration:seconds in
    let paced_bs = List.concat segments in
    let late_p99 = check_schedule paced_bs in
    let r0 = check_bursts_agree reps in
    check paced_bs;
    check_burst ~a ~b ~seed ~connections r0;
    let lats = latencies paced_bs in
    let phases = [ paced_phase "paced" paced_bs; burst_phase "burst" reps ] in
    let attempted = List.fold_left (fun a p -> a + p.sent) 0 phases in
    let ok = List.fold_left (fun a p -> a + p.succeeded) 0 phases in
    {
      metrics =
        [
          ("qps", median (scaled_qps reps scales), "1/s");
          ("p50_ms", 1e3 *. median lats, "ms");
          ("p90_ms", 1e3 *. segment_p90 segments, "ms");
          ( "bits_per_query",
            float_of_int r0.Loadgen.bits /. float_of_int r0.Loadgen.answered,
            "bits" );
          ("answered_share", float_of_int ok /. float_of_int attempted, "share");
          ("setup_s", setup_s, "s");
          ("peak_heap_mb", peak_heap_mb (), "MB");
        ];
      phases;
      report =
        [
          ("rate_batches_per_s", Json.Float rate);
          ("connections", Json.Int connections);
          ("paced_batches", Json.Int (List.length paced_bs));
          ("latency_samples", Json.Int (List.length lats));
          ("gen_late_ms_p99", Json.Float (1e3 *. late_p99));
          ("burst_qps", Json.List (List.map (fun r -> Json.Float r.Loadgen.qps) reps));
          ("wall_qps", Json.Float (median (List.map (fun r -> r.Loadgen.qps) reps)));
          ("wall_p50_ms", Json.Float (1e3 *. median (wall_latencies paced_bs)));
          ("pooled_p90_ms", Json.Float (1e3 *. quantile lats 0.9));
          ("burst_digest", Json.Int r0.Loadgen.digest);
          ("oracle_batches_checked", Json.Int (!oracle_checked + (connections * burst_batches)));
        ];
    }
  end
  else begin
    (* Untraced paced run first: the base of the tracing overhead. *)
    let plain = paced_run (seconds *. 0.25) in
    ignore (check_schedule plain);
    let (traced_segments, reps, _), tree =
      traced (fun () -> interleaved ~duration:(seconds *. 0.5))
    in
    let traced = List.concat traced_segments in
    let computes = compute_by_seed () in
    let spans = Trace.span_count () in
    Trace.reset ();
    let late_p99 = check_schedule traced in
    let r0 = check_bursts_agree reps in
    check plain;
    check traced;
    let queue_waits =
      List.filter_map
        (fun r ->
          if not (answered r) then None
          else
            let seed = Proto.batch_seed ~session_seed:sessions.(r.conn).session_seed ~batch_id:r.id in
            match Hashtbl.find_opt computes seed with
            | Some c -> Some (r.done_at -. r.due -. c)
            | None -> invalid "serve: no ctx.run span for batch %d" r.id)
        traced
    in
    let daemon_batches = hist_sum "serve_batch_ns" tree in
    let batch_count = counter_sum "serve_batches" tree in
    let count_k = 4 in
    let payloads = ref [] in
    let counts =
      counting_passes ~batches:(float_of_int count_k) (fun () ->
          let d = start_daemon () in
          Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
          let s = open_session ~port:(Server.port d.srv) ~seed ~session_seed:(session_seed ~seed 0) in
          payloads := [];
          for id = 1 to count_k do
            let req = Proto.encode_request (batch_request id) in
            Transport.write_frame s.fd req;
            payloads := Transport.read_frame s.fd :: req :: !payloads
          done;
          close_session s)
    in
    (* Framed with tracing off: the wire bytes of an untraced batch. *)
    let frame_bytes =
      List.fold_left (fun acc p -> acc + String.length (Transport.frame p)) 0 !payloads
    in
    let lat_traced = latencies traced and lat_plain = latencies plain in
    let phases =
      [ paced_phase "paced-plain" plain; paced_phase "paced-traced" traced;
        burst_phase "burst-traced" reps ]
    in
    {
      metrics =
        [
          ("serve.queue_wait_ms.p50", 1e3 *. median queue_waits, "ms");
          ("serve.queue_wait_ms.p90", 1e3 *. quantile queue_waits 0.9, "ms");
          ("serve.compute_ms.mean", daemon_batches /. 1e6 /. batch_count, "ms");
          ("serve.proto_us_per_batch", 1e6 *. proto_cost traced, "us");
          ("serve.frame_bytes_per_batch", float_of_int frame_bytes /. float_of_int count_k, "bytes");
          ("serve.gen_late_ms.p99", 1e3 *. late_p99, "ms");
          overhead_share ~traced_p50:(median lat_traced) ~plain_p50:(median lat_plain);
        ]
        @ time_ledger ~batches:batch_count tree
        @ work_layer counts;
      phases;
      report =
        [
          ("rate_batches_per_s", Json.Float rate);
          ("connections", Json.Int connections);
          ("traced_daemon_batches", Json.Float batch_count);
          ("spans", Json.Int spans);
          ("burst_digest", Json.Int r0.Loadgen.digest);
          ("oracle_batches_checked", Json.Int !oracle_checked);
          ("work_counters", counters_json counts);
          ("unlisted_sketch_kinds", unlisted_kinds tree);
        ];
    }
  end
