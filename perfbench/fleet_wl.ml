(* Workload [fleet-recover]: a k-party fleet batch that loses a link and
   recovers it from its journal, on every batch.

   [Fleet.run_batch] with 4 workers, verification on, journals in a
   scratch directory of the checkout and the real [tcp] transport. The pair
   is uniform (n=128, density 0.1); the batch is [norm top:k=3 frob:eps=0.5
   hh linf exact]. On every batch link 1 crashes after its first message on attempt
   1 and resumes from its journal on attempt 2. This is the only workload
   that crosses the protocol wire (frames, CRC), writes and replays
   journals, runs the supervisor ladder, merges shards, runs [Verify], and
   hits the plan cache (links share the fleet seed). It also carries the
   benchmark's only [frobenius] group, and with it the SRHT sketch. *)

open Pb
module Fleet = Matprod_topology.Fleet
module Shard = Matprod_topology.Shard
module Ctx = Matprod_comm.Ctx
module Fault = Matprod_comm.Fault
module Transcript = Matprod_comm.Transcript
module Outcome = Matprod_core.Outcome
module Verify = Matprod_verify.Verify
module Bmat = Matprod_matrix.Bmat
module Product = Matprod_matrix.Product
module Workload = Matprod_workload.Workload

let n = 128
let density = 0.1
let workers = 4
let victim = 1
let specs = [ "norm"; "top:k=3"; "frob:eps=0.5"; "hh"; "linf"; "exact" ]

let queries = queries_of specs

let nq = List.length queries
let fixed_batches = 4

let uniform_pair seed =
  let root = Prng.create seed in
  let rng_a = Prng.split root in
  let rng_b = Prng.split root in
  ( Workload.uniform_bool rng_a ~rows:n ~cols:n ~density,
    Workload.uniform_bool rng_b ~rows:n ~cols:n ~density )

(* Both parties of the victim link die on their first send once one
   message has crossed: attempt 1 leaves a one-message journal. *)
let crash ctx =
  Ctx.install_wire ctx
    ~fault:
      (Fault.create
         ~crashes:
           (List.map
              (fun victim -> { Fault.victim; site = Fault.After_messages 1 })
              [ Transcript.Alice; Transcript.Bob ])
         ~seed:1 [])
    ()

(* Link timing from the public seams: an attempt starts when the [?wire]
   hook arms its context and ends when its transport is closed. *)
type link_clock = { mutable open_at : (int * float) option; spent : float array }

let new_clock () = { open_at = None; spent = Array.make workers 0.0 }

let on_close clock () =
  match clock.open_at with
  | Some (rank, t) ->
      clock.spent.(rank) <- clock.spent.(rank) +. (now () -. t);
      clock.open_at <- None
  | None -> ()

let wire ?clock ~rank ~replica:_ ~attempt ctx =
  Option.iter (fun c -> c.open_at <- Some (rank, now ())) clock;
  if rank = victim && attempt = 1 then crash ctx

(* What a run keeps of one whole batch. Reports are large (the exact
   product rides in them), so only the first [keep] batches retain theirs,
   for the oracle; the traced loop re-times coordinator work at once. *)
type done_batch = {
  seed : int;
  lat : float;  (** reference time (see [Pb.speed_factor]) *)
  wall : float;  (** the same latency in wall time *)
  bits : int;
  rep : Fleet.batch_report option;
  links_ms : float list;  (** traced: per-link wall time of its attempts *)
  attempts : int;  (** traced: supervisor attempts over all links *)
  merge_s : float;  (** traced: [Engine.merge_answers] re-timed *)
  verify_s : float;  (** traced: [Verify.summarize] + [check_answer] re-timed *)
}

let config ~journal ~transport seed =
  Fleet.config ~verify:true ~journal ~transport ~workers ~seed ()

let answers_of (rep : Fleet.batch_report) = Outcome.graded_value rep.Fleet.batch_answers

(* The victim link must have recovered on its second attempt by a journal
   resume and every other link must have answered at once; anything else
   means the scenario itself did not happen. *)
let check_recovered (rep : Fleet.batch_report) =
  List.iter
    (fun (l : Fleet.batch_link) ->
      let expected = if l.Fleet.b_rank = victim then 2 else 1 in
      if List.length l.Fleet.b_attempts <> expected then
        invalid "fleet-recover: link %d took %d attempts" l.Fleet.b_rank
          (List.length l.Fleet.b_attempts))
    rep.Fleet.batch_links

(* Coordinator-side costs re-timed on a batch's own link answers. *)
let retime_merge ~seed (rep : Fleet.batch_report) =
  let parts qi =
    List.filter_map
      (fun (l : Fleet.batch_link) ->
        match l.Fleet.b_answers with
        | Ok ans -> Some (l.Fleet.b_range.Shard.offset, l.Fleet.b_range.Shard.length, ans.(qi))
        | Error _ -> None)
      rep.Fleet.batch_links
  in
  let t0 = now () in
  List.iteri
    (fun qi q -> ignore (Sys.opaque_identity (Engine.merge_answers ~seed ~rows:n q (parts qi))))
    queries;
  now () -. t0

let retime_verify ~a ~b ~seed (rep : Fleet.batch_report) =
  let t0 = now () in
  List.iter
    (fun (l : Fleet.batch_link) ->
      match l.Fleet.b_answers with
      | Ok ans ->
          let s = Verify.summarize ~name:"engine" ~a:(Shard.slice a l.Fleet.b_range) ~b in
          List.iteri
            (fun qi q -> ignore (Sys.opaque_identity (Verify.check_answer s ~seed q ans.(qi))))
            queries
      | Error _ -> ())
    rep.Fleet.batch_links;
  now () -. t0

(* Back-to-back batches until [duration] has passed, each due the moment
   the previous answer is in hand but for a speed probe between them. A
   batch that errs or comes back degraded (fewer than all workers) is
   counted as failed and gives no latency sample. Returns the whole
   batches, the failed count and the time all batches took, in reference
   time. *)
let loop ?(traced = false) ?(keep = 0) engine ~a ~b ~journal ~seed ~first ~duration =
  let deadline = now () +. duration in
  let failed = ref 0 and busy = ref 0.0 and before = ref (probe ()) in
  let rec go k acc =
    if now () >= deadline && (acc <> [] || !failed > 0) then
      (List.rev acc, !failed, !busy)
    else begin
      let s = batch_seed ~seed k in
      let clock = if traced then Some (new_clock ()) else None in
      let transport () =
        match clock with
        | Some c -> timed_transport ~on_close:(on_close c) (Transport.tcp_loopback ())
        | None -> Transport.tcp_loopback ()
      in
      let t0 = now () in
      let res = Fleet.run_batch ~wire:(wire ?clock) (config ~journal ~transport s) engine queries ~a ~b in
      let wall = now () -. t0 in
      let after = probe () in
      let lat = wall *. speed_factor ~before:!before ~after in
      before := after;
      busy := !busy +. lat;
      match res with
      | Ok rep
        when rep.Fleet.batch_survivors = workers
             && not (Outcome.is_degraded rep.Fleet.batch_answers) ->
          check_recovered rep;
          let d =
            {
              seed = s;
              lat;
              wall;
              bits = rep.Fleet.batch_fresh_bits;
              rep = (if k - first < keep then Some rep else None);
              links_ms = [];
              attempts = 0;
              merge_s = 0.0;
              verify_s = 0.0;
            }
          in
          let d =
            match clock with
            | None -> d
            | Some c ->
                (* Re-timings stay out of the metrics the phase records. *)
                Metrics.set_enabled false;
                let merge_s = retime_merge ~seed:s rep in
                let verify_s = retime_verify ~a ~b ~seed:s rep in
                Metrics.set_enabled true;
                {
                  d with
                  links_ms = Array.to_list (Array.map (fun x -> 1e3 *. x) c.spent);
                  attempts =
                    List.fold_left
                      (fun acc (l : Fleet.batch_link) -> acc + List.length l.Fleet.b_attempts)
                      0 rep.Fleet.batch_links;
                  merge_s;
                  verify_s;
                }
          in
          go (k + 1) (d :: acc)
      | Ok rep ->
          log "fleet-recover: batch %d degraded to %d survivors" k rep.Fleet.batch_survivors;
          incr failed;
          go (k + 1) acc
      | Error e ->
          log "fleet-recover: batch %d failed: %s" k (Outcome.error_to_string e);
          incr failed;
          go (k + 1) acc
    end
  in
  go first []

(* Oracle: the crashed-and-resumed batch equals a run with no crash, and
   the exact-product answer equals the product computed here. *)
let check ~a ~b ~journal ~exact (d : done_batch) =
  match d.rep with
  | None -> ()
  | Some rep -> (
      let cfg = config ~journal ~transport:Transport.tcp_loopback d.seed in
      match Fleet.run_batch cfg (Engine.create ()) queries ~a ~b with
      | Error e ->
          invalid "fleet-recover: no-crash run failed: %s" (Outcome.error_to_string e)
      | Ok clean ->
          if answers_of clean <> answers_of rep then
            invalid "fleet-recover: recovered answers differ from a no-crash run (seed %d)"
              d.seed;
          List.iteri
            (fun i q ->
              match (q, (answers_of rep).(i)) with
              | Engine.Exact_product, Engine.Shares (entries, []) ->
                  if entries <> exact then
                    invalid "fleet-recover: exact shares differ from A.B"
              | Engine.Exact_product, _ -> invalid "fleet-recover: exact answer shape"
              | _ -> ())
            queries)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let run ~seed ~seconds ~trace =
  (* Journals live in the checkout, never in a system temp directory. *)
  let base = ".perfbench_tmp" in
  let dir = Filename.concat base (Printf.sprintf "fleet-%d" (Unix.getpid ())) in
  if not (Sys.file_exists base) then Unix.mkdir base 0o755;
  Unix.mkdir dir 0o755;
  let cleanup () =
    rm_rf dir;
    try Unix.rmdir base with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let journal = Filename.concat dir "batch" in
  let setup () =
    let a, b = uniform_pair seed in
    let engine = Engine.create () in
    ignore (loop engine ~a ~b ~journal ~seed:(seed + 1) ~first:(-1) ~duration:0.0);
    (a, b, engine)
  in
  let (a, b, engine), setup_s = repeated_setup ~times:11 ~setup ~teardown:ignore in
  let exact =
    let e = Product.entries (Product.bool_product a b) in
    List.sort compare (Array.to_list e)
  in
  let oracle_batches = 2 in
  let oracle bs = List.iter (check ~a ~b ~journal ~exact) (List.filteri (fun i _ -> i < oracle_batches) bs) in
  let phase = batch_phase ~nq in
  let lats bs = List.map (fun d -> d.lat) bs in
  if not trace then begin
    let ((bs, _, busy) as run) =
      loop ~keep:oracle_batches engine ~a ~b ~journal ~seed ~first:0 ~duration:seconds
    in
    if List.length bs < fixed_batches then
      invalid "fleet-recover: only %d batches answered" (List.length bs);
    oracle bs;
    let fixed = List.filteri (fun i _ -> i < fixed_batches) bs in
    let bits = List.fold_left (fun acc d -> acc + d.bits) 0 fixed in
    let p = phase "batches" run in
    {
      metrics =
        [
          ("qps", float_of_int p.succeeded /. busy, "1/s");
          ("p50_ms", 1e3 *. median (lats bs), "ms");
          ("p90_ms", 1e3 *. quantile (lats bs) 0.9, "ms");
          ("bits_per_query", float_of_int bits /. float_of_int (nq * fixed_batches), "bits");
          ("answered_share", float_of_int p.succeeded /. float_of_int p.sent, "share");
          ("setup_s", setup_s, "s");
          ("peak_heap_mb", peak_heap_mb (), "MB");
        ];
      phases = [ p ];
      report =
        [
          ("batches", Json.Int (List.length bs));
          ("wall_p50_ms", Json.Float (1e3 *. median (List.map (fun d -> d.wall) bs)));
        ];
    }
  end
  else begin
    let ((plain_bs, plain_failed, _) as plain) =
      loop ~keep:oracle_batches engine ~a ~b ~journal ~seed ~first:0 ~duration:(seconds *. 0.4)
    in
    let traced, tree =
      traced (fun () ->
          loop ~traced:true engine ~a ~b ~journal ~seed
            ~first:(List.length plain_bs + plain_failed)
            ~duration:(seconds *. 0.6))
    in
    let spans = Trace.span_count () in
    Trace.reset ();
    oracle plain_bs;
    let traced_bs, _, _ = traced in
    let batches = float_of_int (List.length traced_bs) in
    let per_batch f = List.fold_left (fun acc d -> acc +. f d) 0.0 traced_bs /. batches in
    let k = 2 in
    let counts =
      counting_passes ~batches:(float_of_int k) (fun () ->
          let engine = Engine.create () in
          ignore (loop engine ~a ~b ~journal ~seed ~first:0 ~duration:0.0);
          ignore (loop engine ~a ~b ~journal ~seed ~first:1 ~duration:0.0))
    in
    {
      metrics =
        [
          ("topology.link_ms.p50", median (List.concat_map (fun d -> d.links_ms) traced_bs), "ms");
          ("topology.merge_ms", 1e3 *. per_batch (fun d -> d.merge_s), "ms");
          ("topology.attempts_per_batch", per_batch (fun d -> float_of_int d.attempts), "count");
          ("verify.check_ms", 1e3 *. per_batch (fun d -> d.verify_s), "ms");
          overhead_share ~traced_p50:(median (lats traced_bs)) ~plain_p50:(median (lats plain_bs));
        ]
        @ time_ledger ~batches tree
        @ work_layer counts;
      phases = [ phase "batches-plain" plain; phase "batches-traced" traced ];
      report =
        [
          ("spans", Json.Int spans);
          ("work_counters", counters_json counts);
          ("unlisted_sketch_kinds", unlisted_kinds tree);
        ];
    }
  end
