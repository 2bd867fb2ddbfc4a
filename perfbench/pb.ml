(* Shared plumbing for the workloads: wall-clock helpers, order
   statistics, the metric sink, and the readers that turn the program's own
   exported counters ([Metrics] scope tree, [Trace] spans) into per-layer
   figures, and the machine-speed probe that scales end-to-end timings.
   Nothing here instruments the library: the only probes the benchmark
   adds inside a run are its own [Transport.S] wrapper and the [?wire]
   hook, both public seams. *)

module Json = Matprod_obs.Json
module Metrics = Matprod_obs.Metrics
module Trace = Matprod_obs.Trace
module Transport = Matprod_comm.Transport
module Engine = Matprod_engine.Engine
module Prng = Matprod_util.Prng
module Pool = Matprod_util.Pool

let now () = Unix.gettimeofday ()

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* A broken oracle or a generator that fell behind aborts the run without a
   result line: the caller sees a non-zero exit and the reason on stderr. *)
exception Invalid_run of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid_run s)) fmt

let queries_of specs =
  List.map
    (fun s ->
      match Engine.query_of_string s with
      | Ok q -> q
      | Error e -> invalid "bad spec %s: %s" s e)
    specs

(* ------------------------------------------------------------------ *)
(* Order statistics *)

(* Linear interpolation between closest ranks (the "inclusive" method). *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let j = min (n - 1) (i + 1) in
    let f = pos -. float_of_int i in
    a.(i) +. (f *. (a.(j) -. a.(i)))

let median xs = quantile xs 0.5

(* ------------------------------------------------------------------ *)
(* Results *)

(* One phase of a workload: queries sent, answered, failed. A failed query
   (Err batch, refused or lost connection) contributes no latency sample. *)
type phase = { phase : string; sent : int; succeeded : int; failed : int }

(* A phase of back-to-back batches of [nq] queries each: the answered
   batches, the failed count and the elapsed time, as the loops return
   them. *)
let batch_phase ~nq name (answered, failed, _) =
  let ok = nq * List.length answered in
  { phase = name; sent = ok + (nq * failed); succeeded = ok; failed = nq * failed }

let phase_json p =
  Json.Obj
    [
      ("phase", Json.String p.phase);
      ("sent", Json.Int p.sent);
      ("succeeded", Json.Int p.succeeded);
      ("failed", Json.Int p.failed);
    ]

(* What a workload hands back to the entry point. [metrics] carries every
   figure the run measured (end-to-end or per-layer, depending on the
   trace flag); [report] is free-form context printed beside the result. *)
type outcome = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  phases : phase list;
  report : (string * Json.t) list;
}

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ------------------------------------------------------------------ *)
(* Machine speed *)

(* A small shared host changes speed under the benchmark: by a third and
   more, for seconds to minutes at a time, through the cores, caches and
   memory it shares with its neighbours. Wall time alone measures that as
   much as the program. So the benchmark times a fixed kernel of its own
   right before and right after every measured stretch, and scales the
   stretch's timings by [reference_probe_s] over the kernel's time: every
   end-to-end timing reads as it would with the kernel at its reference
   speed. On the 2-core calibration host, over paced serve batches grouped
   by the second, the scaling cut the standard deviation of log latency
   from 0.08-0.12 to 0.06-0.09. The kernel uses nothing from the library,
   so a change to the program does not move it, and allocates nothing, so
   the program's heap does not slow it (a kernel that sorted boxed pairs
   tracked the host no better, and its time hangs on the garbage
   collector's work and so on the program's heap). Each run reports its
   raw wall figures and its probes too. *)

let probe_cells = 1 lsl 15
let probe_table = Array.make probe_cells 0

(* Hashing, dependent loads and stores over a 256 KiB table, and float
   arithmetic: about a millisecond. *)
let probe_kernel () =
  let t = probe_table in
  let h = ref 0x2545f491 and acc = ref 0.0 in
  for i = 1 to 170_000 do
    h := !h lxor (!h lsl 13);
    h := !h lxor (!h lsr 7);
    h := !h lxor (!h lsl 17);
    let j = (!h + t.(i land (probe_cells - 1))) land (probe_cells - 1) in
    t.(j) <- t.(j) + i;
    acc := (!acc *. 0.999) +. float_of_int (t.(j) land 1023)
  done;
  ignore (Sys.opaque_identity !acc)

(* Every probe of the run, newest first, for the report. *)
let probes = ref []

(* Seconds of one kernel run, the median of five. *)
let probe () =
  let p =
    median
      (List.init 5 (fun _ ->
           let t0 = now () in
           probe_kernel ();
           now () -. t0))
  in
  probes := p :: !probes;
  p

(* [probe] at the machine's usual speed: the median probe of ten runs of
   each workload on a 2-core host with nproc 2. *)
let reference_probe_s = 1.1e-3

(* Multiplies a wall time measured between probes [before] and [after]
   into reference time. *)
let speed_factor ~before ~after = reference_probe_s /. (0.5 *. (before +. after))

let probe_report () =
  [
    ("probe_ms_median", Json.Float (1e3 *. median !probes));
    ("probes", Json.Int (List.length !probes));
    ("speed_factor_median", Json.Float (reference_probe_s /. median !probes));
  ]

(* [setup_s] is the median of several full set-ups per run, each in
   reference time; each set-up but the last is torn down again. *)
let repeated_setup ~times ~setup ~teardown =
  let rec go k before acc =
    let t0 = now () in
    let v = setup () in
    let dt = now () -. t0 in
    let after = probe () in
    let dt = dt *. speed_factor ~before ~after in
    if k = 1 then (v, median (dt :: acc))
    else begin
      teardown v;
      go (k - 1) after (dt :: acc)
    end
  in
  go times (probe ()) []

(* ------------------------------------------------------------------ *)
(* Metrics scope tree *)

let obj = function Json.Obj kv -> kv | _ -> []

let num = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> 0.0

(* [name] matches itself and every labelled cell [name{...}]. *)
let matches name key =
  key = name
  || String.length key > String.length name
     && String.sub key 0 (String.length name + 1) = name ^ "{"

(* Fold [f] over every scope of the tree with the scope's own name. *)
let rec fold_scopes f acc ~name scope =
  let acc = f acc ~name scope in
  match Json.member "scopes" scope with
  | Some (Json.Obj children) ->
      List.fold_left
        (fun acc (n, child) -> fold_scopes f acc ~name:n child)
        acc children
  | _ -> acc

let counter_sum name tree =
  fold_scopes
    (fun acc ~name:_ scope ->
      List.fold_left
        (fun acc (k, v) -> if matches name k then acc +. num v else acc)
        acc
        (obj (Option.value ~default:Json.Null (Json.member "counters" scope))))
    0.0 ~name:"" tree

let hist_sum name tree =
  fold_scopes
    (fun acc ~name:_ scope ->
      List.fold_left
        (fun acc (k, h) ->
          if matches name k then
            acc +. num (Option.value ~default:Json.Null (Json.member "sum" h))
          else acc)
        acc
        (obj (Option.value ~default:Json.Null (Json.member "histograms" scope))))
    0.0 ~name:"" tree

(* Every labelled cell of histogram [name] in the tree, label -> summed
   sum. *)
let labels_of name tree =
  let tbl = Hashtbl.create 16 in
  ignore
    (fold_scopes
       (fun () ~name:_ scope ->
         List.iter
           (fun (k, h) ->
             if matches name k && k <> name then begin
               let label =
                 String.sub k (String.length name + 1)
                   (String.length k - String.length name - 2)
               in
               let v =
                 num (Option.value ~default:Json.Null (Json.member "sum" h))
               in
               Hashtbl.replace tbl label
                 (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl label))
             end)
           (obj
              (Option.value ~default:Json.Null (Json.member "histograms" scope))))
       () ~name:"" tree);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* The engine's query families, as its [group-<family>] scopes name them. *)
let families =
  [ "lp"; "l0-sample"; "frobenius"; "heavy-hitters"; "linf"; "exact-product" ]

(* Group scopes of one family anywhere in the tree (serve nests them under
   [session<n>], the fleet under [link<i>]/attempt scopes). *)
let group_scopes fam tree =
  fold_scopes
    (fun acc ~name scope -> if name = "group-" ^ fam then scope :: acc else acc)
    [] ~name:"" tree

(* Histogram this benchmark records around [Transport.deliver]. *)
let wire_hist_name = "perfbench_wire_ns"
let h_wire = Metrics.histogram wire_hist_name

(* [Lp] is the one sketch that wraps others: its [lp]/[lp_planned] build
   timers enclose the [L0_sketch], [Stable_sketch] and [Ams] builds it
   delegates to, so in a scope where [Lp] builds ran those inner timers
   are already counted. No engine family both builds [Lp] sketches and
   calls the inner kinds directly; [outer_build_ns] refuses a scope whose
   inner time exceeds the wrapper's, where that would no longer hold. *)
let lp_wrappers = [ "lp"; "lp_planned" ]
let lp_wrapped = [ "l0_sketch"; "l0_sketch_planned"; "stable_planned"; "ams_planned" ]

(* Build time of the outermost sketch timers of one scope. *)
let outer_build_ns ~fam scope =
  let labels = labels_of "sketch_build_ns" scope in
  let total ks =
    List.fold_left (fun acc (k, v) -> if List.mem k ks then acc +. v else acc) 0.0 labels
  in
  let all = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 labels in
  let outer = total lp_wrappers and inner = total lp_wrapped in
  if outer = 0.0 then all
  else if inner > outer then
    invalid "group-%s: %.0f ns of inner sketch builds exceed the %.0f ns of Lp builds \
             around them; the ledger's nesting rule no longer holds" fam inner outer
  else all -. inner

(* Per family: engine group time, and the share of it no layer claims once
   outermost sketch builds, codec encode/decode and wire delivery are
   subtracted. *)
let group_ledger ~batches tree =
  List.concat_map
    (fun fam ->
      let scopes = group_scopes fam tree in
      let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 scopes in
      let group = sum (hist_sum "engine_group_ns") in
      let claimed =
        sum (outer_build_ns ~fam)
        +. sum (hist_sum "codec_encode_ns")
        +. sum (hist_sum "codec_decode_ns")
        +. sum (hist_sum wire_hist_name)
      in
      [
        ("engine.group_ms." ^ fam, group /. 1e6 /. batches, "ms");
        ( "engine.unattributed_share." ^ fam,
          (if group > 0.0 then (group -. claimed) /. group else 0.0),
          "share" );
      ])
    families

(* The sketch kinds these workloads build and query; any other kind seen
   lands in the report, so a new sketch path is not silently dropped. *)
let build_kinds = [ "lp_planned"; "l0_sketch_planned"; "srht_planned" ]
let query_kinds = [ "lp"; "l0_sketch" ]

(* Time-based layer figures common to every workload, per batch. *)
let time_ledger ~batches tree =
  let per_batch_ms ns = ns /. 1e6 /. batches in
  let enc = hist_sum "codec_encode_ns" tree
  and dec = hist_sum "codec_decode_ns" tree in
  let bytes = counter_sum "bytes_sent" tree in
  let kinds name wanted =
    let seen = labels_of name tree in
    List.map
      (fun k ->
        (k, Option.value ~default:0.0 (List.assoc_opt k seen)))
      wanted
  in
  let build = kinds "sketch_build_ns" build_kinds
  and query = kinds "sketch_query_ns" query_kinds in
  group_ledger ~batches tree
  @ List.map (fun (k, v) -> ("sketch.build_ms." ^ k, per_batch_ms v, "ms")) build
  @ List.map (fun (k, v) -> ("sketch.query_ms." ^ k, per_batch_ms v, "ms")) query
  @ [
      ("comm.encode_ms_per_batch", per_batch_ms enc, "ms");
      ("comm.decode_ms_per_batch", per_batch_ms dec, "ms");
      ( "comm.codec_mb_per_s",
        (if enc +. dec > 0.0 then bytes /. 1e6 /. ((enc +. dec) /. 1e9)
         else 0.0),
        "MB/s" );
      ("comm.wire_ms_per_batch", per_batch_ms (hist_sum wire_hist_name tree), "ms");
    ]

let unlisted_kinds tree =
  let extra name wanted =
    List.filter_map
      (fun (k, _) -> if List.mem k wanted then None else Some (Json.String k))
      (labels_of name tree)
  in
  Json.List
    (extra "sketch_build_ns" build_kinds @ extra "sketch_query_ns" query_kinds)

(* ------------------------------------------------------------------ *)
(* Exact work counters *)

(* Deterministic work of a fixed set of batches, read from the counters the
   program exports. Allocation is the minor-heap [Gc] delta the tracer
   records on each [engine.batch] span, i.e. around [Engine.run]; the
   span's major-heap delta also counts promotions, which depend on when
   minor collections fall, so it would not repeat. *)
let work_counters ~batches tree spans =
  let alloc =
    List.fold_left
      (fun acc (sp : Trace.span) ->
        if sp.Trace.name = "engine.batch" then acc + sp.Trace.alloc_minor_w
        else acc)
      0 spans
  in
  let c name = counter_sum name tree in
  let hits = c "engine_plan_hits" and misses = c "engine_plan_misses" in
  [
    ("bits", c "engine_bits");
    ("messages", c "messages_sent");
    ("bytes", c "bytes_sent");
    ("hash_evals", c "hash_evals");
    ("plan_hash_evals", c "plan_hash_evals");
    ("cells_touched", c "sketch_cells_touched");
    ("plan_hits", hits);
    ("plan_misses", misses);
    ("journal_bytes", c "journal_append_bytes");
    ("replayed_messages", c "journal_replayed_messages");
    ("replayed_bytes", c "journal_replayed_bytes");
    ("alloc_words", float_of_int alloc);
  ]
  @ List.map
      (fun fam -> ("group_bits." ^ fam, counter_sum ("engine_bits{" ^ fam ^ "}") tree))
      families
  |> List.map (fun (k, v) -> (k, v /. batches))

(* Run [f] with metrics and tracing on, from empty registries. Returns its
   result and the metrics snapshot; the spans stay buffered for the caller,
   who resets them. *)
let traced f =
  Metrics.reset ();
  Trace.reset ();
  Metrics.set_enabled true;
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Trace.disable ())
    (fun () ->
      let v = f () in
      (v, Metrics.snapshot ()))

(* Run [pass] twice under fresh metrics and tracing. Its counters are the
   per-batch work; [exact] says whether the second pass reproduced them. *)
let counting_passes ~batches pass =
  let once () =
    let (), tree = traced pass in
    let w = work_counters ~batches tree (Trace.spans ()) in
    Metrics.reset ();
    Trace.reset ();
    w
  in
  let a = once () in
  let b = once () in
  List.map2 (fun (k, v) (_, v') -> (k, v, v = v')) a b

let work_layer counts =
  let get k =
    match List.find_opt (fun (k', _, _) -> k' = k) counts with
    | Some (_, v, _) -> v
    | None -> 0.0
  in
  let hits = get "plan_hits" and misses = get "plan_misses" in
  [
    ("sketch.hash_evals", get "hash_evals", "count");
    ("sketch.plan_hash_evals", get "plan_hash_evals", "count");
    ("sketch.cells_touched", get "cells_touched", "count");
    ("comm.messages_per_batch", get "messages", "count");
    ("comm.bytes_per_batch", get "bytes", "bytes");
    ("comm.journal_bytes_per_batch", get "journal_bytes", "bytes");
    ("comm.replayed_messages", get "replayed_messages", "count");
    ("comm.replayed_bits", 8.0 *. get "replayed_bytes", "bits");
    ( "engine.plan_hit_ratio",
      (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0),
      "share" );
    ("engine.alloc_words_per_batch", get "alloc_words", "words");
  ]
  @ List.map
      (fun fam -> ("engine.group_bits." ^ fam, get ("group_bits." ^ fam), "bits"))
      families

let counters_json counts =
  Json.Obj
    (List.map
       (fun (k, v, exact) ->
         (k, Json.Obj [ ("per_batch", Json.Float v); ("exact", Json.Bool exact) ]))
       counts)

(* ------------------------------------------------------------------ *)
(* Probes on public seams *)

(* The benchmark's own [Transport.S]: delegates to the real backend and
   times each delivery into [perfbench_wire_ns], in whatever metrics scope
   the sender is in, so wire time is attributed per engine group. [on_close]
   lets the fleet probe see when a link attempt hangs up. *)
module Timed = struct
  type conn = { inner : Transport.t; on_close : unit -> unit }

  let name = "timed"

  let deliver c ~from ~label payload =
    Metrics.timed h_wire (fun () -> Transport.deliver c.inner ~from ~label payload)

  let close c =
    c.on_close ();
    Transport.close c.inner
end

let timed_transport ?(on_close = ignore) inner =
  Transport.Conn ((module Timed), { Timed.inner; on_close })

(* Traced versus untraced per-batch latency: the tracing tax at p50. *)
let overhead_share ~traced_p50 ~plain_p50 =
  ("obs.overhead_share", (traced_p50 -. plain_p50) /. plain_p50, "share")

(* Seeds of successive batches within a run, all derived from [--seed]. *)
let batch_seed ~seed k = Prng.fresh_seed (Prng.derive seed k 0xbe7c)
