(* Benchmark entry point. Usage:

     bench.exe --workload serve|fleet-recover --seed N
               --seconds S --trace 0|1

   Runs one workload for about S measured seconds on inputs generated from
   N, checks its answers, and prints one JSON object as the last line of
   stdout: every figure the run measured, by name with its unit, plus the
   queries attempted and failed and a free-form report. With --trace 0 the
   figures are end-to-end (metrics and tracing off); with --trace 1 they
   are per-layer, from a traced run. An invalid run (a failed oracle, a
   generator that fell behind) exits 2 without a result. *)

open Pb

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer figures");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  let result =
    try
      Ok
        (match !workload with
        | "serve" -> Serve_wl.run ~seed ~seconds ~trace
        | "fleet-recover" -> Fleet_wl.run ~seed ~seconds ~trace
        | w -> invalid "unknown workload %S" w)
    with Invalid_run msg -> Error msg
  in
  match result with
  | Error msg ->
      log "invalid run: %s" msg;
      exit 2
  | Ok o ->
      let attempted = List.fold_left (fun a p -> a + p.sent) 0 o.phases in
      let failed = List.fold_left (fun a p -> a + p.failed) 0 o.phases in
      let metrics =
        List.map
          (fun (name, v, u) ->
            (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
          o.metrics
      in
      let report =
        [
          ("workload", Json.String !workload);
          ("seed", Json.Int seed);
          ("seconds", Json.Float seconds);
          ("trace", Json.Bool trace);
          ("nproc", Json.Int (Domain.recommended_domain_count ()));
          ("pool_size", Json.Int (Pool.size ()));
          ("phases", Json.List (List.map phase_json o.phases));
        ]
        @ o.report @ probe_report ()
      in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("correct", Json.Bool true);
                ("attempted", Json.Int attempted);
                ("failed", Json.Int failed);
                ("metrics", Json.Obj metrics);
                ("report", Json.Obj report);
              ]))
