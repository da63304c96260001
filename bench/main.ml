(* Benchmark harness: one experiment per table/figure in the paper's
   evaluation (see DESIGN.md §3 for the experiment index).

     dune exec bench/main.exe                 # everything, default scale
     dune exec bench/main.exe -- fig8         # one experiment
     dune exec bench/main.exe -- fig10 --keys 1000000 --seconds 30
     dune exec bench/main.exe -- --list *)

open Cmdliner

let experiments =
  [
    ("fig8", "Figure 8: factor analysis binary tree -> Masstree", Fig8.run);
    ("fig9", "Figure 9: key-length sweep with shared prefixes", Fig9.run);
    ("fig10", "Figure 10: scalability 1..16 cores", Fig10.run);
    ("fig11", "Figure 11: shared vs hard-partitioned under skew", Fig11.run);
    ("fig13", "Figure 13: system comparison table", Fig13.run);
    ("sys-relevance", "§6.3: tree design inside the full system", Sysrel.run);
    ("flex", "§6.4: cost of variable keys / concurrency / ranges", Flex.run);
    ("ckpt", "§5: checkpoint and recovery costs", Ckpt.run);
    ("crash", "§5: crash-torture sweep over every persist failpoint", Crash.run);
    ("race", "§4.5-4.7: deterministic interleaving sweep over every schedule point", Race.run);
    ("retries", "§6.2: retry rates under concurrent inserts", Retries.run);
    ("ablation", "ablations: node size, permuter, retries", Ablation.run);
    ("obs", "lib/obs telemetry overhead on the loopback path", Obs_overhead.run);
    ("netperf", "net front ends: threaded vs reactor vs reactor+pipelining", Netperf.run);
    ("shard", "sharded tier: skew collapse + hot-key mitigation (Fig 13)", Shard_bench.run);
    ("arena", "off-heap node arena vs boxed baseline: alloc/op, GC, latency tails", Arena.run);
    ("repl", "lib/repl: bootstrap convergence + replica read offload", Repl_bench.run);
    ("mlp", "pipelined group get vs sequential: modeled + real MLP (E15)", Mlp.run);
    ("micro", "bechamel microbenchmarks", Micro.run);
  ]

let run_selected names keys ops seconds domains smoke list_only =
  if list_only then begin
    List.iter (fun (n, doc, _) -> Printf.printf "%-14s %s\n" n doc) experiments;
    0
  end
  else begin
    let scale =
      if smoke then
        (* CI-sized: every experiment in seconds, numbers not meaningful. *)
        {
          Bench_util.keys = 10_000;
          model_keys = 1_000_000;
          ops = 20_000;
          model_ops = 5_000;
          domains = 2;
          seconds = 2.0;
          smoke = true;
        }
      else
        {
          Bench_util.default_scale with
          keys;
          ops;
          seconds;
          domains =
            (match domains with
            | Some d -> max 1 d
            | None -> Bench_util.default_scale.Bench_util.domains);
        }
    in
    let targets =
      match names with
      | [] -> experiments
      | names ->
          List.map
            (fun n ->
              match List.find_opt (fun (n', _, _) -> String.equal n n') experiments with
              | Some e -> e
              | None ->
                  Printf.eprintf "unknown experiment %S (try --list)\n" n;
                  exit 2)
            names
    in
    Printf.printf
      "masstree bench harness: keys=%d ops=%d domains=%d time-cap=%.0fs per measurement\n"
      scale.Bench_util.keys scale.Bench_util.ops scale.Bench_util.domains
      scale.Bench_util.seconds;
    List.iter (fun (_, _, f) -> f scale) targets;
    Printf.printf "\nall experiments done\n";
    0
  end

let names_t = Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT")

let keys_t =
  Arg.(
    value
    & opt int Bench_util.default_scale.Bench_util.keys
    & info [ "keys" ] ~docv:"N" ~doc:"Key population for real-structure runs.")

let ops_t =
  Arg.(
    value
    & opt int Bench_util.default_scale.Bench_util.ops
    & info [ "ops" ] ~docv:"N" ~doc:"Operations per measurement.")

let seconds_t =
  Arg.(
    value
    & opt float Bench_util.default_scale.Bench_util.seconds
    & info [ "seconds" ] ~docv:"S" ~doc:"Soft time cap per measurement.")

let domains_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N" ~doc:"Domains for concurrent runs (default: cores).")

let smoke_t =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:"CI scale: tiny keys/ops/time so every experiment finishes in seconds (overrides --keys/--ops/--seconds/--domains).")

let list_t = Arg.(value & flag & info [ "list" ] ~doc:"List experiments and exit.")

let cmd =
  Cmd.v
    (Cmd.info "masstree-bench" ~doc:"Regenerate the paper's tables and figures")
    Term.(
      const run_selected $ names_t $ keys_t $ ops_t $ seconds_t $ domains_t $ smoke_t
      $ list_t)

let () = exit (Cmd.eval' cmd)
