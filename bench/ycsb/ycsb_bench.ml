(* ycsb_bench: the standing whole-stack benchmark for mtd.

     ycsb_bench run --workload ycsb-e --seed 3 --seconds 20 --trace 0
     ycsb_bench smoke --mtd _build/default/bin/mtd.exe
     ycsb_bench compare before.txt after.txt

   [run] starts mtd as a separate process, drives one workload (or
   [all]) and prints, as its last line, one JSON object with the
   end-to-end metrics ([--trace 0]) or the per-layer metrics
   ([--trace 1]).  See README.md. *)

open Cmdliner

let result_line (r : Run.report) ~trace =
  let values = if trace then r.layers else r.e2e in
  let spec = if trace then Spec.layer_metrics else Spec.e2e_metrics in
  let value name = Option.value (List.assoc_opt name values) ~default:nan in
  let metrics =
    List.map
      (fun (name, unit_) -> (name, Json.Obj [ ("value", Json.Num (value name)); ("unit", Json.Str unit_) ]))
      spec
  in
  let finite = List.for_all (fun (name, _) -> Float.is_finite (value name)) spec in
  let correct = r.tally.failed = 0 && finite in
  ( correct,
    Json.to_string
      (Json.Obj
         [
           ("correct", Json.Bool correct);
           ("attempted", Json.Num (float r.tally.attempted));
           ("failed", Json.Num (float r.tally.failed));
           ("metrics", Json.Obj metrics);
         ]) )

let guarded f =
  (* A large minor heap and a lazy major GC: reply garbage dies young, and
     the client's own pauses stay out of the latencies it measures. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 4 lsl 20; space_overhead = 200 };
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let on_signal = Sys.Signal_handle (fun _ -> exit 130) in
  Sys.set_signal Sys.sigint on_signal;
  Sys.set_signal Sys.sigterm on_signal;
  match f () with
  | code -> code
  | exception Client.Lost msg ->
      Printf.eprintf "ycsb_bench: lost the connection to mtd: %s\n%!" msg;
      3
  | exception (Failure msg | Sys_error msg) ->
      Printf.eprintf "ycsb_bench: %s\n%!" msg;
      2
  | exception e ->
      Printf.eprintf "ycsb_bench: %s\n%!" (Printexc.to_string e);
      2

let workloads name =
  if name = "all" then Spec.all
  else match Spec.find name with Some w -> [ w ] | None -> failwith ("unknown workload " ^ name)

let run workload seed seconds trace mtd work trace_out =
  guarded (fun () ->
      if not (Sys.file_exists mtd) then failwith ("no mtd binary at " ^ mtd);
      let trace = trace <> 0 in
      Server.mkdir_p work;
      List.fold_left
        (fun code w ->
          let r = Run.run ~mtd ~w ~sizes:(Spec.full ~seconds) ~seed ~trace ~work ~trace_out in
          let correct, line = result_line r ~trace in
          print_endline (Json.to_string (Json.Obj [ ("meta", Json.Obj r.meta) ]));
          print_endline line;
          if correct then code else 1)
        0 (workloads workload))

let smoke mtd work =
  guarded (fun () ->
      Server.mkdir_p work;
      let t0 = Unix.gettimeofday () in
      let bad =
        List.filter
          (fun (w : Spec.t) ->
            let r = Run.run ~mtd ~w ~sizes:Spec.smoke ~seed:1 ~trace:true ~work ~trace_out:None in
            let ok = fst (result_line r ~trace:false) && fst (result_line r ~trace:true) in
            Printf.printf "smoke %-20s %s\n%!" w.name (if ok then "ok" else "FAILED");
            not ok)
          Spec.all
      in
      Printf.printf "smoke: %d workloads in %.1f s\n" (List.length Spec.all) (Unix.gettimeofday () -. t0);
      if bad = [] then 0 else 1)

let compare benchmark a b = guarded (fun () -> Compare.run ~benchmark a b)

let mtd_t =
  Arg.(value & opt string "_build/default/bin/mtd.exe" & info [ "mtd" ] ~docv:"PATH" ~doc:"The mtd binary to start.")

let work_t =
  Arg.(
    value & opt string ".ycsb_bench"
    & info [ "work" ] ~docv:"DIR" ~doc:"Scratch directory for mtd data, replay logs and span files.")

let run_cmd =
  let workload =
    Arg.(required & opt (some string) None & info [ "workload" ] ~docv:"NAME" ~doc:"Workload name, or all.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Seed for every generated input.") in
  let seconds =
    Arg.(value & opt float 20.0 & info [ "seconds" ] ~docv:"S" ~doc:"Measured seconds per workload, over all phases.")
  in
  let trace =
    Arg.(value & opt int 0 & info [ "trace" ] ~docv:"0|1" ~doc:"1: also run the per-layer replay and report per-layer metrics.")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"PATH" ~doc:"Where the traced run writes its spans (default: in the work directory).")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one workload, or all, against a fresh mtd.")
    Term.(const run $ workload $ seed $ seconds $ trace $ mtd_t $ work_t $ trace_out)

let smoke_cmd =
  Cmd.v
    (Cmd.info "smoke" ~doc:"All workloads and the traced replay on a small dataset; exits non-zero on any failure.")
    Term.(const smoke $ mtd_t $ work_t)

let compare_cmd =
  let file n = Arg.(required & pos n (some file) None & info [] ~docv:(if n = 0 then "A" else "B")) in
  let benchmark =
    Arg.(value & opt file "BENCHMARK.json" & info [ "benchmark" ] ~docv:"PATH" ~doc:"Where the bounds come from.")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Judge two sets of run outputs against the benchmark's bounds.")
    Term.(const compare $ benchmark $ file 0 $ file 1)

let () =
  exit (Cmd.eval' (Cmd.group (Cmd.info "ycsb_bench" ~doc:"Standing whole-stack benchmark for mtd") [ run_cmd; smoke_cmd; compare_cmd ]))
