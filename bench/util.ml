(* Shared helpers for the experiment harness. *)

let section title =
  Format.printf "@.==================================================@.";
  Format.printf "%s@." title;
  Format.printf "==================================================@."

let timed f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (y, Unix.gettimeofday () -. t0)

(* One extra instrumented pass per experiment: the timed runs stay
   untelemetered so the recorded timings are clean, then this re-runs a
   representative configuration with telemetry on and writes the span
   tree + counters next to the BENCH_*.json timings. *)
let metrics_pass ~path f =
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.write_metrics path;
      Obs.disable ();
      Format.printf "wrote %s@." path)
    (fun () -> ignore (Obs.root "bench" f))

(* Honest lane counts: a row that runs more domains than the host has
   cores measures oversubscription, not parallel speedup.  Such rows are
   labelled oversubscribed and never recommended. *)
let host_cores = Domain.recommended_domain_count ()
let oversubscribed domains = domains > host_cores

(* the row of least [cost]; the first one wins a tie *)
let cheapest ~cost rows =
  List.fold_left
    (fun acc r -> if cost r < cost acc then r else acc)
    (List.hd rows) rows

(* the measured winner among the rows the host can run in parallel *)
let recommended ~domains ~cost rows =
  cheapest ~cost (List.filter (fun r -> not (oversubscribed (domains r))) rows)

(* 95% CI half-width (relative) of a sigma estimated from n samples *)
let sigma_ci_pct n = 100.0 *. Stats.sigma_relative_ci_halfwidth n

let pct a b = if b = 0.0 then 0.0 else 100.0 *. (a -. b) /. b

(* histogram with overlaid reference gaussian, paper Fig. 9 / Fig. 12 style *)
let print_histogram ~samples ~mu ~sigma ~unit_scale ~unit_name =
  let h = Stats.histogram ~bins:27 samples in
  Format.printf "histogram [%s] ('#' = Monte-Carlo density, '*' = pseudo-noise PDF):@."
    unit_name;
  let pdf x = Special.normal_pdf ~mu ~sigma x in
  ignore unit_scale;
  Stats.pp_histogram ~width:44 ~overlay_pdf:pdf Format.std_formatter h

let comparator_context () =
  let params = Strongarm.default_params in
  let circuit = Strongarm.testbench ~params () in
  let ctx = Analysis.prepare ~steps:400 circuit ~period:params.Strongarm.clk_period in
  (params, circuit, ctx)

let logic_path_context case =
  let lp = Logic_path.build case in
  let ctx =
    Analysis.prepare ~steps:800 lp.Logic_path.circuit ~period:lp.Logic_path.period
  in
  let crossing =
    { Analysis.edge = Waveform.Falling;
      threshold = lp.Logic_path.vdd /. 2.0;
      after = Logic_path.trigger_time lp }
  in
  (lp, ctx, crossing)
