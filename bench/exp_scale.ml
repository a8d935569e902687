(* Matrix-free scaling: the production LPTV build against its dense-Φ
   oracle on the ≥500-unknown DAC-string deck (Dac_string.scale_params,
   513 MNA unknowns), the production path swept over 1/2/4 domains,
   written to BENCH_scale.json.

   The PSS is solved once (it is not what is being measured) and shared
   by every row, so the comparison isolates the periodic-wrap
   treatment:

     krylov     sparse step factors, matrix-free GMRES wrap
     dense_phi  the same step factors, with "lptv.gmres" failing at
                every visit so the first wrap solve forms Φ(ω) column
                by column and factorizes I - Φ(ω) by dense Clu; that
                first solve (phi_s) counts into the row's build_s.  The
                rung is serial, so the row runs at 1 domain only.

   Gates:
   - every row reads the same total_psd within 1e-9 relative of
     dense_phi;
   - the krylov build beats the dense-Φ build by >= 5x at equal steps;
   - the krylov path allocates no dense monodromy anywhere, asserted on
     the "pss.monodromy.dense"/"lptv.phi.dense" counters of an
     instrumented pass.

   A row with more domains than the host has cores is labelled
   oversubscribed and never becomes recommended_domains. *)

type case = {
  mode : string;
  domains : int;
  oversubscribed : bool;
  size : int;
  steps : int;
  n_sources : int;
  build_s : float;
  phi_s : float;
  analyze_s : float;
  sigma_s : float;
  total_psd : float;
}

(* run [f] with every LPTV wrap solve forced onto the dense Φ rung *)
let dense_phi f =
  Faultsim.arm
    [ { Faultsim.site = "lptv.gmres"; visit = -1; fault = Faultsim.Singular 0 } ];
  Fun.protect ~finally:Faultsim.disarm f

let measure ~pss ~output ~sources_of ~mode ~domains =
  let lptv, build_s =
    Util.timed (fun () -> Lptv.build ~domains pss ~f_offset:1.0)
  in
  (* on the dense row the first wrap solve forms and factorizes
     I - Φ(ω); a source with no injection keeps the rest of it to two
     sweeps *)
  let phi_s =
    if mode = "dense_phi" then
      snd
        (Util.timed (fun () ->
             Lptv.solve_source lptv (Lptv.constant_injection [])))
    else 0.0
  in
  let sources = sources_of lptv in
  let sb, analyze_s =
    Util.timed (fun () ->
        Pnoise.analyze ~domains lptv ~output ~harmonic:0 ~sources)
  in
  (* the Fig. 8 σ(t) envelope is the bench's parallel workload: one
     adjoint sample per grid point (sources ≫ steps picks the adjoint
     reading), each a wrap solve + backward recurrence, fanned over the
     lanes — the single-sideband analyze above is too light to amortize
     a pool at any size *)
  let _, sigma_s =
    Util.timed (fun () -> Pnoise.sigma_waveform ~domains lptv ~output ~sources)
  in
  let oversubscribed = Util.oversubscribed domains in
  Format.printf "  %9s %7d%s %10.3f %10.3f %10.3f %14.6e@." mode domains
    (if oversubscribed then "*" else " ")
    (build_s +. phi_s) analyze_s sigma_s sb.Pnoise.total_psd;
  {
    mode;
    domains;
    oversubscribed;
    size = Circuit.size pss.Pss.circuit;
    steps = pss.Pss.steps;
    n_sources = Array.length sources;
    build_s = build_s +. phi_s;
    phi_s;
    analyze_s;
    sigma_s;
    total_psd = sb.Pnoise.total_psd;
  }

let json_of_case c =
  Printf.sprintf
    "    {\"mode\": %S, \"domains\": %d, \"oversubscribed\": %b, \
     \"size\": %d, \"steps\": %d, \"sources\": %d, \"build_s\": %.6f, \
     \"phi_s\": %.6f, \"analyze_s\": %.6f, \"sigma_s\": %.6f, \
     \"total_psd\": %.17g}"
    c.mode c.domains c.oversubscribed c.size c.steps c.n_sources c.build_s
    c.phi_s c.analyze_s c.sigma_s c.total_psd

let write_json ~path ~measured_winner ~recommended_domains ~speedup cases =
  let oc = open_out path in
  output_string oc "{\n";
  Printf.fprintf oc "  \"bench\": \"scale\",\n";
  Printf.fprintf oc "  \"size\": %d,\n" (List.hd cases).size;
  Printf.fprintf oc "  \"host_cores\": %d,\n" Util.host_cores;
  Printf.fprintf oc "  \"measured_winner_domains\": %d,\n" measured_winner;
  Printf.fprintf oc "  \"recommended_domains\": %d,\n" recommended_domains;
  Printf.fprintf oc "  \"krylov_build_speedup_vs_dense_phi\": %.2f,\n" speedup;
  Printf.fprintf oc "  \"psd_parity_tol\": 1e-9,\n";
  output_string oc "  \"cases\": [\n";
  output_string oc (String.concat ",\n" (List.map json_of_case cases));
  output_string oc "\n  ]\n}\n";
  close_out oc;
  Format.printf "@.wrote %s@." path

let run ~quick =
  Util.section "SCALE: matrix-free periodic wrap vs dense Φ at >= 500 unknowns";
  let params = Dac_string.scale_params in
  let freq = 1e6 in
  let circuit = Dac_string.testbench ~params ~freq () in
  let size = Circuit.size circuit in
  assert (size >= 500);
  let steps = if quick then 12 else 32 in
  let output = Dac_string.tap (params.Dac_string.codes / 2) in
  Format.printf "deck: dac_string codes=%d -> %d MNA unknowns, %d steps@."
    params.Dac_string.codes size steps;
  let pss = Pss.solve ~steps circuit ~period:(1.0 /. freq) in
  (* the sources only depend on the PSS; build them once through the
     first LPTV context and reuse the array (the injection closures
     read shared PSS state, so this is safe across rows) *)
  let cached = ref None in
  let sources_of lptv =
    match !cached with
    | Some s -> s
    | None ->
      let s = Pnoise.mismatch_sources lptv in
      cached := Some s;
      s
  in
  Format.printf "  %9s %8s %10s %10s %10s %14s   (* = oversubscribed)@."
    "mode" "domains" "build [s]" "pnoise [s]" "sigma [s]" "psd";
  let reference =
    dense_phi (fun () ->
        measure ~pss ~output ~sources_of ~mode:"dense_phi" ~domains:1)
  in
  let krylov_cases =
    List.map
      (fun domains -> measure ~pss ~output ~sources_of ~mode:"krylov" ~domains)
      [ 1; 2; 4 ]
  in
  let cases = reference :: krylov_cases in
  (* parity gate: every row must read the oracle's physics *)
  List.iter
    (fun c ->
      let rel =
        Float.abs (c.total_psd -. reference.total_psd)
        /. Float.max 1e-300 (Float.abs reference.total_psd)
      in
      if rel > 1e-9 then
        failwith
          (Printf.sprintf "PSD parity violation: %s domains=%d rel err %.3g"
             c.mode c.domains rel))
    cases;
  Format.printf "  parity: all rows within 1e-9 relative of dense_phi@.";
  (* speedup gate at equal steps and 1 lane *)
  let krylov1 = List.find (fun c -> c.domains = 1) krylov_cases in
  let speedup = reference.build_s /. Float.max 1e-9 krylov1.build_s in
  Format.printf "  krylov build speedup vs dense Φ (1 domain): %.1fx@." speedup;
  if speedup < 5.0 then
    failwith
      (Printf.sprintf "krylov build speedup %.2fx < 5x required" speedup);
  (* the lane-count recommendation: the cheapest krylov row the host
     can actually run in parallel; oversubscribed rows are reported but
     never recommended *)
  let cost c = c.build_s +. c.analyze_s +. c.sigma_s in
  let winner = Util.cheapest ~cost krylov_cases in
  let recommended =
    Util.recommended ~domains:(fun c -> c.domains) ~cost krylov_cases
  in
  Format.printf
    "  krylov domain sweep: measured winner %d of [1;2;4] on a %d-core host \
     -> recommended_domains %d@."
    winner.domains Util.host_cores recommended.domains;
  write_json ~path:"BENCH_scale.json" ~measured_winner:winner.domains
    ~recommended_domains:recommended.domains ~speedup cases;
  (* instrumented production pass: assert the matrix-free path never
     formed a dense monodromy/Φ, then leave the counter evidence next to
     the timings *)
  Util.metrics_pass ~path:"BENCH_scale_metrics.json" (fun () ->
      let pss = Pss.solve ~steps circuit ~period:(1.0 /. freq) in
      let lptv =
        Lptv.build ~domains:recommended.domains pss ~f_offset:1.0
      in
      let sources = Pnoise.mismatch_sources lptv in
      let sb =
        Pnoise.analyze ~domains:recommended.domains lptv ~output ~harmonic:0
          ~sources
      in
      let mono_dense = Obs.counter_value "pss.monodromy.dense" in
      let phi_dense = Obs.counter_value "lptv.phi.dense" in
      Obs.gauge "scale.dense_monodromy_allocations"
        (float_of_int (mono_dense + phi_dense));
      if mono_dense + phi_dense > 0 then
        failwith
          (Printf.sprintf
             "krylov path allocated a dense monodromy: pss=%d lptv=%d"
             mono_dense phi_dense);
      Format.printf
        "  krylov path: 0 dense monodromy allocations (gmres iters=%d)@."
        (Obs.counter_value "gmres.iterations");
      sb)
