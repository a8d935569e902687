(* Parallel-engine performance tracking: times Lptv.build and
   Pnoise.analyze at 1/2/4 domains on the two PSS-heavy benchmarks and
   writes BENCH_pnoise.json so the perf trajectory is recorded per PR.

   The PSS itself is solved once per circuit and shared across the
   domain sweep — the point is the LPTV/PNOISE engine, not the shooting
   solver.  total_psd is recorded per case so any cross-domain or
   cross-PR numerical drift is caught alongside the timings.

   A row with more domains than the host has cores is labelled
   oversubscribed and never becomes recommended_domains (Util). *)

type case = {
  circuit_name : string;
  steps : int;
  n_sources : int;
  domains : int;
  oversubscribed : bool;
  build_s : float;
  analyze_s : float;
  total_psd : float;
}

let domain_counts = [ 1; 2; 4 ]

let best_of reps f =
  let best = ref infinity in
  let last = ref None in
  for _ = 1 to reps do
    let y, dt = Util.timed f in
    if dt < !best then best := dt;
    last := Some y
  done;
  match !last with
  | Some y -> (y, !best)
  | None -> invalid_arg "best_of: reps must be >= 1"

(* one circuit: solve the PSS once, then sweep the lane count *)
let sweep ~reps ~circuit_name ~pss ~output ~harmonic =
  Format.printf "@.%s (%d steps):@." circuit_name pss.Pss.steps;
  Format.printf "  %7s %10s %10s %10s %14s   (* = oversubscribed)@."
    "domains" "build [s]" "pnoise [s]" "total [s]" "psd";
  List.map
    (fun domains ->
      let lptv, build_s =
        best_of reps (fun () -> Lptv.build ~domains pss ~f_offset:1.0)
      in
      let sources = Pnoise.mismatch_sources lptv in
      let sb, analyze_s =
        best_of reps (fun () ->
            Pnoise.analyze ~domains lptv ~output ~harmonic ~sources)
      in
      let oversubscribed = Util.oversubscribed domains in
      Format.printf "  %6d%s %10.3f %10.3f %10.3f %14.6e@." domains
        (if oversubscribed then "*" else " ")
        build_s analyze_s (build_s +. analyze_s) sb.Pnoise.total_psd;
      {
        circuit_name;
        steps = pss.Pss.steps;
        n_sources = Array.length sources;
        domains;
        oversubscribed;
        build_s;
        analyze_s;
        total_psd = sb.Pnoise.total_psd;
      })
    domain_counts

let json_of_case c =
  Printf.sprintf
    "    {\"circuit\": %S, \"steps\": %d, \"sources\": %d, \"domains\": %d, \
     \"oversubscribed\": %b, \"build_s\": %.6f, \"analyze_s\": %.6f, \
     \"total_psd\": %.17g}"
    c.circuit_name c.steps c.n_sources c.domains c.oversubscribed c.build_s
    c.analyze_s c.total_psd

let cost c = c.build_s +. c.analyze_s

(* per circuit: the lane count that actually won its sweep (build +
   analyze wall time) and the one recommended, the winner among the
   rows that are not oversubscribed *)
let winner_of cases name =
  let mine = List.filter (fun c -> c.circuit_name = name) cases in
  ( Util.cheapest ~cost mine,
    Util.recommended ~domains:(fun c -> c.domains) ~cost mine )

let write_json ~path cases =
  let names =
    List.fold_left
      (fun acc c ->
        if List.mem c.circuit_name acc then acc else acc @ [ c.circuit_name ])
      [] cases
  in
  let winners = List.map (winner_of cases) names in
  (* the recommendation comes from the *largest* case in the suite
     (steps × sources = the most engine work) — the tiny decks
     underestimate what a lane is worth; per-case winners are recorded
     alongside so the single number can't mislead *)
  let _, largest =
    List.fold_left
      (fun ((w, _) as acc) ((c, _) as cand) ->
        if c.steps * c.n_sources > w.steps * w.n_sources then cand else acc)
      (List.hd winners) winners
  in
  let oc = open_out path in
  output_string oc "{\n";
  Printf.fprintf oc "  \"bench\": \"pnoise\",\n";
  Printf.fprintf oc "  \"host_cores\": %d,\n" Util.host_cores;
  Printf.fprintf oc "  \"recommended_domains\": %d,\n" largest.domains;
  Printf.fprintf oc "  \"recommended_from\": %S,\n" largest.circuit_name;
  output_string oc "  \"winners\": [\n";
  output_string oc
    (String.concat ",\n"
       (List.map
          (fun (w, r) ->
            Printf.sprintf
              "    {\"circuit\": %S, \"domains\": %d, \"total_s\": %.6f, \
               \"recommended_domains\": %d}"
              w.circuit_name w.domains (cost w) r.domains)
          winners));
  output_string oc "\n  ],\n";
  output_string oc "  \"cases\": [\n";
  output_string oc (String.concat ",\n" (List.map json_of_case cases));
  output_string oc "\n  ]\n}\n";
  close_out oc;
  List.iter
    (fun (w, r) ->
      Format.printf "  winner %s: %d domain(s) (%.3f s), recommended %d@."
        w.circuit_name w.domains (cost w) r.domains)
    winners;
  Format.printf "@.wrote %s  (recommended_domains %d, from %s)@." path
    largest.domains largest.circuit_name

let run ~quick =
  Util.section "PERF: parallel LPTV build + PNOISE analyze (1/2/4 domains)";
  let reps = if quick then 1 else 3 in
  let params = Strongarm.default_params in
  let comparator_circuit = Strongarm.testbench ~params () in
  let comparator_pss =
    let steps = if quick then 120 else 400 in
    Pss.solve ~steps comparator_circuit ~period:params.Strongarm.clk_period
  in
  let comparator =
    sweep ~reps ~circuit_name:"strongarm_comparator" ~pss:comparator_pss
      ~output:Strongarm.vos_node ~harmonic:0
  in
  let ring =
    let steps = if quick then 100 else 300 in
    let osc = Ring_osc.solve_pss ~steps () in
    sweep ~reps ~circuit_name:"ring_oscillator" ~pss:osc.Pss_osc.pss
      ~output:Ring_osc.anchor ~harmonic:1
  in
  write_json ~path:"BENCH_pnoise.json" (comparator @ ring);
  (* telemetry profile of one representative configuration (comparator,
     widest lane count measured above), written next to the timings; the
     already-solved PSS is reused so this only re-runs the LPTV/PNOISE
     stage it profiles.  Skipped under --quick, which doubles as the
     perf gate for the telemetry-disabled fast path and must stay
     within noise of its pre-telemetry wall time. *)
  if not quick then
    Util.metrics_pass ~path:"BENCH_pnoise_metrics.json" (fun () ->
        let lptv = Lptv.build ~domains:4 comparator_pss ~f_offset:1.0 in
        let sources = Pnoise.mismatch_sources lptv in
        Pnoise.analyze ~domains:4 lptv ~output:Strongarm.vos_node ~harmonic:0
          ~sources)
