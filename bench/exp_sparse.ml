(* The single production path against its dense oracle on the
   size-parameterized DAC-string testbench: times Lptv.build +
   Pnoise.analyze as the column count grows, and writes
   BENCH_sparse.json.

   The PSS is solved once per size (it is not what is being measured)
   and shared by both rows:

     production  sparse step factors, matrix-free GMRES wrap
     dense_phi   the same step factors, with "lptv.gmres" failing at
                 every visit so each wrap solve takes the dense rung:
                 Φ(ω) formed column by column and I - Φ(ω) factorized
                 by dense Clu (its cost lands in analyze_s, on the
                 first wrap solve)

   total_psd is recorded per row; the two must agree to 1e-9 relative,
   which doubles as an end-to-end parity check at sizes the unit tests
   don't reach. *)

type case = {
  codes : int;
  size : int; (* MNA unknowns *)
  steps : int;
  n_sources : int;
  mode : string;
  build_s : float;
  analyze_s : float;
  total_psd : float;
}

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

(* run [f] with every LPTV wrap solve forced onto the dense Φ rung *)
let dense_phi f =
  Faultsim.arm
    [ { Faultsim.site = "lptv.gmres"; visit = -1; fault = Faultsim.Singular 0 } ];
  Fun.protect ~finally:Faultsim.disarm f

let measure ~reps ~codes ~steps =
  let params = { Dac_string.default_params with codes } in
  let freq = 1e6 in
  let circuit = Dac_string.testbench ~params ~freq () in
  let size = Circuit.size circuit in
  let pss = Pss.solve ~steps circuit ~period:(1.0 /. freq) in
  let output = Dac_string.tap (codes / 2) in
  List.map
    (fun (mode, wrap) ->
      wrap @@ fun () ->
      let lptv, build_s =
        best_of reps (fun () -> Lptv.build pss ~f_offset:1.0)
      in
      let sources = Pnoise.mismatch_sources lptv in
      (* a fresh context per rep, so the dense row pays for Φ every time *)
      let fresh =
        Queue.of_seq (Seq.init reps (fun _ -> Lptv.build pss ~f_offset:1.0))
      in
      let sb, analyze_s =
        best_of reps (fun () ->
            Pnoise.analyze (Queue.pop fresh) ~output ~harmonic:0 ~sources)
      in
      Format.printf "  %5d %5d %11s %10.3f %10.3f %14.6e@." codes size mode
        build_s analyze_s sb.Pnoise.total_psd;
      {
        codes;
        size;
        steps;
        n_sources = Array.length sources;
        mode;
        build_s;
        analyze_s;
        total_psd = sb.Pnoise.total_psd;
      })
    [ ("production", fun f -> f ()); ("dense_phi", dense_phi) ]

let json_of_case c =
  Printf.sprintf
    "    {\"codes\": %d, \"size\": %d, \"steps\": %d, \"sources\": %d, \
     \"mode\": %S, \"build_s\": %.6f, \"analyze_s\": %.6f, \
     \"total_psd\": %.17g}"
    c.codes c.size c.steps c.n_sources c.mode c.build_s c.analyze_s
    c.total_psd

let write_json ~path cases =
  let oc = open_out path in
  output_string oc "{\n";
  Printf.fprintf oc "  \"bench\": \"sparse\",\n";
  Printf.fprintf oc "  \"psd_parity_tol\": 1e-9,\n";
  output_string oc "  \"cases\": [\n";
  output_string oc (String.concat ",\n" (List.map json_of_case cases));
  output_string oc "\n  ]\n}\n";
  close_out oc;
  Format.printf "@.wrote %s@." path

let run ~quick =
  Util.section "SPARSE: production path vs the dense-Φ oracle on the DAC string";
  let reps = if quick then 1 else 3 in
  let steps = 48 in
  let sizes = if quick then [ 12; 40 ] else [ 16; 32; 64; 128 ] in
  Format.printf "  %5s %5s %11s %10s %10s %14s@." "codes" "mna" "mode"
    "build [s]" "pnoise [s]" "psd";
  let cases =
    List.concat_map (fun codes -> measure ~reps ~codes ~steps) sizes
  in
  (* parity gate: the production path must read the oracle's physics *)
  let rec pairs = function
    | p :: d :: rest when p.mode = "production" && d.mode = "dense_phi" ->
      let rel =
        Float.abs (d.total_psd -. p.total_psd)
        /. Float.max 1e-300 (Float.abs d.total_psd)
      in
      if rel > 1e-9 then
        failwith
          (Printf.sprintf
             "production/dense-Φ PSD mismatch at codes=%d: rel err %.3g"
             p.codes rel);
      pairs rest
    | _ :: rest -> pairs rest
    | [] -> ()
  in
  pairs cases;
  Format.printf "  parity: production matches the dense-Φ oracle within 1e-9 \
                 relative@.";
  write_json ~path:"BENCH_sparse.json" cases;
  (* telemetry profile of the largest size on the production path, so
     fill-in and plan-replay counters ride along with the timings *)
  let codes = List.fold_left Stdlib.max 0 sizes in
  Util.metrics_pass ~path:"BENCH_sparse_metrics.json" (fun () ->
      let params = { Dac_string.default_params with codes } in
      let freq = 1e6 in
      let circuit = Dac_string.testbench ~params ~freq () in
      let pss = Pss.solve ~steps circuit ~period:(1.0 /. freq) in
      let lptv = Lptv.build pss ~f_offset:1.0 in
      let sources = Pnoise.mismatch_sources lptv in
      Pnoise.analyze lptv ~output:(Dac_string.tap (codes / 2)) ~harmonic:0
        ~sources)
