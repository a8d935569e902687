(* Tests for the sparse solver stack: Coo assembly, Csr kernels,
   Symbolic orderings, and Splu/Csplu against the dense references.
   Engine-level parity against the dense oracle lives at the bottom;
   the QCheck generators build random RCL+MOSFET circuits. *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ------------------------------------------------------------------ Coo *)

let test_coo_duplicate_summing () =
  let a = Coo.create 3 3 in
  Coo.add a 0 0 1.0;
  Coo.add a 2 1 5.0;
  Coo.add a 0 0 2.5;
  Coo.add a 1 2 (-1.0);
  Coo.add a 2 1 (-5.0);
  Coo.add a 0 0 0.5;
  Alcotest.(check int) "raw entries" 6 (Coo.entries a);
  let c = Coo.to_csr a in
  Alcotest.(check int) "merged nnz" 3 (Csr.nnz c);
  check_float "summed" 4.0 (Csr.get c 0 0);
  check_float "cancelled kept" 0.0 (Csr.get c 2 1);
  check_float "lone" (-1.0) (Csr.get c 1 2);
  check_float "absent" 0.0 (Csr.get c 1 1)

let test_coo_sorted_columns () =
  let a = Coo.create 2 5 in
  List.iter (fun j -> Coo.add a 0 j (float_of_int j)) [ 4; 0; 3; 1 ];
  let c = Coo.to_csr a in
  let prev = ref (-1) in
  for p = c.Csr.rp.(0) to c.Csr.rp.(1) - 1 do
    Alcotest.(check bool) "ascending columns" true (c.Csr.ci.(p) > !prev);
    prev := c.Csr.ci.(p)
  done

let test_coo_out_of_range () =
  let a = Coo.create 2 2 in
  Alcotest.check_raises "row range" (Invalid_argument "Coo.add") (fun () ->
      Coo.add a 2 0 1.0)

(* ------------------------------------------------------------------ Csr *)

let random_sparse rng n ~fill =
  let m = Mat.create n n in
  for i = 0 to n - 1 do
    (* strong diagonal keeps the fixed-pivot replay well-conditioned *)
    Mat.set m i i (Rng.uniform_range rng 1.0 2.0);
    for j = 0 to n - 1 do
      if i <> j && Rng.uniform rng < fill then
        Mat.set m i j (Rng.uniform_range rng (-1.0) 1.0)
    done
  done;
  m

let test_csr_matvec () =
  let rng = Rng.create 11 in
  for _trial = 1 to 10 do
    let n = 1 + Rng.int rng 20 in
    let m = random_sparse rng n ~fill:0.3 in
    let c = Csr.of_dense m in
    let x = Array.init n (fun _ -> Rng.uniform_range rng (-1.0) 1.0) in
    let yd = Mat.mul_vec m x and ys = Csr.mul_vec c x in
    Alcotest.(check bool) "mul_vec" true (Vec.dist_inf yd ys < 1e-12);
    let ytd = Mat.tmul_vec m x in
    let yts = Array.make n 0.0 in
    Csr.tmul_vec_into c x yts;
    Alcotest.(check bool) "tmul_vec" true (Vec.dist_inf ytd yts < 1e-12)
  done

(* ------------------------------------------------------------- Symbolic *)

let check_permutation n q =
  Alcotest.(check int) "length" n (Array.length q);
  let seen = Array.make n false in
  Array.iter
    (fun j ->
      Alcotest.(check bool) "in range" true (j >= 0 && j < n);
      Alcotest.(check bool) "no repeat" false seen.(j);
      seen.(j) <- true)
    q

let test_symbolic_permutation () =
  let rng = Rng.create 23 in
  for _trial = 1 to 10 do
    let n = 1 + Rng.int rng 30 in
    let m = random_sparse rng n ~fill:0.15 in
    let c = Csr.of_dense m in
    let sym = Symbolic.analyze ~ordering:Symbolic.Rcm c in
    check_permutation n sym.Symbolic.q;
    let nat = Symbolic.analyze ~ordering:Symbolic.Natural c in
    check_permutation n nat.Symbolic.q;
    Array.iteri
      (fun k j -> Alcotest.(check int) "natural is identity" k j)
      nat.Symbolic.q
  done

let test_symbolic_disconnected () =
  (* block-diagonal pattern: RCM must still order every component *)
  let a = Coo.create 6 6 in
  List.iter
    (fun (i, j) ->
      Coo.add a i j 1.0;
      Coo.add a j i 1.0)
    [ (0, 1); (2, 3); (4, 5) ];
  for i = 0 to 5 do
    Coo.add a i i 2.0
  done;
  let sym = Symbolic.analyze (Coo.to_csr a) in
  check_permutation 6 sym.Symbolic.q

(* ----------------------------------------------------------------- Splu *)

let residual_ok ?(tol = 1e-8) m x b =
  let r = Mat.mul_vec m x in
  let nb = Float.max (Vec.norm_inf b) 1e-30 in
  Vec.dist_inf r b /. nb < tol

let test_splu_vs_dense () =
  let rng = Rng.create 42 in
  for _trial = 1 to 20 do
    let n = 1 + Rng.int rng 25 in
    let m = random_sparse rng n ~fill:0.25 in
    let c = Csr.of_dense m in
    let p = Splu.plan c in
    let f = Splu.factorize p c in
    let b = Array.init n (fun _ -> Rng.uniform_range rng (-1.0) 1.0) in
    let xs = Splu.solve f b in
    let xd = Lu.solve_dense m b in
    Alcotest.(check bool) "solve matches dense" true
      (Vec.dist_inf xs xd < 1e-8 *. Float.max 1.0 (Vec.norm_inf xd));
    Alcotest.(check bool) "residual" true (residual_ok m xs b);
    let xt = Splu.solve_transpose f b in
    let xtd = Lu.solve_transpose (Lu.factorize m) b in
    Alcotest.(check bool) "transpose matches dense" true
      (Vec.dist_inf xt xtd < 1e-8 *. Float.max 1.0 (Vec.norm_inf xtd))
  done

let test_splu_zero_diagonal () =
  (* MNA-style: a voltage-source branch row has a structurally zero
     diagonal, so the plan must pivot off-diagonal *)
  let m =
    Mat.of_arrays
      [|
        [| 1.0; 0.0; 1.0 |];
        [| 0.0; 2.0; -1.0 |];
        [| 1.0; -1.0; 0.0 |];
      |]
  in
  let c = Csr.of_dense m in
  let f = Splu.factorize (Splu.plan c) c in
  let b = [| 1.0; 2.0; 3.0 |] in
  let x = Splu.solve f b in
  Alcotest.(check bool) "residual" true (residual_ok m x b)

let test_splu_refactorize () =
  let rng = Rng.create 77 in
  for _trial = 1 to 10 do
    let n = 2 + Rng.int rng 20 in
    let m = random_sparse rng n ~fill:0.25 in
    let c = Csr.of_dense m in
    let f = Splu.factorize (Splu.plan c) c in
    (* same pattern, different values: rescale every stored entry *)
    for p = 0 to Csr.nnz c - 1 do
      c.Csr.v.(p) <- c.Csr.v.(p) *. Rng.uniform_range rng 0.5 1.5
    done;
    Splu.refactorize f c;
    let m' = Csr.to_dense c in
    let b = Array.init n (fun _ -> Rng.uniform_range rng (-1.0) 1.0) in
    let x = Splu.solve f b in
    Alcotest.(check bool) "refactorized residual" true
      (residual_ok ~tol:1e-6 m' x b);
    let xt = Splu.solve_transpose f b in
    let xtd = Lu.solve_transpose (Lu.factorize m') b in
    Alcotest.(check bool) "refactorized transpose" true
      (Vec.dist_inf xt xtd < 1e-6 *. Float.max 1.0 (Vec.norm_inf xtd))
  done

let test_splu_singular () =
  let m = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  let c = Csr.of_dense m in
  Alcotest.(check bool) "raises Singular" true
    (match Splu.plan c with
    | _ -> false
    | exception Splu.Singular _ -> true)

(* ---------------------------------------------------------------- Csplu *)

let test_csplu_vs_dense () =
  let rng = Rng.create 99 in
  for _trial = 1 to 10 do
    let n = 1 + Rng.int rng 15 in
    let m = random_sparse rng n ~fill:0.3 in
    let c = Csr.of_dense m in
    let nnz = Csr.nnz c in
    let vals =
      Array.init nnz (fun p ->
          Cx.mk c.Csr.v.(p) (Rng.uniform_range rng (-0.5) 0.5))
    in
    let dense = Cmat.create n n in
    for i = 0 to n - 1 do
      for p = c.Csr.rp.(i) to c.Csr.rp.(i + 1) - 1 do
        Cmat.set dense i c.Csr.ci.(p) vals.(p)
      done
    done;
    let f = Csplu.factorize (Csplu.plan c vals) c vals in
    let b = Array.init n (fun _ ->
        Cx.mk (Rng.uniform_range rng (-1.0) 1.0)
          (Rng.uniform_range rng (-1.0) 1.0))
    in
    let xs = Csplu.solve f b in
    let xd = Clu.solve_dense dense b in
    let err = ref 0.0 and scale = ref 1.0 in
    for i = 0 to n - 1 do
      err := Float.max !err (Cx.abs (Cx.( -: ) xs.(i) xd.(i)));
      scale := Float.max !scale (Cx.abs xd.(i))
    done;
    Alcotest.(check bool) "complex solve matches dense" true
      (!err < 1e-8 *. !scale);
    let xts = Csplu.solve_transpose f b in
    let xtd = Clu.solve_transpose (Clu.factorize dense) b in
    let terr = ref 0.0 in
    for i = 0 to n - 1 do
      terr := Float.max !terr (Cx.abs (Cx.( -: ) xts.(i) xtd.(i)))
    done;
    Alcotest.(check bool) "complex transpose matches dense" true
      (!terr < 1e-8 *. !scale)
  done

(* Csplu runs Splu's plan construction with complex arithmetic: on
   values whose imaginary parts are all zero it must choose exactly the
   real plan (same order, pivots and L/U pattern) and its solutions'
   real parts must be Splu's to the bit.  Random diagonals are dropped
   so pivots also land off the diagonal. *)
let prop_csplu_real_plan =
  QCheck.Test.make ~count:60
    ~name:"Csplu on zero-imaginary values replays Splu bit for bit"
    QCheck.(pair (int_bound 10_000) (int_range 1 25))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let m = random_sparse rng n ~fill:0.3 in
      for i = 0 to n - 1 do
        if Rng.uniform rng < 0.3 then Mat.set m i i 0.0
      done;
      let c = Csr.of_dense m in
      let vals = Array.map Cx.re c.Csr.v in
      let attempt f =
        match f () with p -> Ok p | exception Splu.Singular k -> Error k
      in
      match
        (attempt (fun () -> Splu.plan c), attempt (fun () -> Csplu.plan c vals))
      with
      | Error k, Error k' -> k = k'
      | Ok p, Ok cp ->
        let f = Splu.factorize p c and cf = Csplu.factorize cp c vals in
        let b = Array.init n (fun _ -> Rng.uniform_range rng (-1.0) 1.0) in
        let bits (x : Vec.t) (z : Cvec.t) =
          Array.for_all2
            (fun a (w : Cx.t) ->
              Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float w.Cx.re))
            x z
        in
        p = cp
        && bits (Splu.solve f b) (Csplu.solve cf (Cvec.of_real b))
        && bits (Splu.solve_transpose f b)
             (Csplu.solve_transpose cf (Cvec.of_real b))
      | Ok _, Error _ | Error _, Ok _ -> false)

(* ------------------------------------ engine-level parity (QCheck) *)

(* Random RC ladder behind a voltage source (the branch row gives the
   MNA matrix a structurally zero diagonal, so the sparse LU must
   pivot off-diagonal) plus a MOSFET load for nonlinearity. *)
let random_mna_circuit rng n =
  let b = Builder.create () in
  Builder.vdc b "VDD" "vdd" "0" 1.2;
  for k = 1 to n do
    let nk = Printf.sprintf "n%d" k in
    let prev = if k = 1 then "vdd" else Printf.sprintf "n%d" (k - 1) in
    Builder.resistor b (Printf.sprintf "Rs%d" k) prev nk
      (Rng.uniform_range rng 100.0 10e3);
    Builder.resistor b (Printf.sprintf "Rp%d" k) nk "0"
      (Rng.uniform_range rng 1e3 50e3);
    Builder.capacitor b (Printf.sprintf "Cp%d" k) nk "0"
      (Rng.uniform_range rng 0.1e-12 1e-12)
  done;
  let mid = Printf.sprintf "n%d" (1 + (n / 2)) in
  Builder.mosfet b "M1" ~d:"vdd" ~g:mid ~s:"0" ~model:Mosfet.nmos_013
    ~w:2e-6 ~l:0.13e-6 ();
  b

let rel_dist_inf a b =
  let err = ref 0.0 and scale = ref 1.0 in
  Array.iteri
    (fun i ai ->
      err := Float.max !err (Float.abs (ai -. b.(i)));
      scale := Float.max !scale (Float.abs ai))
    a;
  !err /. !scale

(* The dense oracle: with "linsys.splu" failing at every visit each
   real factorization takes Linsys's dense Lu rung on the same values;
   with "lptv.gmres" failing every LPTV wrap solve takes the dense
   Φ(ω) rung. *)
let with_dense_oracle site f =
  Faultsim.arm [ { Faultsim.site; visit = -1; fault = Faultsim.Singular 0 } ];
  Fun.protect ~finally:Faultsim.disarm f

let prop_dc_parity =
  QCheck.Test.make ~count:30 ~name:"DC solve: sparse backend matches dense"
    QCheck.(pair (int_bound 10_000) (int_range 2 8))
    (fun (seed, n) ->
      let c = Builder.finish (random_mna_circuit (Rng.create (seed + 7)) n) in
      let xd = with_dense_oracle "linsys.splu" (fun () -> Dc.solve c) in
      let xs = Dc.solve c in
      rel_dist_inf xd xs < 1e-9)

let prop_tran_parity =
  QCheck.Test.make ~count:15
    ~name:"transient steps: sparse backend matches dense"
    QCheck.(pair (int_bound 10_000) (int_range 2 6))
    (fun (seed, n) ->
      let c =
        let b = random_mna_circuit (Rng.create (seed + 11)) n in
        Builder.isource b "Iin" "0" "n1"
          (Wave.Sin
             { Wave.offset = 0.0; ampl = 1e-4; freq = 1e7; phase_deg = 0.0 });
        Builder.finish b
      in
      let run () = Tran.run c ~tstart:0.0 ~tstop:2e-7 ~dt:1e-8 () in
      let wd = with_dense_oracle "linsys.splu" run and ws = run () in
      let last = Waveform.length wd - 1 in
      Waveform.length ws = Waveform.length wd
      && rel_dist_inf wd.Waveform.states.(last) ws.Waveform.states.(last)
         < 1e-9)

(* The LPTV step factors M_k = C(1/h + jω) + G(t_k) on a PSS grid,
   stamped as Lptv.build stamps them, solved by Csplu and by dense Clu
   on the same values. *)
let step_factor_parity (pss : Pss.t) ~f_offset =
  let circuit = pss.Pss.circuit in
  let n = Circuit.size circuit in
  let h = pss.Pss.period /. float_of_int pss.Pss.steps in
  let omega = 2.0 *. Float.pi *. f_offset in
  let pat = Stamp.pattern circuit in
  let c_vals = Array.make (Csr.nnz pat) 0.0 in
  Stamp.stamp_c circuit ~add:(fun i j v ->
      let p = Csr.index pat i j in
      c_vals.(p) <- c_vals.(p) +. v);
  let rng = Rng.create 5 in
  let worst = ref 0.0 in
  for k = 1 to pss.Pss.steps do
    let gcsr = Csr.copy pat in
    Stamp.eval circuit ~t:pss.Pss.times.(k) ~gmin:1e-12 ~x:pss.Pss.states.(k)
      ~g:(Vec.create n) ~jac:(Some (Stamp.csr_sink gcsr)) ();
    let zvals =
      Array.mapi
        (fun p g -> Cx.mk (g +. (c_vals.(p) /. h)) (omega *. c_vals.(p)))
        gcsr.Csr.v
    in
    let dense = Cmat.create n n in
    for i = 0 to n - 1 do
      for p = pat.Csr.rp.(i) to pat.Csr.rp.(i + 1) - 1 do
        Cmat.set dense i pat.Csr.ci.(p) zvals.(p)
      done
    done;
    let fs = Csplu.factorize (Csplu.plan pat zvals) pat zvals in
    let fd = Clu.factorize dense in
    let b =
      Cvec.init n (fun _ ->
          Cx.mk (Rng.uniform_range rng (-1.0) 1.0)
            (Rng.uniform_range rng (-1.0) 1.0))
    in
    let rel xs xd =
      Cvec.norm_inf (Cvec.sub xs xd) /. Float.max 1e-300 (Cvec.norm_inf xd)
    in
    worst := Float.max !worst (rel (Csplu.solve fs b) (Clu.solve fd b));
    worst :=
      Float.max !worst
        (rel (Csplu.solve_transpose fs b) (Clu.solve_transpose fd b))
  done;
  !worst

(* End-to-end: LPTV build + adjoint PNOISE on the driven DAC-string
   bench against the dense oracle — the matrix-free wrap against the
   dense Φ(ω) rung on the PNOISE total, and every sparse step factor
   against dense Clu.  Mirrors the parity gate of bench/exp_sparse at a
   size the unit tests can afford. *)
let test_pnoise_parity () =
  List.iter
    (fun codes ->
      let params = { Dac_string.default_params with codes } in
      let freq = 1e6 in
      let circuit = Dac_string.testbench ~params ~freq () in
      let pss = Pss.solve ~steps:16 circuit ~period:(1.0 /. freq) in
      let total () =
        let lptv = Lptv.build pss ~f_offset:1.0 in
        let sources = Pnoise.mismatch_sources lptv in
        let sb =
          Pnoise.analyze lptv ~output:(Dac_string.tap (codes / 2)) ~harmonic:0
            ~sources
        in
        sb.Pnoise.total_psd
      in
      let d = with_dense_oracle "lptv.gmres" total and s = total () in
      Alcotest.(check bool)
        (Printf.sprintf "PNOISE total parity at codes=%d" codes)
        true
        (Float.abs (d -. s) < 1e-9 *. Float.abs d);
      let worst = step_factor_parity pss ~f_offset:1.0 in
      Alcotest.(check bool)
        (Printf.sprintf "step factors Csplu = Clu at codes=%d (rel %.2g)" codes
           worst)
        true (worst < 1e-9))
    [ 6; 12 ]

(* A complex plan orders its pattern with the circuit's one memoized
   analysis (Stamp.ordering), as the real plans do: a PSS + LPTV build,
   and an operating point + AC sweep, each run Symbolic.analyze once
   per circuit topology.  The plan cache is off so every plan is
   actually constructed. *)
let test_one_analysis_per_topology () =
  Obs.enable ();
  Linsys.set_plan_cache_capacity 0;
  Fun.protect
    ~finally:(fun () ->
      Linsys.set_plan_cache_capacity 64;
      Obs.disable ())
  @@ fun () ->
  let analyses f =
    let before = Obs.counter_value "symbolic.plan" in
    f ();
    Obs.counter_value "symbolic.plan" - before
  in
  let params = Strongarm.default_params in
  let comparator = Strongarm.testbench ~params () in
  Alcotest.(check int) "comparator PSS + Lptv.build" 1
    (analyses (fun () ->
         let pss =
           Pss.solve ~steps:100 comparator ~period:params.Strongarm.clk_period
         in
         ignore (Lptv.build pss ~f_offset:1.0 : Lptv.t)));
  let rc = Builder.finish (random_mna_circuit (Rng.create 3) 5) in
  Alcotest.(check int) "Ac.prepare + two frequencies" 1
    (analyses (fun () ->
         let ac = Ac.prepare rc in
         List.iter
           (fun freq ->
             ignore
               (Ac.transfer ac ~freq ~input:(Ac.Vsource "VDD") ~output:"n5"))
           [ 1e3; 1e6 ]))

let () =
  Alcotest.run "sparse"
    [
      ( "coo",
        [
          Alcotest.test_case "duplicate summing" `Quick
            test_coo_duplicate_summing;
          Alcotest.test_case "sorted columns" `Quick test_coo_sorted_columns;
          Alcotest.test_case "out of range" `Quick test_coo_out_of_range;
        ] );
      ( "csr",
        [ Alcotest.test_case "matvec vs dense" `Quick test_csr_matvec ] );
      ( "symbolic",
        [
          Alcotest.test_case "permutation validity" `Quick
            test_symbolic_permutation;
          Alcotest.test_case "disconnected components" `Quick
            test_symbolic_disconnected;
        ] );
      ( "splu",
        [
          Alcotest.test_case "solve vs dense" `Quick test_splu_vs_dense;
          Alcotest.test_case "zero diagonal pivoting" `Quick
            test_splu_zero_diagonal;
          Alcotest.test_case "refactorize same pattern" `Quick
            test_splu_refactorize;
          Alcotest.test_case "singular detection" `Quick test_splu_singular;
        ] );
      ( "csplu",
        [
          Alcotest.test_case "solve vs dense" `Quick test_csplu_vs_dense;
          QCheck_alcotest.to_alcotest prop_csplu_real_plan;
          Alcotest.test_case "one analysis per topology" `Quick
            test_one_analysis_per_topology;
        ] );
      ( "engine parity",
        QCheck_alcotest.to_alcotest prop_dc_parity
        :: QCheck_alcotest.to_alcotest prop_tran_parity
        :: [ Alcotest.test_case "pnoise totals" `Quick test_pnoise_parity ] );
    ]
