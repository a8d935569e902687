(* Tests for waveforms, the MOSFET model, MNA stamping, and mismatch
   injections.  Jacobians and injections are validated against finite
   differences — everything downstream (Newton, PSS, LPTV) depends on
   their correctness. *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let rel_close ?(tol = 1e-5) a b =
  Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* ----------------------------------------------------------------- Wave *)

let test_wave_dc () =
  check_float "dc" 1.5 (Wave.eval (Wave.Dc 1.5) 42.0)

let test_wave_pulse () =
  let p =
    Wave.Pulse
      { Wave.v1 = 0.0; v2 = 1.0; delay = 1.0; rise = 1.0; fall = 1.0;
        width = 2.0; period = 10.0 }
  in
  check_float "before delay" 0.0 (Wave.eval p 0.5);
  check_float "mid rise" 0.5 (Wave.eval p 1.5);
  check_float "top" 1.0 (Wave.eval p 3.0);
  check_float "mid fall" 0.5 (Wave.eval p 4.5);
  check_float "back low" 0.0 (Wave.eval p 6.0);
  (* periodic repetition *)
  check_float "next period mid rise" 0.5 (Wave.eval p 11.5);
  check_float "dc value" 0.0 (Wave.dc_value p)

let test_wave_sin () =
  let s = Wave.Sin { Wave.offset = 1.0; ampl = 2.0; freq = 1.0; phase_deg = 0.0 } in
  check_float "t=0" 1.0 (Wave.eval s 0.0);
  check_float ~eps:1e-9 "quarter" 3.0 (Wave.eval s 0.25);
  Alcotest.(check bool) "periodic with 1s" true (Wave.is_periodic_with s 1.0);
  Alcotest.(check bool) "periodic with 2s" true (Wave.is_periodic_with s 2.0);
  Alcotest.(check bool) "not periodic with 1.5s" false
    (Wave.is_periodic_with s 1.5)

let test_wave_pwl () =
  let w = Wave.Pwl [| (0.0, 0.0); (1.0, 2.0); (3.0, 2.0); (4.0, 0.0) |] in
  check_float "interp" 1.0 (Wave.eval w 0.5);
  check_float "flat" 2.0 (Wave.eval w 2.0);
  check_float "clamp right" 0.0 (Wave.eval w 10.0);
  check_float "clamp left" 0.0 (Wave.eval w (-1.0));
  let wp = Wave.Pwl_periodic (4.0, [| (0.0, 0.0); (1.0, 2.0); (4.0, 0.0) |]) in
  check_float "periodic pwl" 2.0 (Wave.eval wp 5.0)

let test_wave_square () =
  let s = Wave.square ~v1:0.0 ~v2:1.2 ~period:2e-9 ~transition:0.1e-9 () in
  check_float "low at 0" 0.0 (Wave.eval s 0.0);
  check_float "high at quarter" 1.2 (Wave.eval s 0.5e-9);
  check_float "low at 3/4" 0.0 (Wave.eval s 1.5e-9);
  Alcotest.(check bool) "periodic" true (Wave.is_periodic_with s 2e-9)

(* --------------------------------------------------------------- Mosfet *)

let nmos = Mosfet.nmos_013
let pmos = Mosfet.pmos_013

let eval_id m ~vd ~vg ~vs ~dvt ~dbeta =
  (Mosfet.eval m ~w:2e-6 ~l:0.13e-6 ~dvt ~dbeta ~vd ~vg ~vs).Mosfet.id

let test_mosfet_regions () =
  (* off: tiny current *)
  let off = eval_id nmos ~vd:1.2 ~vg:0.0 ~vs:0.0 ~dvt:0.0 ~dbeta:0.0 in
  Alcotest.(check bool) "off current small" true (Float.abs off < 1e-7);
  (* on, saturation: substantial current *)
  let sat = eval_id nmos ~vd:1.2 ~vg:1.2 ~vs:0.0 ~dvt:0.0 ~dbeta:0.0 in
  Alcotest.(check bool) "on current substantial" true (sat > 1e-5);
  (* triode current below saturation current *)
  let triode = eval_id nmos ~vd:0.05 ~vg:1.2 ~vs:0.0 ~dvt:0.0 ~dbeta:0.0 in
  Alcotest.(check bool) "triode < sat" true (triode < sat && triode > 0.0);
  (* subthreshold slope: current ratio for 100 mV of gate drive *)
  let i1 = eval_id nmos ~vd:1.2 ~vg:0.15 ~vs:0.0 ~dvt:0.0 ~dbeta:0.0 in
  let i2 = eval_id nmos ~vd:1.2 ~vg:0.25 ~vs:0.0 ~dvt:0.0 ~dbeta:0.0 in
  let decade_ratio = i2 /. i1 in
  Alcotest.(check bool) "subthreshold exponential" true
    (decade_ratio > 5.0 && decade_ratio < 50.0)

let test_mosfet_symmetry () =
  (* drain/source exchange flips the current *)
  let fwd = eval_id nmos ~vd:0.3 ~vg:1.0 ~vs:0.1 ~dvt:0.0 ~dbeta:0.0 in
  let rev = eval_id nmos ~vd:0.1 ~vg:1.0 ~vs:0.3 ~dvt:0.0 ~dbeta:0.0 in
  Alcotest.(check bool) "antisymmetric in vds"
    true (rel_close ~tol:1e-9 fwd (-.rev));
  check_float ~eps:1e-15 "zero vds -> zero current" 0.0
    (eval_id nmos ~vd:0.5 ~vg:1.0 ~vs:0.5 ~dvt:0.0 ~dbeta:0.0)

let test_mosfet_pmos_mirror () =
  (* PMOS with mirrored bias carries the NMOS current, negated *)
  let inn = eval_id nmos ~vd:0.8 ~vg:1.0 ~vs:0.0 ~dvt:0.0 ~dbeta:0.0 in
  let ipp = eval_id { pmos with Mosfet.vt0 = nmos.Mosfet.vt0;
                       kp = nmos.Mosfet.kp }
      ~vd:(-0.8) ~vg:(-1.0) ~vs:0.0 ~dvt:0.0 ~dbeta:0.0
  in
  Alcotest.(check bool) "pmos mirrors nmos" true (rel_close ~tol:1e-9 inn (-.ipp));
  (* a real PMOS pulled to vdd conducts *)
  let ion = eval_id pmos ~vd:0.0 ~vg:0.0 ~vs:1.2 ~dvt:0.0 ~dbeta:0.0 in
  Alcotest.(check bool) "pmos on current negative (into source)" true (ion < -1e-5)

let fd_partial f x0 =
  let h = 1e-6 in
  (f (x0 +. h) -. f (x0 -. h)) /. (2.0 *. h)

let test_mosfet_derivatives () =
  let biases =
    [ (1.2, 1.2, 0.0); (0.05, 1.2, 0.0); (1.2, 0.3, 0.0); (0.4, 0.8, 0.2);
      (0.1, 1.0, 0.3) (* swapped region: vd < vs *) ]
  in
  List.iter
    (fun (vd, vg, vs) ->
      List.iter
        (fun m ->
          let vd, vg, vs =
            (* exercise the PMOS in its own bias quadrant *)
            if m.Mosfet.polarity = Mosfet.Pmos then (1.2 -. vd, 1.2 -. vg, 1.2 -. vs)
            else (vd, vg, vs)
          in
          let op = Mosfet.eval m ~w:2e-6 ~l:0.13e-6 ~dvt:0.0 ~dbeta:0.0 ~vd ~vg ~vs in
          let fd_gd = fd_partial (fun v -> eval_id m ~vd:v ~vg ~vs ~dvt:0.0 ~dbeta:0.0) vd in
          let fd_gg = fd_partial (fun v -> eval_id m ~vd ~vg:v ~vs ~dvt:0.0 ~dbeta:0.0) vg in
          let fd_gs = fd_partial (fun v -> eval_id m ~vd ~vg ~vs:v ~dvt:0.0 ~dbeta:0.0) vs in
          let fd_dvt = fd_partial (fun d -> eval_id m ~vd ~vg ~vs ~dvt:d ~dbeta:0.0) 0.0 in
          let fd_dbeta = fd_partial (fun d -> eval_id m ~vd ~vg ~vs ~dvt:0.0 ~dbeta:d) 0.0 in
          let scale = Float.max 1e-6 (Float.abs op.Mosfet.id) in
          let ok got want = Float.abs (got -. want) < 1e-3 *. Float.max scale (Float.abs want) in
          Alcotest.(check bool) "gd" true (ok op.Mosfet.gd fd_gd);
          Alcotest.(check bool) "gg" true (ok op.Mosfet.gg fd_gg);
          Alcotest.(check bool) "gs" true (ok op.Mosfet.gs fd_gs);
          Alcotest.(check bool) "di_dvt" true (ok op.Mosfet.di_dvt fd_dvt);
          Alcotest.(check bool) "di_dbeta" true (ok op.Mosfet.di_dbeta fd_dbeta);
          (* KCL consistency: gate draws no DC current *)
          Alcotest.(check bool) "gd+gg+gs = 0" true
            (Float.abs (op.Mosfet.gd +. op.Mosfet.gg +. op.Mosfet.gs) < 1e-9 *. Float.max 1.0 scale))
        [ nmos; pmos ])
    biases

let test_mosfet_pelgrom () =
  (* the paper's example device: 8.32 µm / 0.13 µm *)
  let w = 8.32e-6 and l = 0.13e-6 in
  let svt = Mosfet.sigma_vt nmos ~w ~l in
  let sbeta = Mosfet.sigma_beta nmos ~w ~l in
  check_float ~eps:1e-4 "sigma vt ~ 6.25 mV" 6.25e-3 svt;
  check_float ~eps:1e-4 "sigma beta ~ 3.13%" 0.03125 sbeta;
  (* halving the area scales sigma by sqrt(2) *)
  let svt2 = Mosfet.sigma_vt nmos ~w:(w /. 2.0) ~l in
  check_float ~eps:1e-6 "area scaling" (svt *. sqrt 2.0) svt2

let test_mosfet_ids_mismatch_magnitude () =
  (* 3-sigma of IDS for the 8.32/0.13 device should be in the paper's
     ~14% ballpark (they quote 14% at VGS = 1.0 V) *)
  let w = 8.32e-6 and l = 0.13e-6 in
  let op = Mosfet.eval nmos ~w ~l ~dvt:0.0 ~dbeta:0.0 ~vd:1.2 ~vg:1.0 ~vs:0.0 in
  let svt = Mosfet.sigma_vt nmos ~w ~l in
  let sbeta = Mosfet.sigma_beta nmos ~w ~l in
  let sigma_i =
    sqrt (((op.Mosfet.gg *. svt /. op.Mosfet.id) ** 2.0) +. (sbeta ** 2.0))
  in
  let three_sigma_pct = 300.0 *. sigma_i in
  Alcotest.(check bool)
    (Printf.sprintf "3sigma(IDS) = %.1f%% in [8, 20]" three_sigma_pct)
    true
    (three_sigma_pct > 8.0 && three_sigma_pct < 20.0)

(* ---------------------------------------------------------- Builder/MNA *)

let divider () =
  let b = Builder.create () in
  Builder.vdc b "V1" "in" "0" 2.0;
  Builder.resistor b "R1" "in" "out" 1e3;
  Builder.resistor b "R2" "out" "0" 1e3;
  Builder.finish b

let test_builder_nodes () =
  let c = divider () in
  Alcotest.(check int) "nodes" 2 (Circuit.num_nodes c);
  Alcotest.(check int) "branches" 1 (Circuit.num_branches c);
  Alcotest.(check int) "size" 3 (Circuit.size c);
  Alcotest.(check string) "node name" "out" (Circuit.node_name c (Circuit.node c "out"));
  Alcotest.(check bool) "ground" true (Circuit.node c "0" = 0);
  Alcotest.(check bool) "gnd alias" true (Circuit.node c "gnd" = 0)

let test_builder_duplicate_device () =
  let b = Builder.create () in
  Builder.resistor b "R1" "a" "0" 1e3;
  Builder.resistor b "R1" "a" "0" 2e3;
  Alcotest.(check bool) "duplicate rejected" true
    (try
       ignore (Builder.finish b);
       false
     with Invalid_argument _ -> true)

let test_stamp_residual_at_solution () =
  let c = divider () in
  (* manual solution: v_in = 2, v_out = 1, i_branch = -2/2k = -1 mA *)
  let x = [| 2.0; 1.0; -1e-3 |] in
  let g = Vec.create 3 in
  Stamp.eval c ~t:0.0 ~x ~g ~jac:None ();
  Alcotest.(check bool) "residual ~ 0" true (Vec.norm_inf g < 1e-12)

let test_stamp_jacobian_fd () =
  (* random circuit with every nonlinear device; Jacobian vs FD *)
  let b = Builder.create () in
  Builder.vdc b "VDD" "vdd" "0" 1.2;
  Builder.vsource b "VIN" "in" "0" (Wave.Dc 0.6);
  Builder.resistor b "R1" "vdd" "out" 10e3;
  Builder.mosfet b "M1" ~d:"out" ~g:"in" ~s:"0" ~model:nmos ~w:2e-6 ~l:0.13e-6 ();
  Builder.mosfet b "M2" ~d:"out2" ~g:"out" ~s:"vdd" ~b:"vdd" ~model:pmos
    ~w:4e-6 ~l:0.13e-6 ();
  Builder.resistor b "R2" "out2" "0" 20e3;
  Builder.diode b "D1" "out2" "0";
  Builder.vccs b "G1" "out" "0" "out2" "0" 1e-4;
  let c = Builder.finish b in
  let n = Circuit.size c in
  let rng = Rng.create 17 in
  let x = Array.init n (fun _ -> Rng.uniform_range rng 0.0 1.2) in
  let g = Vec.create n in
  let jac = Mat.create n n in
  Stamp.eval c ~t:0.0 ~x ~g ~jac:(Some (Stamp.dense_sink jac)) ();
  let h = 1e-7 in
  for j = 0 to n - 1 do
    let xp = Vec.copy x and xm = Vec.copy x in
    xp.(j) <- xp.(j) +. h;
    xm.(j) <- xm.(j) -. h;
    let gp = Vec.create n and gm = Vec.create n in
    Stamp.eval c ~t:0.0 ~x:xp ~g:gp ~jac:None ();
    Stamp.eval c ~t:0.0 ~x:xm ~g:gm ~jac:None ();
    for i = 0 to n - 1 do
      let fd = (gp.(i) -. gm.(i)) /. (2.0 *. h) in
      let got = Mat.get jac i j in
      Alcotest.(check bool)
        (Printf.sprintf "jac(%d,%d)" i j)
        true
        (Float.abs (fd -. got) < 1e-4 *. Float.max 1.0 (Float.abs fd))
    done
  done

let test_c_matrix () =
  let b = Builder.create () in
  Builder.capacitor b "C1" "a" "b" 1e-12;
  Builder.capacitor b "C2" "b" "0" 2e-12;
  Builder.inductor b "L1" "b" "0" 1e-9;
  let c = Builder.finish b in
  let cm = Stamp.cmat c in
  let ra = Circuit.node_row c "a" and rb = Circuit.node_row c "b" in
  check_float ~eps:1e-20 "caa" 1e-12 (Csr.get cm.Stamp.c ra ra);
  check_float ~eps:1e-20 "cab" (-1e-12) (Csr.get cm.Stamp.c ra rb);
  check_float ~eps:1e-20 "cbb" 3e-12 (Csr.get cm.Stamp.c rb rb);
  let br = Circuit.branch_row c "L1" in
  check_float ~eps:1e-20 "inductor row" (-1e-9) (Csr.get cm.Stamp.c br br);
  (* the dense reference, stamped here: the sparse C holds exactly its
     nonzeros, and each slot is that entry's place in the pattern *)
  let n = Circuit.size c in
  let dense = Mat.create n n in
  Stamp.stamp_c c ~add:(Mat.add_to dense);
  let nonzeros = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if Mat.get dense i j <> 0.0 then incr nonzeros;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "C(%d,%d)" i j) (Mat.get dense i j)
        (Csr.get cm.Stamp.c i j)
    done
  done;
  Alcotest.(check int) "only nonzeros stored" !nonzeros (Csr.nnz cm.Stamp.c);
  let pat = Stamp.pattern c in
  for i = 0 to n - 1 do
    for p = cm.Stamp.c.Csr.rp.(i) to cm.Stamp.c.Csr.rp.(i + 1) - 1 do
      Alcotest.(check int) "slot" (Csr.index pat i cm.Stamp.c.Csr.ci.(p))
        cm.Stamp.slot.(p)
    done
  done

let test_injection_fd () =
  (* injection columns = ∂g/∂δ: check against finite differences through
     apply_deltas *)
  let build delta_vec =
    let b = Builder.create () in
    Builder.vdc b "VDD" "vdd" "0" 1.2;
    Builder.vdc b "VIN" "in" "0" 0.7;
    Builder.resistor ~tol:0.01 b "R1" "vdd" "out" 5e3;
    Builder.mosfet b "M1" ~d:"out" ~g:"in" ~s:"0" ~model:nmos ~w:2e-6
      ~l:0.13e-6 ();
    let c = Builder.finish b in
    match delta_vec with
    | None -> c
    | Some d -> Circuit.apply_deltas c d
  in
  let c = build None in
  let params = Circuit.mismatch_params c in
  Alcotest.(check int) "param count" 3 (Array.length params);
  let n = Circuit.size c in
  let rng = Rng.create 5 in
  let x = Array.init n (fun _ -> Rng.uniform_range rng 0.2 1.0) in
  Array.iter
    (fun (p : Circuit.mismatch_param) ->
      let inj = Stamp.injection c p ~x () in
      let h = 1e-6 in
      let deltas_p = Array.make (Array.length params) 0.0 in
      deltas_p.(p.Circuit.param_index) <- h;
      let deltas_m = Array.make (Array.length params) 0.0 in
      deltas_m.(p.Circuit.param_index) <- -.h;
      let gp = Vec.create n and gm = Vec.create n in
      Stamp.eval (build (Some deltas_p)) ~t:0.0 ~x ~g:gp ~jac:None ();
      Stamp.eval (build (Some deltas_m)) ~t:0.0 ~x ~g:gm ~jac:None ();
      let fd = Array.init n (fun i -> (gp.(i) -. gm.(i)) /. (2.0 *. h)) in
      let inj_dense = Vec.create n in
      List.iter (fun (row, v) -> inj_dense.(row) <- inj_dense.(row) +. v) inj;
      Alcotest.(check bool)
        (Printf.sprintf "injection %s:%s" p.Circuit.device_name
           (Circuit.kind_to_string p.Circuit.kind))
        true
        (Vec.dist_inf fd inj_dense < 1e-4 *. Float.max 1.0 (Vec.norm_inf fd)))
    params

let test_apply_deltas_immutable () =
  let c = divider () in
  let b = Builder.create () in
  Builder.vdc b "V1" "in" "0" 1.0;
  Builder.resistor ~tol:0.05 b "R1" "in" "out" 1e3;
  Builder.resistor b "R2" "out" "0" 1e3;
  let c2 = Builder.finish b in
  let params = Circuit.mismatch_params c2 in
  Alcotest.(check int) "one param" 1 (Array.length params);
  let c3 = Circuit.apply_deltas c2 [| 0.1 |] in
  (match (Circuit.devices c3).(Circuit.device_index c3 "R1") with
   | Device.Resistor { r; _ } -> check_float ~eps:1e-9 "r scaled" 1.1e3 r
   | _ -> Alcotest.fail "expected resistor");
  (match (Circuit.devices c2).(Circuit.device_index c2 "R1") with
   | Device.Resistor { r; _ } -> check_float ~eps:1e-9 "original intact" 1e3 r
   | _ -> Alcotest.fail "expected resistor");
  ignore c

let test_noise_sources () =
  let c = divider () in
  let x = [| 2.0; 1.0; -1e-3 |] in
  let sources = Stamp.noise_sources c ~x () in
  Alcotest.(check int) "two resistors" 2 (List.length sources);
  match sources with
  | s :: _ ->
    (* 4kT/R at 300K, R=1k: 1.657e-23 A^2/Hz *)
    check_float ~eps:1e-25 "thermal psd" (4.0 *. 1.380649e-23 *. 300.0 /. 1e3)
      (s.Stamp.ns_psd 1.0)
  | [] -> Alcotest.fail "no sources"

(* ------------------------------------------------- linear-network laws *)

(* random resistor ladder with ground-referenced rungs *)
let random_ladder rng n =
  let b = Builder.create () in
  for k = 1 to n do
    let prev = if k = 1 then "0" else Printf.sprintf "n%d" (k - 1) in
    Builder.resistor b (Printf.sprintf "Rs%d" k) prev (Printf.sprintf "n%d" k)
      (Rng.uniform_range rng 100.0 10e3);
    Builder.resistor b (Printf.sprintf "Rp%d" k) (Printf.sprintf "n%d" k) "0"
      (Rng.uniform_range rng 100.0 10e3)
  done;
  b

let prop_superposition =
  QCheck.Test.make ~count:40 ~name:"superposition on random linear ladders"
    QCheck.(pair (int_bound 10_000) (int_range 2 8))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 3) in
      let node k = Printf.sprintf "n%d" (1 + (k mod n)) in
      let src1 = node (Rng.int rng n) and src2 = node (Rng.int rng n) in
      let i1 = Rng.uniform_range rng 0.1e-3 1e-3 in
      let i2 = Rng.uniform_range rng 0.1e-3 1e-3 in
      let build with1 with2 =
        let rng = Rng.create (seed + 3) in
        let b = random_ladder rng n in
        (* re-draw the source placement so the topology matches *)
        let _ = Rng.int rng n and _ = Rng.int rng n in
        let _ = Rng.uniform_range rng 0.1e-3 1e-3 in
        let _ = Rng.uniform_range rng 0.1e-3 1e-3 in
        if with1 then Builder.isource b "I1" "0" src1 (Wave.Dc i1);
        if with2 then Builder.isource b "I2" "0" src2 (Wave.Dc i2);
        Builder.finish b
      in
      let solve c = Dc.solve c in
      let both = solve (build true true) in
      let only1 = solve (build true false) in
      let only2 = solve (build false true) in
      let probe = node 0 in
      let v c x = Circuit.voltage c x probe in
      let c_both = build true true and c1 = build true false and c2 = build false true in
      Float.abs (v c_both both -. (v c1 only1 +. v c2 only2)) < 1e-9)

let prop_reciprocity =
  QCheck.Test.make ~count:40 ~name:"reciprocity of resistive networks"
    QCheck.(pair (int_bound 10_000) (int_range 2 8))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 17) in
      let a = 1 + Rng.int rng n and b_node = 1 + Rng.int rng n in
      let build src_at =
        let rng = Rng.create (seed + 17) in
        let bb = random_ladder rng n in
        let _ = Rng.int rng n and _ = Rng.int rng n in
        Builder.isource bb "I1" "0" (Printf.sprintf "n%d" src_at) (Wave.Dc 1e-3);
        Builder.finish bb
      in
      let ca = build a and cb = build b_node in
      let xa = Dc.solve ca and xb = Dc.solve cb in
      let v_ab = Circuit.voltage ca xa (Printf.sprintf "n%d" b_node) in
      let v_ba = Circuit.voltage cb xb (Printf.sprintf "n%d" a) in
      Float.abs (v_ab -. v_ba) < 1e-9 *. Float.max 1.0 (Float.abs v_ab))

let prop_kcl_at_solution =
  QCheck.Test.make ~count:40 ~name:"KCL residual vanishes at the DC solution"
    QCheck.(pair (int_bound 10_000) (int_range 2 8))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 29) in
      let b = random_ladder rng n in
      Builder.isource b "I1" "0" "n1" (Wave.Dc 1e-3);
      let c = Builder.finish b in
      let x = Dc.solve c in
      let g = Vec.create (Circuit.size c) in
      Stamp.eval c ~t:0.0 ~x ~g ~jac:None ();
      Vec.norm_inf g < 1e-9)

let () =
  Alcotest.run "circuit"
    [
      ( "wave",
        [
          Alcotest.test_case "dc" `Quick test_wave_dc;
          Alcotest.test_case "pulse" `Quick test_wave_pulse;
          Alcotest.test_case "sin" `Quick test_wave_sin;
          Alcotest.test_case "pwl" `Quick test_wave_pwl;
          Alcotest.test_case "square" `Quick test_wave_square;
        ] );
      ( "mosfet",
        [
          Alcotest.test_case "regions" `Quick test_mosfet_regions;
          Alcotest.test_case "symmetry" `Quick test_mosfet_symmetry;
          Alcotest.test_case "pmos mirror" `Quick test_mosfet_pmos_mirror;
          Alcotest.test_case "derivatives vs FD" `Quick test_mosfet_derivatives;
          Alcotest.test_case "pelgrom" `Quick test_mosfet_pelgrom;
          Alcotest.test_case "IDS mismatch magnitude" `Quick
            test_mosfet_ids_mismatch_magnitude;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_superposition; prop_reciprocity; prop_kcl_at_solution ] );
      ( "mna",
        [
          Alcotest.test_case "builder nodes" `Quick test_builder_nodes;
          Alcotest.test_case "duplicate device" `Quick test_builder_duplicate_device;
          Alcotest.test_case "residual at solution" `Quick
            test_stamp_residual_at_solution;
          Alcotest.test_case "jacobian vs FD" `Quick test_stamp_jacobian_fd;
          Alcotest.test_case "C matrix" `Quick test_c_matrix;
          Alcotest.test_case "injections vs FD" `Quick test_injection_fd;
          Alcotest.test_case "apply_deltas" `Quick test_apply_deltas_immutable;
          Alcotest.test_case "noise sources" `Quick test_noise_sources;
        ] );
    ]
