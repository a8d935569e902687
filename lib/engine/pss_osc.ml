type t = {
  pss : Pss.t;
  frequency : float;
  anchor_row : int;
  anchor_value : float;
}

exception No_convergence of string

(* free-running transient from a slightly perturbed DC point; returns
   (x at a rising anchor crossing, period estimate) *)
let warmup ~policy ?budget circuit ~anchor ~f_guess ~settle_periods ~steps =
  let dc = Dc.solve ~policy ?budget circuit in
  (* kick the anchor node so a symmetric metastable start still
     oscillates *)
  let x0 = Vec.copy dc in
  let row = Circuit.node_row circuit anchor in
  x0.(row) <- x0.(row) +. 0.05;
  let t_guess = 1.0 /. f_guess in
  let dt = t_guess /. float_of_int steps in
  let w =
    Tran.run ~policy ?budget ~x0 circuit ~tstart:0.0
      ~tstop:(settle_periods *. t_guess) ~dt ()
  in
  let v = Waveform.signal w anchor in
  let vmin = Array.fold_left Float.min v.(0) v in
  let vmax = Array.fold_left Float.max v.(0) v in
  if vmax -. vmin < 1e-3 then
    raise (No_convergence "oscillator warmup: anchor node is not swinging");
  let mid = 0.5 *. (vmin +. vmax) in
  let period =
    match Waveform.period_estimate w anchor ~threshold:mid with
    | Some p -> p
    | None -> raise (No_convergence "oscillator warmup: no period estimate")
  in
  let crossings = Waveform.crossings w anchor ~threshold:mid ~edge:Waveform.Rising in
  let n_cross = Array.length crossings in
  if n_cross < 2 then raise (No_convergence "oscillator warmup: too few cycles");
  (* take the state at the sample nearest the second-to-last crossing *)
  let t_cross = crossings.(n_cross - 2) in
  let idx = ref 0 in
  Array.iteri
    (fun i tm -> if Float.abs (tm -. t_cross) < Float.abs (w.Waveform.times.(!idx) -. t_cross) then idx := i)
    w.Waveform.times;
  (Vec.copy w.Waveform.states.(!idx), period)

let solve ?(steps = 200) ?(max_iter = 60) ?(tol = 1e-7) ?(settle_periods = 20.0)
    ?(policy = Retry.default) ?budget circuit ~anchor ~f_guess =
  Obs.span "pss_osc.solve" @@ fun () ->
  Obs.count "pss_osc.solves" 1;
  let c_mat = Stamp.cmat circuit in
  let sys = Linsys.make circuit in
  let x_start, period0 =
    Obs.span "pss_osc.warmup" @@ fun () ->
    warmup ~policy ?budget circuit ~anchor ~f_guess ~settle_periods ~steps
  in
  let n = Vec.dim x_start in
  let anchor_row = Circuit.node_row circuit anchor in
  let anchor_value = x_start.(anchor_row) in
  let x0 = ref x_start in
  let period = ref period0 in
  let rhist = ref [] in
  let rec iterate iter =
    Budget.check_opt budget;
    if iter > max_iter then
      raise
        (No_convergence
           (Printf.sprintf
              "oscillator shooting: too many iterations (trajectory %s)"
              (Newton.history_string (Array.of_list (List.rev !rhist)))));
    let times, states, facts =
      try
        Obs.span "pss.sweep" @@ fun () ->
        Pss.sweep ~circuit ~sys ~c_mat ~tran_options:Tran.default_options
          ~t0:0.0 ~period:!period ~steps ~x0:!x0 ?budget ~policy ()
      with Pss.No_convergence m -> raise (No_convergence m)
    in
    Obs.count "pss.sweep_steps" steps;
    let r = Vec.sub states.(steps) !x0 in
    let a_res = !x0.(anchor_row) -. anchor_value in
    let rnorm = Float.max (Vec.norm_inf r) (Float.abs a_res) in
    rhist := rnorm :: !rhist;
    let pss =
      {
        Pss.circuit; period = !period; steps; times; states; c_mat; sys;
        step_facts = facts; monodromy = None; iterations = iter;
        residual = rnorm;
      }
    in
    if rnorm < tol then
      { pss; frequency = 1.0 /. !period; anchor_row; anchor_value }
    else begin
      Obs.count "pss_osc.shooting_iterations" 1;
      let mono = Pss.monodromy pss in
      (* augmented Newton step on (x0, T) *)
      let h = !period /. float_of_int steps in
      let xdot_t = Vec.scale (1.0 /. h) (Vec.sub states.(steps) states.(steps - 1)) in
      let j = Mat.create (n + 1) (n + 1) in
      for i = 0 to n - 1 do
        for jj = 0 to n - 1 do
          Mat.set j i jj (Mat.get mono i jj -. if i = jj then 1.0 else 0.0)
        done;
        Mat.set j i n xdot_t.(i)
      done;
      Mat.set j n anchor_row 1.0;
      let rhs = Array.make (n + 1) 0.0 in
      for i = 0 to n - 1 do
        rhs.(i) <- -.r.(i)
      done;
      rhs.(n) <- -.a_res;
      let delta =
        match Lu.factorize j with
        | lu -> Lu.solve lu rhs
        | exception Lu.Singular _ ->
          raise (No_convergence "oscillator shooting: singular Jacobian")
      in
      (* damp large period corrections to stay in the basin *)
      let dt_corr = delta.(n) in
      let max_dt = 0.2 *. !period in
      let damp =
        if Float.abs dt_corr > max_dt then max_dt /. Float.abs dt_corr else 1.0
      in
      for i = 0 to n - 1 do
        !x0.(i) <- !x0.(i) +. (damp *. delta.(i))
      done;
      period := !period +. (damp *. dt_corr);
      if !period <= 0.0 then
        raise (No_convergence "oscillator shooting: period went negative");
      iterate (iter + 1)
    end
  in
  iterate 0

let frequency t = t.frequency
