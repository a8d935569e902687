type t = {
  circuit : Circuit.t;
  period : float;
  steps : int;
  times : float array;
  states : Vec.t array;
  c_mat : Stamp.cmat;
  sys : Linsys.rsys;
  step_facts : Linsys.rfact array;
  mutable monodromy : Mat.t option;
  iterations : int;
  residual : float;
}

exception No_convergence of string

(* Dense monodromy from the per-step factorizations: X <- A_k X for
   k = 1..m, column by column, A_k = (C/h + G_k)⁻¹ (C/h). *)
let accumulate_monodromy ~c_mat ~h ~facts n =
  Obs.count "pss.monodromy.dense" 1;
  let m = Mat.identity n in
  let s = 1.0 /. h in
  let col = Vec.create n and rhs = Vec.create n in
  let scratch = Vec.create n and x = Vec.create n in
  Array.iter
    (fun fact ->
      for j = 0 to n - 1 do
        for i = 0 to n - 1 do
          col.(i) <- Mat.get m i j
        done;
        Csr.mul_vec_into c_mat.Stamp.c col rhs;
        for i = 0 to n - 1 do
          rhs.(i) <- s *. rhs.(i)
        done;
        Linsys.solve_into fact ~scratch rhs x;
        for i = 0 to n - 1 do
          Mat.set m i j x.(i)
        done
      done)
    facts;
  m

let monodromy t =
  match t.monodromy with
  | Some m -> m
  | None ->
    let h = t.period /. float_of_int t.steps in
    let m =
      accumulate_monodromy ~c_mat:t.c_mat ~h ~facts:t.step_facts
        (Csr.rows t.c_mat.Stamp.c)
    in
    t.monodromy <- Some m;
    m

(* Integrate one period with BE from x0; record states and per-step
   factorizations. *)
let sweep ~circuit ~sys ~c_mat ~tran_options ~t0 ~period ~steps ~x0 ?budget
    ?policy () =
  let h = period /. float_of_int steps in
  let times = Array.init (steps + 1) (fun k -> t0 +. (h *. float_of_int k)) in
  let states = Array.make (steps + 1) x0 in
  let facts =
    Array.init steps (fun k ->
        let r =
          Tran.step ~options:tran_options ~circuit ~sys ~c_mat
            ~x_prev:states.(k) ~t_prev:times.(k) ~t_next:times.(k + 1) ?budget
            ?policy ()
        in
        if not r.Newton.converged then begin
          let where =
            match r.Newton.worst_row with
            | Some j -> Printf.sprintf " at %s" (Circuit.row_name circuit j)
            | None -> ""
          in
          raise
            (No_convergence
               (Printf.sprintf
                  "PSS sweep: step at t=%.4g did not converge: residual %.3g%s \
                   (trajectory %s)"
                  times.(k + 1) r.Newton.residual_norm where
                  (Newton.history_string r.Newton.residual_history)))
        end;
        states.(k + 1) <- r.Newton.x;
        match r.Newton.last_fact with
        | Some f -> f
        | None -> raise (No_convergence "PSS sweep: no step factorization"))
  in
  (times, states, facts)

(* δ from (I − Φ)·δ = r without forming Φ: GMRES on the complexified
   operator, one variational sweep (reusing the step factorizations)
   per matrix-vector product.  Returns [None] on stagnation — the
   caller's dense rung.  The real/imag parts ride the real operator
   independently, so a real [r] keeps the whole Krylov space real. *)
let krylov_delta ~c_over_h ~facts ~gws n (r : Vec.t) =
  Obs.span "pss.krylov" @@ fun () ->
  let tmp = Vec.create n and scratch = Vec.create n in
  let phi_apply v =
    Array.iter
      (fun fact ->
        Csr.mul_vec_into c_over_h v tmp;
        Linsys.solve_into fact ~scratch tmp v)
      facts
  in
  let vre = Vec.create n and vim = Vec.create n in
  let apply (src : Cvec.t) (dst : Cvec.t) =
    for i = 0 to n - 1 do
      vre.(i) <- src.(i).Cx.re;
      vim.(i) <- src.(i).Cx.im
    done;
    phi_apply vre;
    phi_apply vim;
    for i = 0 to n - 1 do
      dst.(i) <-
        Cx.mk (src.(i).Cx.re -. vre.(i)) (src.(i).Cx.im -. vim.(i))
    done
  in
  let b = Cvec.of_real r in
  let x = Cvec.create n in
  let stats = Gmres.solve ~apply gws ~b ~x in
  if stats.Gmres.converged then Some (Cvec.real x) else None

let solve ?(steps = 200) ?(max_iter = 40) ?(tol = 1e-7)
    ?(policy = Retry.default) ?budget ?x0 ?(warmup_periods = 2) circuit
    ~period =
  Obs.span "pss.solve" @@ fun () ->
  Obs.count "pss.solves" 1;
  let c_mat = Stamp.cmat circuit in
  let sys = Linsys.make circuit in
  let tran_options = Tran.default_options in
  let x_init =
    match x0 with
    | Some x -> Vec.copy x
    | None ->
      let dc = Dc.solve ~policy ?budget circuit in
      if warmup_periods <= 0 then dc
      else begin
        let w =
          Tran.run ~policy ?budget ~x0:dc ~record:false circuit ~tstart:0.0
            ~tstop:(period *. float_of_int warmup_periods)
            ~dt:(period /. float_of_int steps)
            ()
        in
        w.Waveform.states.(Array.length w.Waveform.states - 1)
      end
  in
  let n = Vec.dim x_init in
  (* sticky per-solve flag: a GMRES stagnation drops the rest of this
     shooting run onto the dense rung *)
  let krylov = ref true in
  let gws = lazy (Gmres.make_ws ~n ~restart:Gmres.default_restart) in
  let dense_delta mono r =
    (* Newton on x(T;x0) - x0: (Φ - I)·δ = -r *)
    let j = Mat.sub mono (Mat.identity n) in
    match Lu.factorize j with
    | lu -> Lu.solve lu (Vec.scale (-1.0) r)
    | exception Lu.Singular _ ->
      raise (No_convergence "PSS shooting: singular (monodromy has \
                             an eigenvalue at 1; use Pss_osc?)")
  in
  let solve_with steps =
    let h = period /. float_of_int steps in
    let c_over_h = Csr.scale (1.0 /. h) c_mat.Stamp.c in
    let x0 = ref (Vec.copy x_init) in
    let rhist = ref [] in
    let rec iterate iter =
      Budget.check_opt budget;
      let times, states, facts =
        Obs.span "pss.sweep" @@ fun () ->
        sweep ~circuit ~sys ~c_mat ~tran_options ~t0:0.0 ~period ~steps
          ~x0:!x0 ?budget ~policy ()
      in
      Obs.count "pss.sweep_steps" steps;
      let r = Vec.sub states.(steps) !x0 in
      let rnorm = Vec.norm_inf r in
      rhist := rnorm :: !rhist;
      if rnorm < tol then
        {
          circuit; period; steps; times; states; c_mat; sys;
          step_facts = facts; monodromy = None; iterations = iter;
          residual = rnorm;
        }
      else if iter >= max_iter then
        raise
          (No_convergence
             (Printf.sprintf
                "PSS shooting stalled: residual %.3g after %d iters \
                 (trajectory %s)"
                rnorm iter
                (Newton.history_string (Array.of_list (List.rev !rhist)))))
      else begin
        Obs.count "pss.shooting_iterations" 1;
        (* (I − Φ)·δ = r, matrix-free; injected "pss.gmres" faults and
           real stagnation both take the dense rung *)
        let delta =
          if not !krylov then None
          else
            match Faultsim.fire "pss.gmres" with
            | Some _ -> None
            | None ->
              krylov_delta ~c_over_h ~facts ~gws:(Lazy.force gws) n r
        in
        let delta =
          match delta with
          | Some d -> d
          | None ->
            if !krylov then begin
              Retry.rung "pss.gmres_fallback";
              Linsys.note_krylov_fallback ();
              krylov := false
            end;
            dense_delta (accumulate_monodromy ~c_mat ~h ~facts n) r
        in
        x0 := Vec.add !x0 delta;
        iterate (iter + 1)
      end
    in
    iterate 0
  in
  (* shooting fallback rung: a sweep that stalls (a BE step that will
     not converge on the current grid) or a stalled shooting loop is
     retried on a 2× finer grid, bounded by the policy *)
  let rec ladder steps tries =
    match solve_with steps with
    | t -> t
    | exception No_convergence _
      when policy.Retry.allow_homotopy && tries < policy.Retry.max_retries ->
      Budget.check_opt budget;
      Retry.rung "pss.refine";
      ladder (steps * 2) (tries + 1)
  in
  ladder steps 0

let state_at t ~k = t.states.(k)

let xdot t ~k =
  if k < 1 || k > t.steps then invalid_arg "Pss.xdot";
  let h = t.period /. float_of_int t.steps in
  Vec.scale (1.0 /. h) (Vec.sub t.states.(k) t.states.(k - 1))

let node_samples t node =
  let id = Circuit.node t.circuit node in
  Array.init t.steps (fun i ->
      if id = 0 then 0.0 else t.states.(i + 1).(id - 1))

let fundamental t node = Fft.fourier_coefficient (node_samples t node) 1
let amplitude t node = 2.0 *. Cx.abs (fundamental t node)

let floquet_multipliers t = Eig.eigenvalues_sorted (monodromy t)

let to_waveform t =
  { Waveform.circuit = t.circuit; times = t.times; states = t.states }
