(* The periodic wrap I - Φ(ω) is applied matrix-free with GMRES — one
   variational sweep through the step factorizations per product,
   never forming Φ.  A wrap that stagnates builds the dense
   factorization once (under [lock]) and latches it. *)
type wrap = {
  mutable dense : Clu.t option; (* stagnation rung, built at most once *)
  lock : Mutex.t;
}

type t = {
  pss : Pss.t;
  f_offset : float;
  n : int;
  m : int; (* grid steps per period *)
  cmul : Csr.t; (* C/h *)
  solvers : Csplu.t array; (* M_k factorizations, k = 1..m at index k-1 *)
  wrap : wrap;
}

(* Scratch buffers for the allocation-free apply/solve kernels.  One
   workspace per lane — sharing one across domains is a data race. *)
type ws = {
  re_in : Vec.t;
  im_in : Vec.t;
  re_out : Vec.t;
  im_out : Vec.t;
  ct1 : Cvec.t; (* per-step solve rhs inside a_apply *)
  ct2 : Cvec.t; (* transpose-solve scratch / second intermediate *)
  ct3 : Cvec.t; (* sparse forward-solve scratch *)
}

let make_ws n =
  {
    re_in = Vec.create n;
    im_in = Vec.create n;
    re_out = Vec.create n;
    im_out = Vec.create n;
    ct1 = Cvec.create n;
    ct2 = Cvec.create n;
    ct3 = Cvec.create n;
  }

(* dst <- (C/h)·v, complex v through the real matrix; dst may alias v *)
let cmul_apply_into ws cm (v : Cvec.t) (dst : Cvec.t) =
  let n = Array.length v in
  for i = 0 to n - 1 do
    let z = Array.unsafe_get v i in
    Array.unsafe_set ws.re_in i z.Cx.re;
    Array.unsafe_set ws.im_in i z.Cx.im
  done;
  Csr.mul_vec_into cm ws.re_in ws.re_out;
  Csr.mul_vec_into cm ws.im_in ws.im_out;
  for i = 0 to n - 1 do
    Array.unsafe_set dst i
      (Cx.mk (Array.unsafe_get ws.re_out i) (Array.unsafe_get ws.im_out i))
  done

(* dst <- (C/h)ᵀ·v; dst may alias v *)
let cmul_tapply_into ws cm (v : Cvec.t) (dst : Cvec.t) =
  let n = Array.length v in
  for i = 0 to n - 1 do
    let z = Array.unsafe_get v i in
    Array.unsafe_set ws.re_in i z.Cx.re;
    Array.unsafe_set ws.im_in i z.Cx.im
  done;
  Csr.tmul_vec_into cm ws.re_in ws.re_out;
  Csr.tmul_vec_into cm ws.im_in ws.im_out;
  for i = 0 to n - 1 do
    Array.unsafe_set dst i
      (Cx.mk (Array.unsafe_get ws.re_out i) (Array.unsafe_get ws.im_out i))
  done

(* dst <- M_k⁻¹ b; b is consumed from ws.ct1 by the callers, dst may
   alias the caller's vector but not ws.ct1/ws.ct3 *)
let solve_step_into ws solvers ~k b dst =
  Csplu.solve_into solvers.(k - 1) ~scratch:ws.ct3 b dst

let solve_step_transpose_into ws solvers ~k b dst =
  Csplu.solve_transpose_into solvers.(k - 1) ~scratch:ws.ct2 b dst

(* A_{k-1} p = M_k⁻¹ (C/h) p   (maps p_{k-1} to the homogeneous part of p_k);
   dst may alias p but not ws.ct1 *)
let a_apply_into ws ~solvers ~cmul ~k p dst =
  cmul_apply_into ws cmul p ws.ct1;
  solve_step_into ws solvers ~k ws.ct1 dst

(* A_{k-1}ᵀ w = (C/h)ᵀ M_k⁻ᵀ w; dst may alias w but not ws.ct1/ws.ct2 *)
let a_transpose_apply_into ws ~solvers ~cmul ~k w dst =
  solve_step_transpose_into ws solvers ~k w ws.ct1;
  cmul_tapply_into ws cmul ws.ct1 dst

let build ?(domains = 1) ?(policy = Retry.default) ?budget (pss : Pss.t)
    ~f_offset =
  Obs.span "lptv.build" @@ fun () ->
  let circuit = pss.Pss.circuit in
  let n = Circuit.size circuit in
  let m = pss.Pss.steps in
  Obs.count "lptv.builds" 1;
  Obs.count "lptv.steps" m;
  let h = pss.Pss.period /. float_of_int m in
  let omega = 2.0 *. Float.pi *. f_offset in
  Domain_pool.with_pool domains @@ fun pool ->
  let solvers =
    Obs.span "lptv.factor_steps" @@ fun () ->
    let pat = Stamp.pattern circuit in
    let nnz = Csr.nnz pat in
    let cv = pss.Pss.c_mat.Stamp.c.Csr.v in
    let slot = pss.Pss.c_mat.Stamp.slot in
    (* M_k = C(1/h + jω) + G(t_k); ω·0 off C keeps the sign a zero C
       entry would give *)
    let zvals_at gcsr zvals =
      let gv = gcsr.Csr.v in
      for p = 0 to nnz - 1 do
        zvals.(p) <- Cx.mk gv.(p) (omega *. 0.0)
      done;
      for p = 0 to Array.length slot - 1 do
        let s = slot.(p) in
        zvals.(s) <- Cx.mk (gv.(s) +. (cv.(p) /. h)) (omega *. cv.(p))
      done
    in
    let stamp_into g_buf gcsr k =
      Stamp.eval circuit ~t:pss.Pss.times.(k) ~gmin:1e-12
        ~x:pss.Pss.states.(k) ~g:g_buf ~jac:(Some (Stamp.csr_sink gcsr)) ()
    in
    (* one symbolic plan, built serially on the k = 1 values, shared
       read-only by every lane *)
    let plan =
      let g_buf = Vec.create n in
      let gcsr = Csr.copy pat in
      let zvals = Array.make nnz Cx.zero in
      stamp_into g_buf gcsr 1;
      zvals_at gcsr zvals;
      Linsys.csplu_plan ~counter:"lptv.csplu.plans"
        ~ordering:(fun () -> Stamp.ordering circuit)
        pat zvals
    in
    (* the m factorizations are independent; each lane stamps into its
       own workspace (a shared stamp buffer would be a data race).  A
       lane exception (incl. an injected "lptv.factor" fault) drains the
       pool and re-raises here; the phase is a deterministic
       write-per-slot loop, so a bounded re-run recovers
       bit-identically *)
    let fs = Array.make m None in
    Retry.with_transients ~policy ~label:"lptv" (fun () ->
        Domain_pool.parallel_for_ws pool m ~label:"lptv.factor_steps"
          ~chunk:(Domain_pool.chunk_hint pool m)
          ?should_stop:(Budget.stop_opt budget)
          ~init:(fun () -> (Vec.create n, Csr.copy pat, Array.make nnz Cx.zero))
          (fun (g_buf, gcsr, zvals) i ->
            Faultsim.check_exn "lptv.factor";
            let k = i + 1 in
            stamp_into g_buf gcsr k;
            zvals_at gcsr zvals;
            Obs.count "lptv.fact.sparse" 1;
            fs.(i) <- Some (Csplu.factorize plan pat zvals)));
    Budget.check_opt budget;
    Array.map (function Some f -> f | None -> assert false) fs
  in
  (* matrix-free wrap: no Φ(ω), no dense factorization — build cost is
     the factor_steps phase alone, O(m·nnz) *)
  Obs.count "lptv.wrap.krylov" 1;
  let cmul = Csr.scale (1.0 /. h) pss.Pss.c_mat.Stamp.c in
  { pss; f_offset; n; m; cmul; solvers;
    wrap = { dense = None; lock = Mutex.create () } }

(* GMRES matrix-vector products for the wrap.  [src] is
   preserved; [dst] is one full forward (or backward) variational sweep
   subtracted from the identity. *)
let wrap_apply t ws src dst =
  Cvec.blit src dst;
  for k = 1 to t.m do
    a_apply_into ws ~solvers:t.solvers ~cmul:t.cmul ~k dst dst
  done;
  for i = 0 to t.n - 1 do
    dst.(i) <- Cx.( -: ) src.(i) dst.(i)
  done

let wrap_tapply t ws src dst =
  Cvec.blit src dst;
  for k = t.m downto 1 do
    a_transpose_apply_into ws ~solvers:t.solvers ~cmul:t.cmul ~k dst dst
  done;
  for i = 0 to t.n - 1 do
    dst.(i) <- Cx.( -: ) src.(i) dst.(i)
  done

(* Stagnation rung: form I - Φ(ω) densely after all, column by column
   through the same step factorizations, and factorize it. *)
let dense_wrap t =
  Obs.span "lptv.phi" @@ fun () ->
  Obs.count "lptv.phi.dense" 1;
  let ws = make_ws t.n in
  let v = Cvec.create t.n in
  let phi = Cmat.create t.n t.n in
  for j = 0 to t.n - 1 do
    Cvec.fill v Cx.zero;
    v.(j) <- Cx.one;
    for k = 1 to t.m do
      a_apply_into ws ~solvers:t.solvers ~cmul:t.cmul ~k v v
    done;
    for i = 0 to t.n - 1 do
      Cmat.set phi i j v.(i)
    done
  done;
  Clu.factorize (Cmat.sub (Cmat.identity t.n) phi)

let wrap_fallback_lu t =
  let st = t.wrap in
  Mutex.lock st.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock st.lock)
    (fun () ->
      match st.dense with
      | Some lu -> lu
      | None ->
        Retry.rung "lptv.gmres_fallback";
        Linsys.note_krylov_fallback ();
        let lu = dense_wrap t in
        st.dense <- Some lu;
        lu)

let gmres_restart = Gmres.default_restart

(* (I - Φ(ω))·x = rhs, fresh [x]; GMRES on the matrix-free wrap with
   the dense rung on stagnation (or an injected ["lptv.gmres"] fault) *)
let wrap_solve t ws rhs =
  match t.wrap.dense with
  | Some lu -> Clu.solve lu rhs
  | None ->
    let x = Cvec.create t.n in
    let converged =
      match Faultsim.fire "lptv.gmres" with
      | Some _ -> false
      | None ->
        let gws = Gmres.make_ws ~n:t.n ~restart:gmres_restart in
        let stats =
          Gmres.solve ~apply:(fun src dst -> wrap_apply t ws src dst) gws
            ~b:rhs ~x
        in
        stats.Gmres.converged
    in
    if converged then x else Clu.solve (wrap_fallback_lu t) rhs

(* (I - Φ(ω))ᵀ·dst = rhs for the adjoint; same ladder as [wrap_solve] *)
let wrap_solve_transpose_into t ws rhs dst =
  match t.wrap.dense with
  | Some lu -> Clu.solve_transpose_into lu ~scratch:ws.ct2 rhs dst
  | None ->
    let converged =
      match Faultsim.fire "lptv.gmres" with
      | Some _ -> false
      | None ->
        let gws = Gmres.make_ws ~n:t.n ~restart:gmres_restart in
        Cvec.fill dst Cx.zero;
        let stats =
          Gmres.solve ~apply:(fun src d -> wrap_tapply t ws src d) gws
            ~b:rhs ~x:dst
        in
        stats.Gmres.converged
    in
    if not converged then
      Clu.solve_transpose_into (wrap_fallback_lu t) ~scratch:ws.ct2 rhs dst

let pss t = t.pss
let steps t = t.m
let f_offset t = t.f_offset

type injection = int -> (int * float) list

let constant_injection rows = fun _k -> rows

let rhs_of t ~k (inj : injection) =
  let b = Cvec.create t.n in
  List.iter (fun (row, v) -> b.(row) <- Cx.( +: ) b.(row) (Cx.re v)) (inj k);
  b

let solve_source t inj =
  (* particular forcing accumulated over one period from p_0 = 0:
     q_k = A_{k-1} q_{k-1} + M_k⁻¹ b_k; then (I - Φ)·p_0 = q_m *)
  Obs.count "lptv.source_solves" 1;
  let ws = make_ws t.n in
  (* the per-step forced vectors M_k⁻¹ b_k are shared by the wrap pass
     and the final sweep — solve each only once *)
  let forced =
    Array.init t.m (fun i -> Csplu.solve t.solvers.(i) (rhs_of t ~k:(i + 1) inj))
  in
  let q = Cvec.create t.n in
  for k = 1 to t.m do
    a_apply_into ws ~solvers:t.solvers ~cmul:t.cmul ~k q q;
    Cvec.add_inplace q forced.(k - 1)
  done;
  let p0 = wrap_solve t ws q in
  let p = Array.make (t.m + 1) p0 in
  for k = 1 to t.m do
    (* p_k = A_{k-1} p_{k-1} + forced_k; the forced vector is dead after
       this step and doubles as p_k's storage *)
    let pk = forced.(k - 1) in
    a_apply_into ws ~solvers:t.solvers ~cmul:t.cmul ~k p.(k - 1) ws.ct2;
    Cvec.add_inplace pk ws.ct2;
    p.(k) <- pk
  done;
  p

let harmonic_of_response t p ~row ~harmonic =
  Obs.count "lptv.harmonics" 1;
  let s = ref Cx.zero in
  for k = 1 to t.m do
    let ang = -2.0 *. Float.pi *. float_of_int (harmonic * k) /. float_of_int t.m in
    s := Cx.( +: ) !s (Cx.( *: ) p.(k).(row) (Cx.exp_i ang))
  done;
  Cx.scale (1.0 /. float_of_int t.m) !s

type functional = Cvec.t array

(* Backward pass: given c_k (k = 1..m) output weights, find λ_k with
     λ_k = c_k + A_kᵀ λ_{k+1}   (k = 1..m-1, A_k uses solvers.(k))
     λ_m = c_m + A_0ᵀ λ_1       (cyclic, A_0 uses solvers.(0))
   then λ̃_k = M_k⁻ᵀ λ_k is ∂y/∂b_k.

   [c_add k v] adds the output weight c_k into [v] — sparse functionals
   stay allocation-free this way. *)
let adjoint_general t (c_add : int -> Cvec.t -> unit) : functional =
  Obs.count "lptv.adjoint_solves" 1;
  let ws = make_ws t.n in
  let lam = Array.init (t.m + 1) (fun _ -> Cvec.create t.n) in
  let backward () =
    for k = t.m - 1 downto 1 do
      (* A_k maps p_k -> p_{k+1}, built from solvers.(k) (i.e. M_{k+1}) *)
      a_transpose_apply_into ws ~solvers:t.solvers ~cmul:t.cmul ~k:(k + 1)
        lam.(k + 1) lam.(k);
      c_add k lam.(k)
    done
  in
  (* first pass with λ_m = 0 to get d_1 *)
  backward ();
  (* (I - Φᵀ) λ_m = c_m + A_0ᵀ d_1 *)
  let rhs = Cvec.create t.n in
  a_transpose_apply_into ws ~solvers:t.solvers ~cmul:t.cmul ~k:1 lam.(1) rhs;
  c_add t.m rhs;
  wrap_solve_transpose_into t ws rhs lam.(t.m);
  backward ();
  Array.init t.m (fun i -> Csplu.solve_transpose t.solvers.(i) lam.(i + 1))

let adjoint_harmonic t ~row ~harmonic =
  Obs.count "lptv.harmonics" 1;
  let weight = 1.0 /. float_of_int t.m in
  adjoint_general t (fun k v ->
      let ang =
        -2.0 *. Float.pi *. float_of_int (harmonic * k) /. float_of_int t.m
      in
      v.(row) <- Cx.( +: ) v.(row) (Cx.scale weight (Cx.exp_i ang)))

let adjoint_sample t ~row ~k:ksample =
  if ksample < 1 || ksample > t.m then invalid_arg "Lptv.adjoint_sample";
  adjoint_general t (fun k v ->
      if k = ksample then v.(row) <- Cx.( +: ) v.(row) Cx.one)

let apply (lam : functional) (inj : injection) =
  let s = ref Cx.zero in
  Array.iteri
    (fun i lam_k ->
      let k = i + 1 in
      List.iter
        (fun (row, v) -> s := Cx.( +: ) !s (Cx.scale v lam_k.(row)))
        (inj k))
    lam;
  !s
