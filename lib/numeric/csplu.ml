(* Complex Gilbert–Peierls sparse LU: Splu's plan and plan
   construction, with complex arithmetic.  L/U values live in split
   re/im float arrays so the hot loops run on unboxed floats (the same
   trick Clu uses on its accumulators). *)

type t = {
  plan : Splu.plan;
  uxr : float array;
  uxi : float array;
  lxr : float array;
  lxi : float array;
  dxr : float array;
  dxi : float array;
}

exception Singular = Splu.Singular

let dim t = t.plan.Splu.n

let default_tol vals =
  let scale = Array.fold_left (fun a z -> Float.max a (Cx.abs z)) 0.0 vals in
  1e-13 *. Float.max scale 1e-300

let plan ?ordering ?sym ?pivot_tol (csr : Csr.t) (vals : Cx.t array) =
  if Array.length vals <> Csr.nnz csr then
    invalid_arg "Csplu.plan: values/pattern length mismatch";
  let b = Splu.start ?ordering ?sym ~planes:2 csr in
  let pl = b.Splu.p in
  let tol =
    match pivot_tol with Some t -> t | None -> default_tol vals
  in
  let xr = Array.make (Stdlib.max pl.n 1) 0.0 in
  let xi = Array.make (Stdlib.max pl.n 1) 0.0 in
  let reach = b.Splu.reach in
  for j = 0 to pl.n - 1 do
    Splu.reach b j;
    for p = pl.cp.(j) to pl.cp.(j + 1) - 1 do
      let z = vals.(pl.cpos.(p)) and r = pl.cri.(p) in
      xr.(r) <- z.Cx.re;
      xi.(r) <- z.Cx.im
    done;
    let li = b.Splu.lrows in
    let lxr = b.Splu.lvals.(0) and lxi = b.Splu.lvals.(1) in
    for ti = b.Splu.ntopo - 1 downto 0 do
      let k = b.Splu.topo.(ti) in
      Splu.push_u b k;
      let r0 = pl.prow.(k) in
      let kr = xr.(r0) and ki = xi.(r0) in
      if kr <> 0.0 || ki <> 0.0 then
        for p = pl.lp.(k) to pl.lp.(k + 1) - 1 do
          let r = li.(p) in
          let lr = lxr.(p) and l_i = lxi.(p) in
          xr.(r) <- xr.(r) -. ((lr *. kr) -. (l_i *. ki));
          xi.(r) <- xi.(r) -. ((lr *. ki) +. (l_i *. kr))
        done
    done;
    for ri = 0 to b.Splu.nreach - 1 do
      let r = reach.(ri) in
      b.Splu.mag.(r) <- Cx.abs (Cx.mk xr.(r) xi.(r))
    done;
    let pr = Splu.choose_pivot b j ~tol in
    let pv = Cx.mk xr.(pr) xi.(pr) in
    for ri = 0 to b.Splu.nreach - 1 do
      let r = reach.(ri) in
      if pl.pinv.(r) < 0 then begin
        let z = Cx.( /: ) (Cx.mk xr.(r) xi.(r)) pv in
        let s = Splu.push_l b r in
        b.Splu.lvals.(0).(s) <- z.Cx.re;
        b.Splu.lvals.(1).(s) <- z.Cx.im
      end
    done;
    for ri = 0 to b.Splu.nreach - 1 do
      let r = reach.(ri) in
      xr.(r) <- 0.0;
      xi.(r) <- 0.0
    done
  done;
  Splu.finish b

let refactorize ?pivot_tol t (csr : Csr.t) (vals : Cx.t array) =
  let p = t.plan in
  if Csr.rows csr <> p.n || Csr.cols csr <> p.n then
    invalid_arg "Csplu.refactorize: dimension mismatch";
  if Array.length vals <> Csr.nnz csr then
    invalid_arg "Csplu.refactorize: values/pattern length mismatch";
  let tol =
    match pivot_tol with Some tl -> tl | None -> default_tol vals
  in
  let xr = Array.make (Stdlib.max p.n 1) 0.0 in
  let xi = Array.make (Stdlib.max p.n 1) 0.0 in
  for j = 0 to p.n - 1 do
    for pp = p.cp.(j) to p.cp.(j + 1) - 1 do
      let z = vals.(p.cpos.(pp)) in
      xr.(p.cri.(pp)) <- z.Cx.re;
      xi.(p.cri.(pp)) <- z.Cx.im
    done;
    for pu = p.up.(j) to p.up.(j + 1) - 1 do
      let k = Array.unsafe_get p.ui pu in
      let r0 = Array.unsafe_get p.prow k in
      let kr = Array.unsafe_get xr r0 and ki = Array.unsafe_get xi r0 in
      Array.unsafe_set t.uxr pu kr;
      Array.unsafe_set t.uxi pu ki;
      if kr <> 0.0 || ki <> 0.0 then
        for pl = p.lp.(k) to p.lp.(k + 1) - 1 do
          let r = Array.unsafe_get p.li pl in
          let lr = Array.unsafe_get t.lxr pl
          and l_i = Array.unsafe_get t.lxi pl in
          Array.unsafe_set xr r
            (Array.unsafe_get xr r -. ((lr *. kr) -. (l_i *. ki)));
          Array.unsafe_set xi r
            (Array.unsafe_get xi r -. ((lr *. ki) +. (l_i *. kr)))
        done
    done;
    let pr = p.prow.(j) in
    let pv = Cx.mk xr.(pr) xi.(pr) in
    if Cx.abs pv < tol then raise (Singular p.q.(j));
    t.dxr.(j) <- pv.Cx.re;
    t.dxi.(j) <- pv.Cx.im;
    xr.(pr) <- 0.0;
    xi.(pr) <- 0.0;
    for pl = p.lp.(j) to p.lp.(j + 1) - 1 do
      let r = p.li.(pl) in
      let z = Cx.( /: ) (Cx.mk xr.(r) xi.(r)) pv in
      t.lxr.(pl) <- z.Cx.re;
      t.lxi.(pl) <- z.Cx.im;
      xr.(r) <- 0.0;
      xi.(r) <- 0.0
    done;
    for pu = p.up.(j) to p.up.(j + 1) - 1 do
      let r = p.prow.(p.ui.(pu)) in
      xr.(r) <- 0.0;
      xi.(r) <- 0.0
    done
  done

let factorize ?pivot_tol (plan : Splu.plan) csr vals =
  let nl = Stdlib.max (Array.length plan.li) 1 in
  let nu = Stdlib.max (Array.length plan.ui) 1 in
  let nd = Stdlib.max plan.n 1 in
  let t =
    {
      plan;
      uxr = Array.make nu 0.0;
      uxi = Array.make nu 0.0;
      lxr = Array.make nl 0.0;
      lxi = Array.make nl 0.0;
      dxr = Array.make nd 0.0;
      dxi = Array.make nd 0.0;
    }
  in
  refactorize ?pivot_tol t csr vals;
  t

let solve_into t ~scratch b x =
  let p = t.plan in
  let n = p.n in
  if Array.length b <> n || Array.length x <> n || Array.length scratch <> n
  then invalid_arg "Csplu.solve_into: dimension mismatch";
  if x == b || x == scratch || scratch == b then
    invalid_arg "Csplu.solve_into: arrays must be distinct";
  let z = scratch in
  for k = 0 to n - 1 do
    z.(k) <- b.(p.prow.(k))
  done;
  for k = 0 to n - 1 do
    let zk = Array.unsafe_get z k in
    let kr = zk.Cx.re and ki = zk.Cx.im in
    if kr <> 0.0 || ki <> 0.0 then
      for pl = p.lp.(k) to p.lp.(k + 1) - 1 do
        let pos = Array.unsafe_get p.pinv (Array.unsafe_get p.li pl) in
        let lr = Array.unsafe_get t.lxr pl
        and l_i = Array.unsafe_get t.lxi pl in
        let zp = Array.unsafe_get z pos in
        Array.unsafe_set z pos
          (Cx.mk
             (zp.Cx.re -. ((lr *. kr) -. (l_i *. ki)))
             (zp.Cx.im -. ((lr *. ki) +. (l_i *. kr))))
      done
  done;
  for j = n - 1 downto 0 do
    let wj =
      Cx.( /: ) (Array.unsafe_get z j) (Cx.mk t.dxr.(j) t.dxi.(j))
    in
    x.(p.q.(j)) <- wj;
    let wr = wj.Cx.re and wi = wj.Cx.im in
    if wr <> 0.0 || wi <> 0.0 then
      for pu = p.up.(j) to p.up.(j + 1) - 1 do
        let k = Array.unsafe_get p.ui pu in
        let ur = Array.unsafe_get t.uxr pu
        and u_i = Array.unsafe_get t.uxi pu in
        let zk = Array.unsafe_get z k in
        Array.unsafe_set z k
          (Cx.mk
             (zk.Cx.re -. ((ur *. wr) -. (u_i *. wi)))
             (zk.Cx.im -. ((ur *. wi) +. (u_i *. wr))))
      done
  done

let solve t b =
  let n = t.plan.Splu.n in
  let x = Array.make n Cx.zero in
  solve_into t ~scratch:(Array.make n Cx.zero) b x;
  x

let solve_transpose_into t ~scratch b x =
  let p = t.plan in
  let n = p.n in
  if Array.length b <> n || Array.length x <> n || Array.length scratch <> n
  then invalid_arg "Csplu.solve_transpose_into: dimension mismatch";
  if x == b || x == scratch || scratch == b then
    invalid_arg "Csplu.solve_transpose_into: arrays must be distinct";
  let w = scratch in
  for j = 0 to n - 1 do
    let bj = b.(p.q.(j)) in
    let sr = ref bj.Cx.re and si = ref bj.Cx.im in
    for pu = p.up.(j) to p.up.(j + 1) - 1 do
      let wk = Array.unsafe_get w (Array.unsafe_get p.ui pu) in
      let ur = Array.unsafe_get t.uxr pu
      and u_i = Array.unsafe_get t.uxi pu in
      sr := !sr -. ((ur *. wk.Cx.re) -. (u_i *. wk.Cx.im));
      si := !si -. ((ur *. wk.Cx.im) +. (u_i *. wk.Cx.re))
    done;
    w.(j) <- Cx.( /: ) (Cx.mk !sr !si) (Cx.mk t.dxr.(j) t.dxi.(j))
  done;
  for k = n - 1 downto 0 do
    let wk = w.(k) in
    let sr = ref wk.Cx.re and si = ref wk.Cx.im in
    for pl = p.lp.(k) to p.lp.(k + 1) - 1 do
      let wv =
        Array.unsafe_get w
          (Array.unsafe_get p.pinv (Array.unsafe_get p.li pl))
      in
      let lr = Array.unsafe_get t.lxr pl
      and l_i = Array.unsafe_get t.lxi pl in
      sr := !sr -. ((lr *. wv.Cx.re) -. (l_i *. wv.Cx.im));
      si := !si -. ((lr *. wv.Cx.im) +. (l_i *. wv.Cx.re))
    done;
    let s = Cx.mk !sr !si in
    w.(k) <- s;
    x.(p.prow.(k)) <- s
  done

let solve_transpose t b =
  let n = t.plan.Splu.n in
  let x = Array.make n Cx.zero in
  solve_transpose_into t ~scratch:(Array.make n Cx.zero) b x;
  x
