type input =
  | Vsource of string
  | Isource of string
  | Injection of (int * float) list

type t = {
  circuit : Circuit.t;
  x_op : Vec.t;
  pat : Csr.t; (* pattern; v holds the stamped G values *)
  c_mat : Stamp.cmat;
  mutable plan : Splu.plan option;
}

let prepare ?x_op circuit =
  let x_op = match x_op with Some x -> x | None -> Dc.solve circuit in
  let g = Vec.create (Circuit.size circuit) in
  let pat = Stamp.pattern circuit in
  Stamp.eval circuit ~t:0.0 ~x:x_op ~g ~jac:(Some (Stamp.csr_sink pat)) ();
  { circuit; x_op; pat; c_mat = Stamp.cmat circuit; plan = None }

let operating_point t = t.x_op

(* build the aligned complex values of G + jωC and factorize, planning
   lazily on the first frequency and re-planning once if the recorded
   pivot order goes stale at a very different ω *)
let factorize t ~freq =
  let omega = 2.0 *. Float.pi *. freq in
  let gv = t.pat.Csr.v in
  (* ω·0 off C keeps the sign a zero C entry would give *)
  let zvals = Array.map (fun g -> Cx.mk g (omega *. 0.0)) gv in
  let cv = t.c_mat.Stamp.c.Csr.v in
  Array.iteri
    (fun p s -> zvals.(s) <- Cx.mk gv.(s) (omega *. cv.(p)))
    t.c_mat.Stamp.slot;
  let replan () =
    let p =
      Linsys.csplu_plan
        ~ordering:(fun () -> Stamp.ordering t.circuit)
        t.pat zvals
    in
    t.plan <- Some p;
    p
  in
  let plan = match t.plan with Some p -> p | None -> replan () in
  match Csplu.factorize plan t.pat zvals with
  | f -> f
  | exception Csplu.Singular _ -> Csplu.factorize (replan ()) t.pat zvals

let rhs_of_input t input =
  let n = Circuit.size t.circuit in
  let rhs = Cvec.create n in
  (match input with
   | Vsource name ->
     let br = Circuit.branch_row t.circuit name in
     rhs.(br) <- Cx.one
   | Isource name -> begin
     match (Circuit.devices t.circuit).(Circuit.device_index t.circuit name) with
     | Device.Isource { p; n = nn; _ } ->
       if p > 0 then rhs.(p - 1) <- Cx.re (-1.0);
       if nn > 0 then rhs.(nn - 1) <- Cx.one
     | _ -> invalid_arg "Ac: not a current source"
     end
   | Injection rows ->
     List.iter (fun (row, v) -> rhs.(row) <- Cx.( +: ) rhs.(row) (Cx.re v)) rows);
  rhs

let solve t ~freq ~input = Csplu.solve (factorize t ~freq) (rhs_of_input t input)

let transfer t ~freq ~input ~output =
  let y = solve t ~freq ~input in
  let row = Circuit.node_row t.circuit output in
  y.(row)

let output_impedance t ~freq ~node =
  let row = Circuit.node_row t.circuit node in
  let y = solve t ~freq ~input:(Injection [ (row, 1.0) ]) in
  y.(row)

let adjoint t ~freq ~output =
  let n = Circuit.size t.circuit in
  let e = Cvec.create n in
  e.(Circuit.node_row t.circuit output) <- Cx.one;
  Csplu.solve_transpose (factorize t ~freq) e
