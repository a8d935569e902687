type structure_memo = {
  pattern : Csr.t option Atomic.t;
  ordering : Symbolic.t option Atomic.t;
}

type t = {
  devices : Device.t array;
  node_names : string array;
  num_branches : int;
  by_name : (string, int) Hashtbl.t; (* device name -> index *)
  node_ids : (string, int) Hashtbl.t; (* node name -> id *)
  structure : structure_memo;
      (* Stamp's memo; apply_deltas copies share it, since they share
         the topology *)
}

let make ~devices ~node_names ~num_branches =
  let by_name = Hashtbl.create 64 in
  Array.iteri
    (fun i d ->
      let n = Device.name d in
      if Hashtbl.mem by_name n then
        invalid_arg (Printf.sprintf "Circuit.make: duplicate device %s" n);
      Hashtbl.add by_name n i)
    devices;
  let node_ids = Hashtbl.create 64 in
  Hashtbl.add node_ids "0" 0;
  Hashtbl.add node_ids "gnd" 0;
  Array.iteri (fun k name -> Hashtbl.replace node_ids name (k + 1)) node_names;
  { devices; node_names; num_branches; by_name; node_ids;
    structure = { pattern = Atomic.make None; ordering = Atomic.make None } }

let devices t = t.devices
let structure_memo t = t.structure
let num_nodes t = Array.length t.node_names
let num_branches t = t.num_branches
let size t = num_nodes t + t.num_branches

let node_name t id = if id = 0 then "0" else t.node_names.(id - 1)
let node t name = Hashtbl.find t.node_ids name

let node_row t name =
  let id = node t name in
  if id = 0 then invalid_arg "Circuit.node_row: ground has no row";
  id - 1

let voltage t x name =
  let id = node t name in
  if id = 0 then 0.0 else x.(id - 1)

let device_index t name = Hashtbl.find t.by_name name

let branch_row t name =
  let d = t.devices.(device_index t name) in
  match Device.branch d with
  | Some b -> num_nodes t + b
  | None -> invalid_arg (Printf.sprintf "Circuit.branch_row: %s has no branch" name)

let row_name t row =
  let n = num_nodes t in
  if row < 0 || row >= size t then Printf.sprintf "row %d" row
  else if row < n then Printf.sprintf "v(%s)" t.node_names.(row)
  else begin
    let b = row - n in
    let owner = ref None in
    Array.iter
      (fun d ->
        if !owner = None && Device.branch d = Some b then
          owner := Some (Device.name d))
      t.devices;
    match !owner with
    | Some name -> Printf.sprintf "i(%s)" name
    | None -> Printf.sprintf "i(branch %d)" b
  end

type mismatch_kind = Delta_vt | Delta_beta | Delta_r | Delta_c | Delta_is

type mismatch_param = {
  param_index : int;
  device_index : int;
  device_name : string;
  kind : mismatch_kind;
  sigma : float;
}

let mismatch_params t =
  let acc = ref [] in
  let count = ref 0 in
  let push device_index device_name kind sigma =
    if sigma > 0.0 then begin
      acc := { param_index = !count; device_index; device_name; kind; sigma } :: !acc;
      incr count
    end
  in
  Array.iteri
    (fun i d ->
      match d with
      | Device.Mosfet { name; inst; _ } ->
        push i name Delta_vt (Mosfet.sigma_vt inst.model ~w:inst.w ~l:inst.l);
        push i name Delta_beta (Mosfet.sigma_beta inst.model ~w:inst.w ~l:inst.l)
      | Device.Resistor { name; r_tol; _ } -> push i name Delta_r r_tol
      | Device.Capacitor { name; c_tol; _ } -> push i name Delta_c c_tol
      | Device.Bjt { name; model; area; _ } ->
        push i name Delta_is (Bjt.sigma_is model ~area)
      | Device.Inductor _ | Device.Vsource _ | Device.Isource _
      | Device.Vcvs _ | Device.Vccs _ | Device.Cccs _ | Device.Ccvs _
      | Device.Diode _ -> ())
    t.devices;
  Array.of_list (List.rev !acc)

let apply_deltas t deltas =
  let params = mismatch_params t in
  let devices = Array.copy t.devices in
  Array.iter
    (fun p ->
      let delta = deltas.(p.param_index) in
      if delta <> 0.0 then begin
        let d = devices.(p.device_index) in
        let d' =
          match d, p.kind with
          | Device.Mosfet m, Delta_vt ->
            Device.Mosfet { m with inst = { m.inst with dvt = m.inst.dvt +. delta } }
          | Device.Mosfet m, Delta_beta ->
            Device.Mosfet
              { m with inst = { m.inst with dbeta = m.inst.dbeta +. delta } }
          | Device.Resistor r, Delta_r ->
            Device.Resistor { r with r = r.r *. (1.0 +. delta) }
          | Device.Capacitor c, Delta_c ->
            Device.Capacitor { c with c = c.c *. (1.0 +. delta) }
          | Device.Bjt q, Delta_is ->
            Device.Bjt { q with dis = q.dis +. delta }
          | _, (Delta_vt | Delta_beta | Delta_r | Delta_c | Delta_is) ->
            invalid_arg "Circuit.apply_deltas: parameter/device mismatch"
        in
        devices.(p.device_index) <- d'
      end)
    params;
  { t with devices; by_name = t.by_name }

(* ------------------------------------------------------------------ *)
(* content fingerprint (docs/serving.md)

   The canonical form references nodes by NAME and serializes devices
   in name-sorted order, so the digest is invariant to declaration
   order (and, upstream, to comment/whitespace noise that the parser
   already strips) while still pinning every electrically meaningful
   quantity: topology, values, model parameters and mismatch
   tolerances.  Branch-current references (CCCS/CCVS) canonicalize to
   the owning device's name, not the branch index, because indices
   depend on declaration order. *)

let fingerprint t =
  let g v = Printf.sprintf "%.17g" v in
  let node id = node_name t id in
  let branch_owner = Array.make (Stdlib.max t.num_branches 1) "?" in
  Array.iter
    (fun d ->
      match Device.branch d with
      | Some b -> branch_owner.(b) <- Device.name d
      | None -> ())
    t.devices;
  let wave = function
    | Wave.Dc v -> "dc(" ^ g v ^ ")"
    | Wave.Pulse p ->
      Printf.sprintf "pulse(%s %s %s %s %s %s %s)" (g p.Wave.v1) (g p.Wave.v2)
        (g p.Wave.delay) (g p.Wave.rise) (g p.Wave.fall) (g p.Wave.width)
        (g p.Wave.period)
    | Wave.Sin s ->
      Printf.sprintf "sin(%s %s %s %s)" (g s.Wave.offset) (g s.Wave.ampl)
        (g s.Wave.freq) (g s.Wave.phase_deg)
    | Wave.Pwl pts ->
      "pwl("
      ^ String.concat ","
          (Array.to_list (Array.map (fun (t, v) -> g t ^ ":" ^ g v) pts))
      ^ ")"
    | Wave.Pwl_periodic (period, pts) ->
      "pwlp(" ^ g period ^ ";"
      ^ String.concat ","
          (Array.to_list (Array.map (fun (t, v) -> g t ^ ":" ^ g v) pts))
      ^ ")"
  in
  let mosfet_model (m : Mosfet.model) =
    Printf.sprintf "%s %s %s %s %s %s %s %s %s %s %s %s"
      (match m.Mosfet.polarity with Mosfet.Nmos -> "nmos" | Mosfet.Pmos -> "pmos")
      (g m.Mosfet.vt0) (g m.Mosfet.kp) (g m.Mosfet.slope) (g m.Mosfet.lambda)
      (g m.Mosfet.phi_t) (g m.Mosfet.cox) (g m.Mosfet.cov) (g m.Mosfet.cj)
      (g m.Mosfet.avt) (g m.Mosfet.abeta) (g m.Mosfet.kf)
  in
  let bjt_model (m : Bjt.model) =
    Printf.sprintf "%s %s %s %s %s"
      (match m.Bjt.polarity with Bjt.Npn -> "npn" | Bjt.Pnp -> "pnp")
      (g m.Bjt.is_sat) (g m.Bjt.beta_f) (g m.Bjt.phi_t) (g m.Bjt.a_is)
  in
  let dev = function
    | Device.Resistor { name; p; n; r; r_tol } ->
      Printf.sprintf "R %s %s %s %s %s" name (node p) (node n) (g r) (g r_tol)
    | Device.Capacitor { name; p; n; c; c_tol } ->
      Printf.sprintf "C %s %s %s %s %s" name (node p) (node n) (g c) (g c_tol)
    | Device.Inductor { name; p; n; l; branch = _ } ->
      Printf.sprintf "L %s %s %s %s" name (node p) (node n) (g l)
    | Device.Vsource { name; p; n; wave = w; branch = _ } ->
      Printf.sprintf "V %s %s %s %s" name (node p) (node n) (wave w)
    | Device.Isource { name; p; n; wave = w } ->
      Printf.sprintf "I %s %s %s %s" name (node p) (node n) (wave w)
    | Device.Vcvs { name; p; n; cp; cn; gain; branch = _ } ->
      Printf.sprintf "E %s %s %s %s %s %s" name (node p) (node n) (node cp)
        (node cn) (g gain)
    | Device.Vccs { name; p; n; cp; cn; gm } ->
      Printf.sprintf "G %s %s %s %s %s %s" name (node p) (node n) (node cp)
        (node cn) (g gm)
    | Device.Cccs { name; p; n; ctrl_branch; gain } ->
      Printf.sprintf "F %s %s %s %s %s" name (node p) (node n)
        branch_owner.(ctrl_branch) (g gain)
    | Device.Ccvs { name; p; n; ctrl_branch; r; branch = _ } ->
      Printf.sprintf "H %s %s %s %s %s" name (node p) (node n)
        branch_owner.(ctrl_branch) (g r)
    | Device.Diode { name; p; n; is_sat; nf } ->
      Printf.sprintf "D %s %s %s %s %s" name (node p) (node n) (g is_sat) (g nf)
    | Device.Bjt { name; c; b; e; model; area; dis } ->
      Printf.sprintf "Q %s %s %s %s %s %s %s" name (node c) (node b) (node e)
        (bjt_model model) (g area) (g dis)
    | Device.Mosfet { name; d; g = gn; s; b; inst } ->
      Printf.sprintf "M %s %s %s %s %s %s %s %s %s %s" name (node d) (node gn)
        (node s) (node b) (g inst.Device.w) (g inst.Device.l)
        (g inst.Device.dvt) (g inst.Device.dbeta)
        (mosfet_model inst.Device.model)
  in
  let fp = Fingerprint.create "circuit" in
  Fingerprint.list fp Fingerprint.str
    (List.sort compare (Array.to_list (Array.map dev t.devices)));
  Fingerprint.list fp Fingerprint.str
    (List.sort compare (Array.to_list t.node_names));
  Fingerprint.digest fp

let kind_to_string = function
  | Delta_vt -> "dVT"
  | Delta_beta -> "dBeta"
  | Delta_r -> "dR"
  | Delta_c -> "dC"
  | Delta_is -> "dIs"

let pp ppf t =
  Format.fprintf ppf "@[<v>circuit: %d nodes, %d branches, %d devices@,"
    (num_nodes t) t.num_branches (Array.length t.devices);
  Array.iter (fun d -> Format.fprintf ppf "  %a@," Device.pp d) t.devices;
  Format.fprintf ppf "@]"
