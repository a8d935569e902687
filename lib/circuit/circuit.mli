(** An elaborated circuit: devices, node table, MNA dimensions, and the
    list of mismatch parameters the devices expose.

    The MNA unknown vector is laid out as
    [| v(node 1); ...; v(node N); i(branch 0); ...; i(branch B-1) |]. *)

type t

val make : devices:Device.t array -> node_names:string array ->
  num_branches:int -> t
(** Used by {!Builder}; [node_names.(k)] names node [k+1]. *)

val devices : t -> Device.t array
val num_nodes : t -> int
val num_branches : t -> int

val size : t -> int
(** Total number of MNA unknowns. *)

type structure_memo = {
  pattern : Csr.t option Atomic.t;
  ordering : Symbolic.t option Atomic.t;
}

val structure_memo : t -> structure_memo
(** Where {!Stamp.pattern} and {!Stamp.ordering} keep the circuit's MNA
    pattern and its fill-reducing ordering.  Copies made by
    {!apply_deltas} share the slots: they have the same topology. *)

val node_name : t -> int -> string
(** Name of a node id (≥ 1); node 0 is ["0"]. *)

val node : t -> string -> int
(** Node id for a name.  Raises [Not_found]. *)

val node_row : t -> string -> int
(** Row of a named node's voltage in the unknown vector. *)

val voltage : t -> Vec.t -> string -> float
(** Read a named node's voltage out of a solution vector. *)

val branch_row : t -> string -> int
(** Row of the branch current of a named device (e.g. a V source). *)

val device_index : t -> string -> int
(** Index of a named device in [devices].  Raises [Not_found]. *)

val row_name : t -> int -> string
(** Human-readable name of an MNA unknown — ["v(out)"] for a node
    voltage row, ["i(V1)"] for a branch current row.  Used to map a
    singular-matrix row index back to the circuit for diagnostics. *)

(** {2 Mismatch parameters} *)

type mismatch_kind = Delta_vt | Delta_beta | Delta_r | Delta_c | Delta_is

type mismatch_param = {
  param_index : int;     (** position in the circuit's parameter vector *)
  device_index : int;
  device_name : string;
  kind : mismatch_kind;
  sigma : float;
      (** std dev of the deviation: volts for [Delta_vt], relative
          otherwise *)
}

val mismatch_params : t -> mismatch_param array
(** Every random deviation the circuit's devices expose, in a stable
    order (device order; for MOSFETs ΔVT before Δβ). *)

val apply_deltas : t -> float array -> t
(** [apply_deltas c deltas] returns a copy of the circuit with each
    mismatch parameter shifted by the corresponding entry of [deltas]
    (indexed by [param_index]).  Used by the Monte-Carlo driver. *)

val fingerprint : t -> string
(** Canonical content hash of the elaborated circuit (32 hex chars).

    Devices are serialized with node {e names} (not ids) in name-sorted
    order, so the digest is invariant to device/node declaration order
    — and, upstream, to deck comments and whitespace, which never reach
    elaboration — while pinning every electrically meaningful quantity:
    topology, element values, source waveforms, model parameters and
    mismatch tolerances.  The content-addressed plan/result cache and
    the sweep journal key on this digest (docs/serving.md). *)

val kind_to_string : mismatch_kind -> string
val pp : Format.formatter -> t -> unit
