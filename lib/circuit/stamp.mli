(** MNA assembly: residual, Jacobian, constant C matrix, mismatch
    injection vectors, and physical noise source enumeration.

    The circuit equations are [C·ẋ + g(x, t) = 0], where [g] collects
    resistive device currents (KCL rows) and source/branch constraint
    equations.  The C matrix is bias-independent by construction (all
    device capacitances are constant), so it is assembled once. *)

val stamp_c : Circuit.t -> add:(int -> int -> float -> unit) -> unit
(** Stamp the constant C matrix through a callback, so callers build
    dense or sparse storage from the same traversal. *)

(** Where Jacobian stamps go.  The dense sink writes into a [Mat.t]
    exactly as the historical code did (bit-identical); the sparse sink
    accumulates into a fixed {!Csr.t} pattern from {!pattern}. *)
type jac_sink = {
  js_clear : unit -> unit;
  js_add : int -> int -> float -> unit;
}

val dense_sink : Mat.t -> jac_sink
val csr_sink : Csr.t -> jac_sink

val pattern : Circuit.t -> Csr.t
(** The structural union of the Jacobian, the C matrix, and the full
    diagonal, with values zeroed.  Bias-independent: every stamp
    position fires at any [x], so the structure is built once per
    topology (memoized in {!Circuit.structure_memo}, shared by
    {!Circuit.apply_deltas} copies); each call returns a fresh value
    array over the shared structure arrays. *)

val ordering : Circuit.t -> Symbolic.t
(** The default {!Symbolic.analyze} of {!pattern}, memoized next to it
    on first use. *)

(** The constant C matrix in compact sparse form. *)
type cmat = {
  c : Csr.t;
      (** the exact nonzeros of C, each the sum of its {!stamp_c}
          contributions in stamp order *)
  slot : int array;
      (** [slot.(p)]: the position of [c]'s entry [p] in the value
          array of {!pattern} (and of every copy of it), so step
          matrices such as [C/h + G] add C without a search *)
}

val cmat : Circuit.t -> cmat
(** Assemble C through {!stamp_c} and {!Coo}; never dense.  C depends
    on device values, so it is built per circuit, not per topology. *)

val eval :
  Circuit.t -> t:float -> ?gmin:float -> ?src_scale:float -> x:Vec.t ->
  g:Vec.t -> jac:jac_sink option -> unit -> unit
(** Evaluate the residual [g(x, t)] (overwriting [g]) and, when [jac] is
    given, the Jacobian [∂g/∂x] (overwriting it).

    [gmin] adds a conductance to ground on every node row (both in the
    residual and the Jacobian), used for homotopy during DC solves.
    [src_scale] scales every independent source (source stepping). *)

val injection :
  Circuit.t -> Circuit.mismatch_param -> x:Vec.t -> ?xdot:Vec.t -> unit ->
  (int * float) list
(** [injection c p ~x ()] is the sparse column [∂g/∂δ_p] evaluated at
    the operating point [x] — the pseudo-noise injection vector of
    mismatch parameter [p] (paper Fig. 3–4).  [Delta_c] parameters need
    the state derivative [xdot] (their equivalent source is
    ΔC·d(v_p−v_n)/dt, Fig. 3); without it they inject nothing. *)

type noise_source = {
  ns_name : string;
  ns_rows : (int * float) list; (** sparse injection column *)
  ns_psd : float -> float;      (** one-sided current PSD, A²/Hz, at f *)
}

val noise_sources : Circuit.t -> x:Vec.t -> ?temp:float -> unit ->
  noise_source list
(** Physical device noise evaluated at the bias point [x]: resistor
    thermal 4kT/R and MOSFET channel thermal 4kTγ·gm (γ = 2/3).  Used by
    the classical .NOISE analysis and available alongside pseudo-noise
    in the LPTV analysis (paper §V footnote). *)
