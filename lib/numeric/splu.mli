(** Sparse LU with one-time symbolic analysis and in-place numeric
    refactorization (the KLU idea: plan once, replay many).

    {!plan} runs Gilbert–Peierls left-looking elimination with threshold
    partial pivoting on a representative matrix, recording the column
    order, the pivot order, and the exact L/U fill pattern.
    {!factorize}/{!refactorize} then replay that elimination against new
    values in the same pattern in O(nnz(L+U) · average column depth)
    without any searching — this is what makes per-timestep
    refactorization cheap in transient, PSS and LPTV loops.

    MNA matrices have structurally zero diagonals on voltage-source
    branch rows, so a no-pivot LU is unsafe; the plan's partial
    pivoting (with a mild diagonal preference for pattern stability)
    handles this, and the replay reuses the recorded pivot sequence.

    A [plan] and a [t] are immutable during solves: {!solve_into} and
    {!solve_transpose_into} take caller-provided scratch and touch no
    internal state, so one factorization can be solved against from
    many domains concurrently.

    {!Csplu} runs the complex values of the same matrices through the
    same [plan] type and the same plan construction ({!start}, {!reach},
    {!choose_pivot}, {!finish}); only the arithmetic differs. *)

(** The symbolic and pivoting record of one elimination, read by the
    real and the complex numeric kernels alike. *)
type plan = private {
  n : int;
  q : int array;  (** column order: permuted column j is original q.(j) *)
  pinv : int array;  (** original row -> pivot position *)
  prow : int array;  (** pivot position -> original row *)
  up : int array;  (** n+1 column pointers into [ui] *)
  ui : int array;  (** U entries: pivot positions k < j, elimination order *)
  lp : int array;  (** n+1 column pointers into [li] *)
  li : int array;  (** L entries: original row indices *)
  cp : int array;  (** n+1 pointers into [cri]/[cpos], per permuted column *)
  cri : int array;  (** original row of each entry of column q.(j) *)
  cpos : int array;  (** position of that entry in the Csr value array *)
}

type t

exception Singular of int
(** [Singular j] — elimination found no acceptable pivot for original
    unknown (column) [j].  Unlike dense {!Lu.Singular}, the index is in
    original matrix coordinates so it can be mapped straight back to a
    circuit node or branch. *)

val plan :
  ?ordering:Symbolic.ordering -> ?sym:Symbolic.t -> ?pivot_tol:float ->
  Csr.t -> plan
(** Symbolic + pivoting analysis using the matrix's current values.
    Default ordering is {!Symbolic.Rcm}; [sym], a symbolic analysis of
    this pattern computed earlier, replaces the analysis ([ordering] is
    then ignored).  Default [pivot_tol] matches {!Lu.factorize}
    ([1e-13 · max|a_ij|]). *)

val plan_dim : plan -> int
val dim : t -> int
val nnz_lu : t -> int
(** Stored entries in L + U (fill included), for diagnostics. *)

val factorize : ?pivot_tol:float -> plan -> Csr.t -> t
(** Numeric factorization of a matrix with the plan's pattern.  Raises
    [Singular j] when a replayed pivot falls below tolerance — callers
    typically re-{!plan} once and retry, since a big value change can
    invalidate the recorded pivot order. *)

val refactorize : ?pivot_tol:float -> t -> Csr.t -> unit
(** Like {!factorize} but reuses [t]'s storage. *)

val solve_into : t -> scratch:Vec.t -> Vec.t -> Vec.t -> unit
(** [solve_into t ~scratch b x] solves [A·x = b].  [b], [x] and
    [scratch] must be three distinct arrays of size [dim t]. *)

val solve : t -> Vec.t -> Vec.t

val solve_transpose_into : t -> scratch:Vec.t -> Vec.t -> Vec.t -> unit
(** [solve_transpose_into t ~scratch b x] solves [Aᵀ·x = b]; the three
    arrays must be distinct. *)

val solve_transpose : t -> Vec.t -> Vec.t

(** {2 Plan construction}

    The value-independent half of {!plan}, shared with {!Csplu.plan}.
    A kernel calls {!start}, then for each permuted column [j]:
    {!reach}; scatters column [q.(j)] into its dense work vector (rows
    [p.cri], values at [p.cpos]); eliminates over [topo.(ntopo-1)] down to
    [topo.(0)], calling {!push_u} on each and reading L's plan-time
    values from [lvals]; writes |x_r| into [mag] for every reached
    row; calls {!choose_pivot}; and {!push_l}s every reached row still
    unpivoted with its L value.  {!finish} yields the plan. *)

type build = private {
  p : plan;
      (** [n], [q] and the column map ([cp], [cri], [cpos]); [pinv],
          [prow], [lp] and [up] filled in place; [li]/[ui] empty until
          {!finish} *)
  mutable lrows : int array;  (** L pattern so far: original rows *)
  mutable lvals : float array array;
      (** plan-time L values, one plane per real component, aligned
          with [lrows] (reallocated as L grows) *)
  mutable ln : int;
  mutable ucols : int array;  (** U pattern so far: pivot positions *)
  mutable un : int;
  mark : int array;
  dstack : int array;
  cstack : int array;
  topo : int array;  (** pivoted columns reached, in postorder *)
  reach : int array;  (** every row reached, in postorder *)
  mag : float array;  (** |x_r| of the reached rows, filled by the kernel *)
  mutable ntopo : int;
  mutable nreach : int;
}

val start :
  ?ordering:Symbolic.ordering -> ?sym:Symbolic.t -> planes:int -> Csr.t ->
  build
(** Column map and empty L/U patterns for a pattern, with [planes]
    float planes of L values (1 real, 2 complex). *)

val reach : build -> int -> unit
(** Open column [j]: its L/U pointers and the DFS reach of its entries
    through the finished L columns ([reach], [topo]). *)

val push_u : build -> int -> unit
(** Append pivot position [k] to U(:,j). *)

val push_l : build -> int -> int
(** Append original row [r] to L(:,j); the result is its slot in
    [lrows] and in each [lvals] plane. *)

val choose_pivot : build -> int -> tol:float -> int
(** Threshold partial pivoting with diagonal preference over column
    [j]'s unpivoted reached rows, on [mag]; records and returns the
    pivot row.  Raises {!Singular} when every candidate is below
    [tol]. *)

val finish : build -> plan
