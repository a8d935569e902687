(** Complex sparse LU — the {!Splu} elimination over complex values.

    Used by the AC/PNOISE paths where the per-frequency / per-timestep
    system is [C·(1/h + jω) + G(t_k)]: the pattern is fixed by the
    circuit, only values change, so one plan serves every frequency
    and every timestep.  The plan is a {!Splu.plan}, built by the same
    column map, reach DFS and pivot rule as a real plan; only the
    elimination arithmetic and the pivot magnitudes (|z|) are complex.
    On values with zero imaginary parts it is the real plan.

    A complex matrix is represented as a real {!Csr.t} carrying the
    pattern (its value array is ignored) plus a [Cx.t array] of values
    aligned position-for-position with the pattern's storage — writing
    values at positions from {!Csr.index} keeps the two in sync.

    Solves are re-entrant: caller-provided scratch, no internal
    mutation, safe against one factorization from many domains. *)

type t

exception Singular of int
(** The same exception as {!Splu.Singular}: pivot failure at an
    original unknown (column) index. *)

val plan :
  ?ordering:Symbolic.ordering -> ?sym:Symbolic.t -> ?pivot_tol:float ->
  Csr.t -> Cx.t array -> Splu.plan
(** [plan pat vals] analyzes the pattern [pat] with representative
    complex values [vals] (length [Csr.nnz pat]).  [ordering], [sym]
    and the default [pivot_tol] ([1e-13 · max|z_ij|]) are as in
    {!Splu.plan}. *)

val dim : t -> int

val factorize : ?pivot_tol:float -> Splu.plan -> Csr.t -> Cx.t array -> t
val refactorize : ?pivot_tol:float -> t -> Csr.t -> Cx.t array -> unit

val solve_into : t -> scratch:Cvec.t -> Cvec.t -> Cvec.t -> unit
(** [solve_into t ~scratch b x] solves [A·x = b]; [b], [x] and
    [scratch] must be three distinct arrays. *)

val solve : t -> Cvec.t -> Cvec.t

val solve_transpose_into : t -> scratch:Cvec.t -> Cvec.t -> Cvec.t -> unit
(** Solves [Aᵀ·x = b] (plain transpose, not conjugate — matching
    {!Clu.solve_transpose_into}); the three arrays must be distinct. *)

val solve_transpose : t -> Cvec.t -> Cvec.t
