(** Fill-reducing orderings for sparse factorization.

    The ordering is computed once per circuit from the (topology-only)
    MNA pattern and reused for every numeric refactorization.  We use
    reverse Cuthill–McKee on the symmetrized pattern |A| + |Aᵀ|: MNA
    matrices are structurally near-symmetric, and RCM's banded profiles
    keep Gilbert–Peierls fill low without the bookkeeping of a true
    minimum-degree code. *)

type ordering = Natural | Rcm

type t = private {
  n : int;
  q : int array;
      (** column order: position [k] of the permuted matrix holds
          original column [q.(k)] *)
}

val analyze : ?ordering:ordering -> Csr.t -> t
(** Counted as ["symbolic.plan"] — every {!Csplu.plan}, and every
    {!Splu.plan} not handed a [sym], passes through here once, so the
    counter measures symbolic analyses actually performed (a warm plan
    cache, or a {!Splu.plan} reusing an earlier analysis, shows fewer
    increments).

    [analyze pat] computes an ordering for the square pattern [pat]
    (default [Rcm]).  Raises [Invalid_argument] on non-square input. *)

val identity : int -> t
(** The natural ordering of size [n]. *)
