(** Structured outcomes for analysis runs.

    [run] is the top-level safety net the CLI (and any embedding) wraps
    an analysis in: every failure mode the engines can produce — budget
    expiry, ladder exhaustion, a singular system, a transient step that
    bottomed out, an injected fault that survived its retries — comes
    back as a typed [failure] instead of an escaping exception, together
    with the elapsed wall time and how many sparse→dense degradations
    the run incurred (docs/robustness.md). *)

type failure =
  | Timed_out of Budget.info
  | Non_convergence of { analysis : string; detail : string }
      (** every rung of the analysis' fallback ladder failed *)
  | Singular_system of { row : int }
      (** structurally singular matrix at MNA row [row] *)
  | Step_failed of { t : float }
      (** transient step halving bottomed out at time [t] *)
  | Injected_fault of string
      (** a {!Faultsim} fault outlived its bounded retries *)
  | Other of string

type 'a outcome = {
  result : ('a, failure) result;
  elapsed_s : float;
  degradations : int;
      (** sparse→dense factorization fallbacks during this run
          ({!Linsys.degradation_count} delta) *)
  krylov_fallbacks : int;
      (** krylov→dense wrap fallbacks — GMRES stagnations — during this
          run ({!Linsys.krylov_fallback_count} delta) *)
}

val describe : failure -> string
(** One-line human-readable description (what the CLI prints). *)

val run : ?budget:Budget.t -> label:string -> (unit -> 'a) -> 'a outcome
(** Run [f] under the optional [budget] (checked once up front; the
    engines [f] calls must thread the same budget themselves for
    interior checks), mapping engine exceptions to [Error] failures.
    [label] names the analysis in [Non_convergence].  Exceptions that
    are not engine failures (e.g. [Invalid_argument]) still escape —
    programming errors should not be masked as analysis failures. *)
