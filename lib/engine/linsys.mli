(** The linear-solver layer of the MNA engines.

    Every engine bottoms out in "stamp a Jacobian-shaped matrix,
    factorize it, solve against it".  [Linsys] holds that system in the
    sparse [Csr]/[Splu] stack at every circuit size; dense [Lu] appears
    only as the degradation rung of {!factorize}.  See docs/solver.md. *)

type backend = Auto
(** Ignored.  Kept only because the benchmark's trace driver
    (varbench/trace/vtrace.ml) still names it when calling
    {!Spice_run.execute}; to be removed with the next benchmark change. *)

type krylov = Kauto
(** Ignored, like {!backend} and for the same single caller. *)

val krylov_fallback_count : unit -> int
(** Process-wide monotonic count of krylov→dense fallbacks (GMRES
    stagnation rungs taken), the krylov twin of
    {!degradation_count}. *)

val note_krylov_fallback : unit -> unit
(** Record one krylov→dense fallback (counted as
    ["linsys.krylov_fallback"]). *)

exception Singular_row of int
(** Factorization failure, carrying the original MNA unknown index so
    callers can name the floating node via {!Circuit.row_name}. *)

(** A stampable system matrix: values are rewritten through [sink]
    every Newton iteration / time step, the structure never changes. *)
type rsys = {
  pat : Csr.t;  (** Stamp.pattern structure; [v] holds the current values *)
  circuit : Circuit.t;  (** plans reuse its {!Stamp.ordering} *)
  mutable plan : Splu.plan option;  (** built lazily from first values *)
  sink : Stamp.jac_sink;
  mutable degraded : bool;
      (** at least one factorization of this system fell back from the
          sparse to the dense factorization — see {!factorize} *)
}

val make : Circuit.t -> rsys
(** Build the system storage for a circuit. *)

val degraded : rsys -> bool
(** This system's sticky sparse→dense degradation flag — result records
    ({!Pss.t} via its [sys], analysis outcomes) surface it so a
    degraded run is never silent. *)

val degradation_count : unit -> int
(** Process-wide monotonic count of sparse→dense fallbacks; sample it
    around a run to attribute degradations (what [Resilient.run]
    reports). *)

(** A factorization, solvable from any number of domains
    concurrently.  [Fdense] only ever comes from the degradation
    rung. *)
type rfact = Fdense of Lu.t | Fsparse of Splu.t

(** {2 Plan cache}

    A process-global {!Lru} of symbolic factorization plans, keyed on
    the exact pattern and the exact planning values ({!Plan_key}), so a
    hit returns precisely the plan a fresh analysis would have computed
    — bit-identical replays, observable only as speed and as fewer
    ["symbolic.plan"] counter increments.  Real and complex plans are
    both {!Splu.plan}s and share one lookup; they live in two caches of
    the same capacity so neither kind evicts the other.  A constructed
    plan takes its column order from [ordering] when given (called only
    on a miss) — the engines pass {!Stamp.ordering}, the one analysis
    per circuit topology — else analyzes the pattern itself.
    Hits/misses/evictions are the ["cache.plan.*"] counters
    (docs/serving.md). *)

val splu_plan :
  ?counter:string -> ?ordering:(unit -> Symbolic.t) -> Csr.t -> Splu.plan
(** Plan (or fetch a cached plan for) a real pattern on its current
    values.  [counter] (default ["linsys.splu.plans"]) is bumped only
    when a plan is actually constructed. *)

val csplu_plan :
  ?counter:string -> ?ordering:(unit -> Symbolic.t) -> Csr.t ->
  Cx.t array -> Splu.plan
(** The complex twin, for the AC/LPTV [Csplu] planning sites; no
    counter unless [counter] is given. *)

val set_plan_cache_capacity : int -> unit
(** Resize both plan caches (default 64 entries each); 0 disables
    them. *)

val factorize : ?allow_degradation:bool -> rsys -> rfact
(** Factorize the current values.  Plans on first call; if a replay
    hits a dead pivot (values drifted far from the planning point) it
    re-plans once; if the re-planned factorization is still singular
    and [allow_degradation] (default true), the same values are
    re-factorized densely — counted as ["linsys.degraded_to_dense"]
    (and ["linsys.fact.dense"]) and latched in {!degraded} — before
    giving up.  Raises {!Singular_row} when nothing worked.  The
    ["linsys.splu"] {!Faultsim} site can force the sparse path to fail;
    armed at every visit it turns every factorization into the dense
    oracle on the same values. *)

val solve : rfact -> Vec.t -> Vec.t

val solve_into : rfact -> scratch:Vec.t -> Vec.t -> Vec.t -> unit
(** [solve_into f ~scratch b x] solves [A·x = b] without allocating;
    [b], [x] and [scratch] must be three distinct arrays of the
    system's size. *)

val solve_transpose : rfact -> Vec.t -> Vec.t
