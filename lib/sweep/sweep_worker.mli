(** One sweep point, start to finish — the code a supervised worker
    process (hidden [varsim worker] mode) and a domain-mode lane share.

    [run_point] builds the target (deck reload or built-in cell with
    the point's parameter overrides), runs the spec's analysis under a
    {!Resilient} net with an optional per-point budget, and returns a
    typed result; it never raises on an analysis failure.  [main] is
    the worker-process entry: it re-expands the grid from the spec
    file, cross-checks the content hash the supervisor passed (so a
    spec edited mid-run fails loudly instead of computing the wrong
    point), honors the ["sweep.worker.hang"] fault site, and prints the
    result as one JSON line on stdout — the whole parent/child
    protocol (docs/robustness.md, "Sweeps and supervision"). *)

type result = {
  outcome : [ `Ok | `Degraded | `Timed_out | `Failed of string ];
  metric : string;
  value : float option;
  degraded : int;  (** sparse→dense + krylov fallbacks inside the point *)
  elapsed_s : float;
}

val run_point :
  ?budget_s:float -> Sweep_spec.t -> Sweep_spec.point -> result
(** Run one point in-process.  [`Degraded] is a completed reading that
    needed sparse→dense or krylov fallbacks; [`Failed] carries
    {!Resilient.describe} of the typed failure. *)

val result_to_entry :
  hash:string -> id:int -> attempts:int -> result -> Sweep_journal.entry
(** The journal/protocol encoding of a result.  [`Failed msg] becomes
    outcome ["failed:<msg>"]. *)

val main :
  ?crash:bool -> ?telemetry:bool -> spec_path:string -> index:int ->
  hash:string option -> budget_s:float option -> unit -> int
(** Worker-process body; returns the exit code (0 when a result line
    was produced — the supervisor trusts the JSON, not the code — and
    2 on protocol errors: unreadable spec, index out of range, hash
    mismatch).  [crash] (the supervisor's delivery of an armed
    ["sweep.worker.crash"] fault) SIGKILLs the process before it
    touches the point, so the injected death is deterministic.
    [telemetry] (the supervisor's relay of its own {!Obs.enabled}
    state) enables {!Obs} around the point and prints one
    {!Obs_wire.export_line} {e before} the result line, so the
    supervisor can merge the worker's spans, counters and histograms
    into the fleet snapshot. *)
