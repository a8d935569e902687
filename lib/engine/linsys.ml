(* Ignored: every system is sparse and every periodic wrap matrix-free.
   The constructors exist only because varbench/trace/vtrace.ml names
   them. *)
type backend = Auto
type krylov = Kauto

(* process-wide count of krylov→dense fallbacks (GMRES stagnation),
   mirroring [degradation_total] so outcome records can surface both *)
let krylov_fallback_total = Atomic.make 0
let krylov_fallback_count () = Atomic.get krylov_fallback_total

let note_krylov_fallback () =
  Obs.count "linsys.krylov_fallback" 1;
  ignore (Atomic.fetch_and_add krylov_fallback_total 1 : int)

exception Singular_row of int

type rsys = {
  pat : Csr.t;
  circuit : Circuit.t;
  mutable plan : Splu.plan option;
  sink : Stamp.jac_sink;
  mutable degraded : bool;
      (* a sparse factorization persistently failed and the values were
         re-factorized densely at least once — surfaced in result
         records so the degradation is never silent *)
}

(* process-wide count of sparse→dense fallbacks, so outcome records can
   report degradations that happened anywhere below them *)
let degradation_total = Atomic.make 0
let degradation_count () = Atomic.get degradation_total
let degraded sys = sys.degraded

let make circuit =
  Obs.count "linsys.sys.sparse" 1;
  let pat = Stamp.pattern circuit in
  { pat; circuit; plan = None; sink = Stamp.csr_sink pat; degraded = false }

type rfact = Fdense of Lu.t | Fsparse of Splu.t

(* ------------------------------------------------------------------ *)
(* process-global plan cache (docs/serving.md)

   Keyed on the exact pattern AND the exact planning values (raw
   IEEE-754 bits), so a hit returns precisely the plan a fresh
   Splu.plan/Csplu.plan call would have computed: replayed pivots are
   identical, results are bit-identical, and the cache is observable
   only as fewer "symbolic.plan" increments.  Shared across analyses in
   one process — this is what lets a domain-isolated sweep (or the
   serve daemon) plan a shared circuit once instead of once per
   point. *)

let plan_cache : Splu.plan Lru.t = Lru.create ~capacity:64 "plan"
let cplan_cache : Splu.plan Lru.t = Lru.create ~capacity:64 "plan"

let set_plan_cache_capacity n =
  Lru.set_capacity plan_cache n;
  Lru.set_capacity cplan_cache n

(* a plan constructed on a miss takes its ordering from [ordering]
   (called only then), else analyzes the pattern itself *)
let cached_plan cache key ?counter ?ordering pat build =
  match Lru.find cache key with
  | Some p when Splu.plan_dim p = Csr.rows pat -> p
  | Some _ | None ->
    let p = build (Option.map (fun f -> f ()) ordering) in
    Option.iter (fun c -> Obs.count c 1) counter;
    Lru.put cache key p;
    p

let splu_plan ?(counter = "linsys.splu.plans") ?ordering pat =
  cached_plan plan_cache
    (Plan_key.reals ~tag:"splu" pat pat.Csr.v)
    ~counter ?ordering pat
    (fun sym -> Splu.plan ?sym pat)

let csplu_plan ?counter ?ordering pat zvals =
  cached_plan cplan_cache
    (Plan_key.complexes ~tag:"csplu" pat zvals)
    ?counter ?ordering pat
    (fun sym -> Csplu.plan ?sym pat zvals)

(* the current sparse values as a dense matrix — the last resort when
   sparse pivoting dies on values the dense code can still eliminate *)
let dense_of_csr pat =
  let n = Csr.rows pat in
  let m = Mat.create n n in
  let rp = pat.Csr.rp and ci = pat.Csr.ci and v = pat.Csr.v in
  for i = 0 to n - 1 do
    for p = rp.(i) to rp.(i + 1) - 1 do
      Mat.add_to m i ci.(p) v.(p)
    done
  done;
  m

let factorize ?(allow_degradation = true) sys =
  let done_ f =
    (* replays vs. plans tells whether the KLU-style plan reuse is
       actually paying off; fill-in is a gauge because it is a property
       of the current plan, not an accumulating total *)
    if Obs.enabled () then begin
      Obs.count "linsys.fact.sparse" 1;
      Obs.gauge "linsys.splu.nnz_lu" (float_of_int (Splu.nnz_lu f))
    end;
    Fsparse f
  in
  (* last rung of the factorization ladder: the sparse path failed even
     after a re-plan, so re-factorize the same values densely.  Dense
     partial pivoting eliminates anything short of a structural
     singularity, at O(n³) cost — recorded, never silent.  Dense
     pivoting never permutes columns, so a failing elimination step is
     the original unknown index. *)
  let degrade k =
    if not allow_degradation then raise (Singular_row k)
    else begin
      Obs.count "linsys.degraded_to_dense" 1;
      ignore (Atomic.fetch_and_add degradation_total 1 : int);
      sys.degraded <- true;
      match Lu.factorize (dense_of_csr sys.pat) with
      | lu ->
        Obs.count "linsys.fact.dense" 1;
        Fdense lu
      | exception Lu.Singular k -> raise (Singular_row k)
    end
  in
  let replan_or_degrade () =
    match
      splu_plan ~ordering:(fun () -> Stamp.ordering sys.circuit) sys.pat
    with
    | p -> begin
      sys.plan <- Some p;
      match Splu.factorize p sys.pat with
      | f -> done_ f
      | exception Splu.Singular k -> degrade k
    end
    | exception Splu.Singular k -> degrade k
  in
  match Faultsim.fire "linsys.splu" with
  | Some (Faultsim.Singular k) ->
    (* injected: the whole sparse path (replay and re-plan) is due to
       fail — jump straight to the degradation rung *)
    degrade k
  | Some (Faultsim.Nan | Faultsim.Exn _ | Faultsim.Clock_skip _) | None -> (
    match sys.plan with
    | None -> replan_or_degrade ()
    | Some p -> (
      match Splu.factorize p sys.pat with
      | f -> done_ f
      | exception Splu.Singular _ ->
        (* the recorded pivot order went stale; re-plan on the current
           values and retry once *)
        Obs.count "linsys.splu.replans" 1;
        replan_or_degrade ()))

let solve fact b =
  match fact with Fdense lu -> Lu.solve lu b | Fsparse f -> Splu.solve f b

let solve_into fact ~scratch b x =
  match fact with
  | Fdense lu -> Lu.solve_into lu b x
  | Fsparse f -> Splu.solve_into f ~scratch b x

let solve_transpose fact b =
  match fact with
  | Fdense lu -> Lu.solve_transpose lu b
  | Fsparse f -> Splu.solve_transpose f b
