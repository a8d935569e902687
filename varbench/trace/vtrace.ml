(* In-process replay of the benchmark's generated jobs.

     vtrace unknowns DECK
       print the number of MNA unknowns DECK elaborates to

     vtrace replay --mode cli|serve --jobs FILE --seconds S [--cache-dir DIR]
       replay the job list untraced (telemetry off, one wall time per
       job) and traced (telemetry on, spans around every public
       front-end and cache call, Gc word deltas per call), round after
       round, until S seconds have passed and at least two rounds ran,
       so every job has two traced replays to compare.
       One JSON line per job replay.

   Job lines are tab-separated: [run<TAB>deck] or
   [yield<TAB>deck<TAB>seed] (the deck's own .yield card, reseeded).
   Mode [cli] mirrors [varsim run] / [varsim yield] without a cache:
   each job starts with an empty plan cache, as a fresh process does.
   Mode [serve] mirrors one [varsim serve] lane: every pass over the
   jobs starts with an empty two-tier cache under DIR/passN, and each
   job looks its result up by deck fingerprint before computing it.

   Below [Spice_run.execute] the engine spans and counters are the ones
   Obs already records; this program adds no span inside the library. *)

let json_string s =
  let b = Buffer.create (String.length s + 16) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let read_file path = In_channel.with_open_bin path In_channel.input_all

type job = { kind : [ `Run | `Yield of int ]; deck : string }

let parse_job line =
  match String.split_on_char '\t' line with
  | [ "run"; deck ] -> { kind = `Run; deck }
  | [ "yield"; deck; seed ] -> { kind = `Yield (int_of_string seed); deck }
  | _ -> failwith ("vtrace: bad job line: " ^ line)

let load_jobs path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map parse_job |> Array.of_list

(* --- per-call accounting: wall time comes from the Obs span tree,
   allocated words are accumulated here per call name *)

let words = Hashtbl.create 16

(* [Gc.minor_words] reads the allocation pointer, so it is exact even
   between minor collections, where the quick_stat field lags *)
let allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let call traced name f =
  if not traced then f ()
  else begin
    let w0 = allocated () in
    let r = Obs.span name f in
    let dw = allocated () -. w0 in
    let prev = Option.value (Hashtbl.find_opt words name) ~default:0.0 in
    Hashtbl.replace words name (prev +. dw);
    r
  end

let reseed seed analyses =
  List.filter_map
    (fun (ln, a) ->
      match a with
      | Spice_ast.A_yield r -> Some (ln, Spice_ast.A_yield { r with seed })
      | _ -> None)
    analyses

(* One job: parse -> elaborate -> [fingerprint -> find] -> execute ->
   render -> [put].  Returns the rendered bytes and whether they came
   from the cache. *)
let run_job ~traced ~cache job =
  let text = read_file job.deck in
  let ast = call traced "spice.parse" (fun () -> Spice_parser.parse text) in
  let deck = call traced "spice.elab" (fun () -> Spice_elab.elaborate ast) in
  let deck, backend, krylov =
    match job.kind with
    | `Run when cache = None ->
      (deck, Some Linsys.Auto, Some Linsys.Kauto)
    | `Run -> (deck, None, None)
    | `Yield seed ->
      ( { deck with Spice_elab.analyses = reseed seed deck.Spice_elab.analyses },
        Some Linsys.Auto, Some Linsys.Kauto )
  in
  let key =
    Option.map
      (fun _ ->
        call traced "spice.fingerprint" (fun () -> Spice_elab.fingerprint deck)
        ^ "|result")
      cache
  in
  let found =
    match cache, key with
    | Some c, Some k ->
      call traced "cache.find" (fun () -> Cache.find_result c k)
    | _ -> None
  in
  match found with
  | Some output -> (output, true)
  | None ->
    let buf = Buffer.create 1024 in
    let ppf = Format.formatter_of_buffer buf in
    if deck.Spice_elab.title <> "" then
      Format.fprintf ppf "* %s@.@." deck.Spice_elab.title;
    List.iter
      (fun (_, card) ->
        let r =
          call traced "spice.execute" (fun () ->
              Spice_run.execute ~domains:1 ?backend ?krylov ?cache deck card)
        in
        call traced "spice.render" (fun () ->
            Spice_run.render ppf deck card r))
      deck.Spice_elab.analyses;
    Format.pp_print_flush ppf ();
    let output = Buffer.contents buf in
    (match cache, key with
     | Some c, Some k ->
       call traced "cache.put" (fun () -> Cache.put_result c k output)
     | _ -> ());
    (output, false)

(* empty the Linsys plan cache; 64 is its capacity at process start *)
let reset_plan_cache () =
  Linsys.set_plan_cache_capacity 0;
  Linsys.set_plan_cache_capacity 64

let emit ~pass ~index ~traced ~wall ~hit ~output ~error ~metrics =
  let ws =
    Hashtbl.fold
      (fun k v acc -> Printf.sprintf "%s:%.17g" (json_string k) v :: acc)
      words []
  in
  Printf.printf
    "{\"pass\":%d,\"job\":%d,\"traced\":%b,\"wall_s\":%.9f,\"hit\":%b,\
     \"error\":%s,\"words\":{%s},\"obs\":%s,\"output\":%s}\n%!"
    pass index traced wall hit
    (match error with None -> "null" | Some e -> json_string e)
    (String.concat "," ws) metrics (json_string output)

(* One job, traced or not, reported as one JSON line. *)
let replay_job ~pass ~traced ~cache index job =
  Hashtbl.reset words;
  if traced then Obs.enable ();
  let t0 = Unix.gettimeofday () in
  let result =
    try
      Ok
        (if traced then Obs.root "job" (fun () -> run_job ~traced ~cache job)
         else run_job ~traced ~cache job)
    with e -> Error (Printexc.to_string e)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let metrics =
    if traced then begin
      let m =
        String.map (function '\n' -> ' ' | c -> c) (Obs.metrics_json ())
      in
      Obs.disable ();
      m
    end
    else "null"
  in
  let output, hit, error =
    match result with
    | Ok (o, h) -> (o, h, None)
    | Error e -> ("", false, Some e)
  in
  emit ~pass ~index ~traced ~wall ~hit ~output ~error ~metrics

let serve_cache cache_dir pass =
  reset_plan_cache ();
  let dir = Filename.concat cache_dir (Printf.sprintf "pass%d" pass) in
  match Cache.create ~mem_capacity:32 ~dir ~meta:(Version.provenance ()) () with
  | Ok c -> Some c
  | Error m -> failwith ("vtrace: cache: " ^ m)

(* Rounds of one untraced and one traced replay of every job, so each
   pair shares the same machine conditions.  A CLI job is independent
   of the jobs before it, so its two replays run back to back; a serve
   job depends on the cache the earlier jobs filled, so the untraced
   and the traced replay are whole passes, each over a fresh cache. *)
let min_rounds = 2

let replay ~mode ~jobs ~seconds ~cache_dir =
  let jobs = load_jobs jobs in
  let t_start = Unix.gettimeofday () in
  let round = ref 0 in
  while !round < min_rounds || Unix.gettimeofday () -. t_start < seconds do
    (match mode with
     | `Cli ->
       Array.iteri
         (fun index job ->
           List.iter
             (fun traced ->
               reset_plan_cache ();
               replay_job ~pass:!round ~traced ~cache:None index job)
             [ false; true ])
         jobs
     | `Serve ->
       List.iter
         (fun traced ->
           let pass = (2 * !round) + Bool.to_int traced in
           let cache = serve_cache cache_dir pass in
           Array.iteri (replay_job ~pass ~traced ~cache) jobs)
         [ false; true ]);
    incr round
  done

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "unknowns"; deck ] ->
    let d = Spice_elab.load_file deck in
    Printf.printf "%d\n" (Circuit.size d.Spice_elab.circuit)
  | "replay" :: rest ->
    let mode = ref `Cli and jobs = ref "" and seconds = ref 1.0 in
    let cache_dir = ref "vtrace-cache" in
    let rec go = function
      | "--mode" :: "cli" :: r -> mode := `Cli; go r
      | "--mode" :: "serve" :: r -> mode := `Serve; go r
      | "--jobs" :: v :: r -> jobs := v; go r
      | "--seconds" :: v :: r -> seconds := float_of_string v; go r
      | "--cache-dir" :: v :: r -> cache_dir := v; go r
      | [] -> ()
      | a :: _ -> failwith ("vtrace: unknown argument " ^ a)
    in
    go rest;
    replay ~mode:!mode ~jobs:!jobs ~seconds:!seconds ~cache_dir:!cache_dir
  | _ ->
    prerr_endline
      "usage: vtrace unknowns DECK | vtrace replay --mode cli|serve --jobs \
       FILE --seconds S [--cache-dir DIR]";
    exit 2
