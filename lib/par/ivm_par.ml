(** Multicore delta evaluation: a process-global {!Pool} of domains plus
    the [parallel_map] primitive that [Ivm_eval.Par_eval]'s round engine
    — and through it every evaluation and maintenance loop — fans out
    with.

    The paper's delta rules are embarrassingly parallel: each rewritten
    rule [Δ(p) :- s1ν & … & Δ(si) & … & sn] (Definition 4.1) reads
    immutable old/new views and emits an independent delta, combined only
    at the [⊎] step.  Each round is therefore an array of read-only
    thunks, run here, whose results are committed sequentially in fixed
    task order.  Committed view
    states are identical whatever the domain count because [⊎] sums
    counts per tuple — commutative and associative — so neither the
    domain-count-dependent chunking nor the merge order affects the
    merged content (the determinism property suite pins this; see
    [Ivm_eval.Par_eval]).

    The domain count is a process-global knob, default 1 (fully
    sequential, no pool, no worker domains):

    - {!set_domains} picks the count; the pool is (re)built lazily on the
      next parallel batch and the old one joined;
    - the [IVM_DOMAINS] environment variable seeds the default, so test
      and CI runs can force every maintenance path through 1 or 4 domains
      without touching code;
    - [View_manager.create ~domains], the shell's [--domains] and the
      bench runner's [--domains] all route here.

    Thunks must follow the read-only discipline: shared relations and
    caches are only read (the caches are forced sequentially by
    [Par_eval.round] before fan-out; demand-built relation indexes are
    published atomically by [Ivm_relation.Relation]), and every write
    lands in thunk-private state. *)

module Pool = Pool

let env_default () =
  match Sys.getenv_opt "IVM_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> 1)
  | None -> 1

let requested = ref (env_default ())
let current : Pool.t option ref = ref None

(** The configured domain count (≥ 1). *)
let domains () = !requested

(** True when evaluation is fully sequential (one domain). *)
let sequential () = !requested <= 1

(** Set the domain count used by all subsequent maintenance batches.
    Takes effect lazily: the pool is rebuilt on the next parallel batch;
    an existing pool of a different size is shut down then. *)
let set_domains n = requested := max 1 n

let shutdown () =
  match !current with
  | Some p ->
    Pool.shutdown p;
    current := None
  | None -> ()

(* Worker domains would keep the process alive (the runtime joins them at
   exit); tear the pool down when the program ends. *)
let () = at_exit shutdown

let pool () =
  match !current with
  | Some p when Pool.size p = !requested -> p
  | _ ->
    shutdown ();
    let p = Pool.create ~domains:!requested in
    current := Some p;
    p

(** [parallel_map tasks] — run the thunks (on the global pool when more
    than one domain is configured) and return their results in task
    order.  Single-domain or single-task batches run inline, in order. *)
let parallel_map (tasks : (unit -> 'a) array) : 'a array =
  let n = Array.length tasks in
  if n = 0 then [||]
  else if sequential () || n = 1 then Array.map (fun f -> f ()) tasks
  else begin
    let results = Array.make n None in
    Ivm_obs.Trace.span "par.fanout"
      ~args:(fun () ->
        [ ("tasks", string_of_int n); ("domains", string_of_int !requested) ])
      (fun () ->
        Pool.run_tasks (pool ()) ~n (fun i -> results.(i) <- Some (tasks.(i) ())));
    Array.map (function Some x -> x | None -> assert false) results
  end
