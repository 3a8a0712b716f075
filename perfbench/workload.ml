(* The benchmark's workloads, generated from a seed.

   A workload is a Datalog program (rules plus the initial [link] facts),
   one fixed op list, the base state those ops leave behind, and a fixed
   set of verification queries.  The same (workload, seed) always yields
   the same program and op list, so every run of a workload does
   identical work: the same views, the same WAL, the same recovery
   replay.  The op list is played over one connection, in order, so the
   WAL order is fixed too. *)

module Prng = Ivm_workload.Prng
module Graph_gen = Ivm_workload.Graph_gen
module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation

type edge = int * int

type op =
  | Apply of { deletes : edge list; inserts : edge list }
  | Query of string

type shape =
  | Random of { nodes : int; edges : int }
  | Layered of { layers : int; width : int }
      (** every node has out-degree 2 into the next layer, and in-degree 2
          from the previous one *)

type spec = {
  name : string;
  rules : string;
  query_pred : string;  (** the view the timed point queries read *)
  views : string list;  (** derived predicates the verification reads *)
  shape : shape;
  ops : int;  (** half applies, half queries *)
  swap : int;  (** deletes (= inserts) per apply *)
}

(* Example 6.1: negation across strata; Auto resolves to Counting.
   4+4-edge batches make counting maintenance and the snapshot patch
   dominate. *)
let negation_counting =
  {
    name = "negation_counting";
    rules =
      "hop(X, Y) :- link(X, Z), link(Z, Y).\n\
       tri_hop(X, Y) :- hop(X, Z), link(Z, Y).\n\
       only_tri_hop(X, Y) :- tri_hop(X, Y), not hop(X, Y).\n";
    query_pred = "tri_hop";
    views = [ "hop"; "tri_hop"; "only_tri_hop" ];
    shape = Random { nodes = 2000; edges = 8000 };
    ops = 800;
    swap = 4;
  }

(* Section 7: transitive closure over a layered DAG, maintained by DRed.
   Each deleted edge over-deletes many paths that rederivation restores,
   so DRed's maintain step is nearly the whole apply, and recovery
   replays the WAL through DRed. *)
let closure_dred =
  {
    name = "closure_dred";
    rules = "path(X, Y) :- link(X, Y).\npath(X, Y) :- path(X, Z), link(Z, Y).\n";
    query_pred = "path";
    views = [ "path" ];
    shape = Layered { layers = 10; width = 40 };
    ops = 600;
    swap = 1;
  }

let all = [ negation_counting; closure_dred ]

let find name = List.find_opt (fun s -> s.name = name) all

(* The edges of one stratum: O(1) membership, random pick and removal. *)
module Pool = struct
  type t = { mutable arr : edge array; mutable len : int; pos : (edge, int) Hashtbl.t }

  let create () = { arr = Array.make 64 (0, 0); len = 0; pos = Hashtbl.create 1024 }
  let mem p e = Hashtbl.mem p.pos e

  let add p e =
    if p.len = Array.length p.arr then begin
      let a = Array.make (2 * p.len) (0, 0) in
      Array.blit p.arr 0 a 0 p.len;
      p.arr <- a
    end;
    p.arr.(p.len) <- e;
    Hashtbl.replace p.pos e p.len;
    p.len <- p.len + 1

  let take_random p g =
    let i = Prng.int g p.len in
    let e = p.arr.(i) in
    let last = p.arr.(p.len - 1) in
    p.arr.(i) <- last;
    Hashtbl.replace p.pos last i;
    Hashtbl.remove p.pos e;
    p.len <- p.len - 1;
    e

  let to_list p = Array.to_list (Array.sub p.arr 0 p.len)
end

(* The op list starts query, apply, query: the warm-up,
   which the load generator plays untimed.  The first query on each of
   the snapshot publisher's two buffers builds that buffer's index, a
   one-time cost of a fresh server, not of a query. *)
let warmup = 3

type t = {
  spec : spec;
  initial : edge list;
  ops : op list;  (** in send order *)
  final : edge list;  (** the base state after every op, sorted *)
  verify : string list;  (** verification query bodies *)
}

(* Layered graphs are sampled by layer: the k-th apply swaps an edge leaving layer [k mod (layers - 1)] for another one
   leaving the same layer.  The cost of a DRed batch depends mostly on
   the layer of the deleted edge, so this keeps the per-run work nearly
   the same from seed to seed, and every layer keeps its edge count. *)
let strata spec =
  match spec.shape with Random _ -> 1 | Layered { layers; _ } -> layers - 1

let stratum spec (src, _) =
  match spec.shape with Random _ -> 0 | Layered { width; _ } -> src / width

(* A fresh edge in stratum [k]: for a random graph any non-loop pair,
   for the layered DAG an edge from layer [k] into the next layer. *)
let candidate spec g ~k =
  match spec.shape with
  | Random { nodes; _ } ->
    let src = Prng.int g nodes in
    let rec dst () =
      let d = Prng.int g nodes in
      if d = src then dst () else d
    in
    (src, dst ())
  | Layered { width; _ } ->
    let src = (k * width) + Prng.int g width in
    (src, ((k + 1) * width) + Prng.int g width)

(* The verification queries start in every layer in turn; the timed ones
   all start in the middle layer, so their answers have one typical size
   instead of one per layer, and the percentiles do not fall between
   sizes. *)
let query_node ?(verify = false) spec g k =
  match spec.shape with
  | Random { nodes; _ } -> Prng.int g nodes
  | Layered { layers; width } ->
    let layer = if verify then k mod layers else layers / 2 in
    (layer * width) + Prng.int g width

(* Consecutive layers joined by two random perfect matchings that share
   no edge: every node has exactly two successors and two predecessors.
   Graph_gen.layered_dag draws successors independently, so in-degrees
   vary and so does the DRed work of a batch, from seed to seed. *)
let regular_layers g ~layers ~width =
  let perm () =
    let p = Array.init width Fun.id in
    Prng.shuffle g p;
    p
  in
  let rec derangement () =
    let p = perm () in
    if Array.exists Fun.id (Array.mapi ( = ) p) then derangement () else p
  in
  List.concat
    (List.init (layers - 1) (fun l ->
         let first = perm () and shift = derangement () in
         let node layer slot = (layer * width) + slot in
         List.concat
           (List.init width (fun s ->
                [ (node l s, node (l + 1) first.(s));
                  (node l s, node (l + 1) first.(shift.(s))) ]))))

let generate spec ~seed =
  let root = Prng.create seed in
  let g_graph = Prng.split root in
  let g_verify = Prng.split root in
  let g = Prng.split root in
  let initial =
    match spec.shape with
    | Random { nodes; edges } -> Graph_gen.random g_graph ~nodes ~edges
    | Layered { layers; width } -> regular_layers g_graph ~layers ~width
  in
  let pools = Array.init (strata spec) (fun _ -> Pool.create ()) in
  List.iter (fun e -> Pool.add pools.(stratum spec e) e) initial;
  let rest = Array.init (spec.ops - warmup) (fun i -> i < (spec.ops / 2) - 1) in
  Prng.shuffle g rest;
  let kinds = Array.append [| false; true; false |] rest in
  let applies = ref 0 and queries = ref 0 in
  let op is_apply =
    if is_apply then begin
      let k = !applies mod strata spec in
      incr applies;
      let pool = pools.(k) in
      let deletes = List.init spec.swap (fun _ -> Pool.take_random pool g) in
      let rec fresh acc n =
        if n = 0 then List.rev acc
        else
          let e = candidate spec g ~k in
          if Pool.mem pool e || List.mem e deletes || List.mem e acc then fresh acc n
          else fresh (e :: acc) (n - 1)
      in
      let inserts = fresh [] spec.swap in
      List.iter (Pool.add pool) inserts;
      Apply { deletes; inserts }
    end
    else begin
      let k = !queries in
      incr queries;
      Query (Printf.sprintf "%s(%d, X)" spec.query_pred (query_node spec g k))
    end
  in
  let ops = Array.to_list (Array.map op kinds) in
  let final = List.sort compare (List.concat_map Pool.to_list (Array.to_list pools)) in
  let verify =
    List.concat_map
      (fun pred ->
        List.init 16 (fun k ->
            Printf.sprintf "%s(%d, X)" pred (query_node ~verify:true spec g_verify k)))
      ("link" :: spec.views)
  in
  { spec; initial; ops; final; verify }

let program_source w =
  let b = Buffer.create (16 * List.length w.initial) in
  Buffer.add_string b w.spec.rules;
  List.iter (fun (s, d) -> Printf.bprintf b "link(%d, %d).\n" s d) w.initial;
  Buffer.contents b

(* The apply's change set as the protocol carries it. *)
let changes ~deletes ~inserts =
  let entry sign e = (Graph_gen.edge_tuple e, sign) in
  [ ("link",
     Relation.of_list 2 (List.map (entry (-1)) deletes @ List.map (entry 1) inserts)) ]

(* Rows of an answer, canonically ordered, with their counts. *)
let canonical (rows : Relation.t) =
  String.concat " "
    (List.map
       (fun (t, c) -> Printf.sprintf "%s*%d" (Tuple.to_string t) c)
       (Relation.to_sorted_list rows))
