module Wire = Ivm_wire.Wire
module Crc32 = Ivm_wire.Crc32
module Relation = Ivm_relation.Relation
module Ast = Ivm_datalog.Ast
module Parser = Ivm_datalog.Parser
module Pretty = Ivm_datalog.Pretty
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database
module Metrics = Ivm_obs.Metrics
module Trace = Ivm_obs.Trace

exception Corrupt of string

let magic = "IVMSNAP1"
let version = 2

let bytes_written_c = Metrics.counter "ivm_store_bytes_written_total"
let snapshots_c = Metrics.counter "ivm_store_snapshots_total"

(* ---------------- encoding ---------------- *)

(** Every predicate of the program, in a deterministic order — equal
    databases encode to equal snapshot bytes. *)
let stored_preds program =
  List.sort String.compare (Program.base_preds program @ Program.derived_preds program)

(* Sized first, then written once into one exact-size block; the CRC
   trailer is computed over the block in place. *)
type counts = Exact | Stale

let encode ~counts ~seq (db : Database.t) : string =
  let program = Database.program db in
  let program_src = Format.asprintf "%a" Pretty.pp_program (Program.rules program) in
  let base = List.sort String.compare (Program.base_preds program) in
  let distinct = Database.distinct_views db in
  let agg_sigs = Database.agg_signatures db in
  let rels = List.map (fun p -> (p, Database.relation db p)) (stored_preds program) in
  let names_size names =
    List.fold_left (fun acc s -> acc + Wire.string_size s) 4 names
  in
  let size =
    String.length magic + 4 + 1 + 8
    + Wire.string_size program_src
    + List.fold_left (fun acc p -> acc + Wire.string_size p + 4) 4 base
    + names_size distinct + names_size agg_sigs
    + Wire.changes_size rels
    + 4
  in
  let put_names w names =
    Wire.put_u32 w (List.length names);
    List.iter (Wire.put_string w) names
  in
  let b =
    Wire.block size (fun w ->
        Wire.put_raw w magic;
        Wire.put_u32 w version;
        Wire.put_u8 w
          ((match Database.semantics db with
           | Database.Set_semantics -> 0
           | Database.Duplicate_semantics -> 1)
          lor match counts with Exact -> 0 | Stale -> 2);
        Wire.put_i64 w seq;
        Wire.put_string w program_src;
        Wire.put_u32 w (List.length base);
        List.iter
          (fun p ->
            Wire.put_string w p;
            Wire.put_u32 w (Program.arity program p))
          base;
        put_names w distinct;
        put_names w agg_sigs;
        Wire.put_changes w rels;
        Wire.put_u32 w 0 (* the CRC trailer, filled in below *))
  in
  Bytes.set_int32_le b (size - 4) (Crc32.update_bytes 0l b 0 (size - 4));
  Bytes.unsafe_to_string b

(* ---------------- decoding ---------------- *)

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt ("snapshot: " ^ s))) fmt

type image = {
  db : Database.t;
  seq : int;
  counts : counts option;
  views : unit Lazy.t;
}

let read (s : string) : image =
  let n = String.length s in
  if n < String.length magic + 4 + 4 then corrupt "file too short (%d bytes)" n;
  if String.sub s 0 (String.length magic) <> magic then corrupt "bad magic";
  let stored_crc = String.get_int32_le s (n - 4) in
  let computed = Crc32.update 0l s 0 (n - 4) in
  if stored_crc <> computed then
    corrupt "CRC mismatch (stored %08lx, computed %08lx)" stored_crc computed;
  let payload = String.sub s 0 (n - 4) in
  let guard f =
    try f () with
    | Corrupt _ as e -> raise e
    | Wire.Corrupt msg -> corrupt "payload: %s" msg
    | Parser.Parse_error msg | Program.Program_error msg -> corrupt "program: %s" msg
    | Invalid_argument msg -> corrupt "inconsistent payload: %s" msg
  in
  guard (fun () ->
      let r = Wire.reader ~pos:(String.length magic) payload in
      let v = Wire.get_u32 r in
      if v <> 1 && v <> version then corrupt "unsupported version %d (expected %d)" v version;
      let flags = Wire.get_u8 r in
      (* a version-1 image is unmarked, whatever its bits 1-2 held *)
      if flags lsr (if v = 1 then 3 else 2) <> 0 then corrupt "bad semantics byte %d" flags;
      let counts = if v = 1 then None else if flags land 2 = 0 then Some Exact else Some Stale in
      let semantics =
        if flags land 1 = 0 then Database.Set_semantics else Database.Duplicate_semantics
      in
      let seq = Wire.get_i64 r in
      let program_src = Wire.get_string r in
      let extra_base =
        List.init (Wire.get_u32 r) (fun _ ->
            let name = Wire.get_string r in
            let arity = Wire.get_u32 r in
            (name, arity))
      in
      let distinct = List.init (Wire.get_u32 r) (fun _ -> Wire.get_string r) in
      let agg_sigs = List.init (Wire.get_u32 r) (fun _ -> Wire.get_string r) in
      let program = Program.make ~extra_base (Parser.parse_rules program_src) in
      (* The registered aggregate indexes, rebuilt below from their
         loaded sources: the accumulator state is a pure function of the
         source multiset, so this reproduces the writer's index exactly. *)
      let indexed =
        List.concat_map
          (fun (rule : Ast.rule) ->
            List.filter_map
              (function
                | Ast.Lagg agg ->
                  let spec = Ivm_eval.Compile.compile_agg_spec agg in
                  if List.mem spec.Ivm_eval.Compile.gsignature agg_sigs then Some spec
                  else None
                | Ast.Lpos _ | Ast.Lneg _ | Ast.Lcmp _ -> None)
              rule.Ast.body)
          (Program.rules program)
      in
      let source (spec : Ivm_eval.Compile.agg_spec) =
        spec.Ivm_eval.Compile.gsource.Ivm_eval.Compile.cpred
      in
      (* Base relations and the views an index reads are decoded now;
         every other view is walked and decoded when [views] is forced. *)
      let now name =
        Program.is_base program name || List.exists (fun s -> source s = name) indexed
      in
      let db = Database.create ~semantics program in
      let deferred = ref [] in
      for _ = 1 to Wire.get_u32 r do
        let name = Wire.get_string r in
        if now name then Database.set_relation db name (Wire.get_relation r)
        else begin
          let pos = Wire.pos r in
          let arity = Wire.skip_relation r in
          if arity <> Program.arity program name then
            corrupt "inconsistent payload: arity mismatch for %s" name;
          deferred := (name, pos) :: !deferred
        end
      done;
      if Wire.remaining r <> 0 then
        corrupt "%d trailing bytes after payload" (Wire.remaining r);
      List.iter (fun v -> Database.mark_distinct db v) distinct;
      List.iter (fun spec -> ignore (Database.register_agg_index db spec)) indexed;
      let views =
        lazy
          (Trace.span "snapshot.decode_views"
             ~args:(fun () -> [ ("views", string_of_int (List.length !deferred)) ])
             (fun () ->
               guard (fun () ->
                   List.iter
                     (fun (name, pos) ->
                       Database.set_relation db name
                         (Wire.get_relation (Wire.reader ~pos payload)))
                     (List.rev !deferred))))
      in
      { db; seq; counts; views })

let decode (s : string) : Database.t * int * counts option =
  let image = read s in
  Lazy.force image.views;
  (image.db, image.seq, image.counts)

(* ---------------- files ---------------- *)

let save ~counts ~path ~seq (db : Database.t) : int =
  Trace.span "store.snapshot_save" (fun () ->
      let data = encode ~counts ~seq db in
      let tmp = path ^ ".tmp" in
      Out_channel.with_open_gen
        [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
        0o644 tmp
        (fun oc ->
          Out_channel.output_string oc data;
          Fsutil.fsync_out_channel oc);
      Sys.rename tmp path;
      Fsutil.fsync_dir (Filename.dirname path);
      Metrics.inc snapshots_c;
      Metrics.add bytes_written_c (String.length data);
      String.length data)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let load ~path = decode (read_file path)
let load_image ~path = read (read_file path)
