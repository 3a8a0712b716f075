type t = { vals : Value.t array; hash : int }

(* Same column-wise combination as before the hash was cached; Value.hash
   maps Int 2 and Float 2.0 to the same bucket, so [equal] (which treats
   them as equal, like Value.compare) still implies equal hashes. *)
let hash_vals vals =
  let h = ref (Array.length vals) in
  for i = 0 to Array.length vals - 1 do
    h := (!h * 31) + Value.hash vals.(i)
  done;
  !h land max_int

let make vals = { vals; hash = hash_vals vals }

(* [hash_vals] of the projection on [cols], without building it. *)
let hash_cols cols t =
  let h = ref (Array.length cols) in
  for i = 0 to Array.length cols - 1 do
    h := (!h * 31) + Value.hash t.vals.(cols.(i))
  done;
  !h land max_int

let arity t = Array.length t.vals
let get t i = t.vals.(i)
let hash t = t.hash

(* Top level, not a local closure over the two arrays: [compare] runs on
   every hash-table hit ([equal]) and every sort comparison, and a local
   recursive function would allocate its closure on each call. *)
let rec compare_from va vb i =
  if i >= Array.length va then 0
  else
    let c = Value.compare va.(i) vb.(i) in
    if c <> 0 then c else compare_from va vb (i + 1)

let compare a b =
  if a == b then 0
  else
    let va = a.vals and vb = b.vals in
    let la = Array.length va and lb = Array.length vb in
    if la <> lb then Int.compare la lb else compare_from va vb 0

(* The cached hashes give a constant-time negative before any column is
   compared — the common case in hash-table bucket collisions. *)
let equal a b = a == b || (a.hash = b.hash && compare a b = 0)

let of_list vs = make (Array.of_list vs)
let of_array = make
let to_array t = t.vals
let to_list t = Array.to_list t.vals
let of_ints xs = make (Array.of_list (List.map Value.int xs))
let of_strs xs = make (Array.of_list (List.map Value.str xs))

let map f t = make (Array.map f t.vals)

let project cols t = make (Array.map (fun i -> t.vals.(i)) cols)

let append t v =
  let n = Array.length t.vals in
  let vals = Array.make (n + 1) v in
  Array.blit t.vals 0 vals 0 n;
  make vals

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Value.pp)
    t.vals

let to_string t = Format.asprintf "%a" pp t
