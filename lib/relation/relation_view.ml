type t =
  | Concrete of Relation.t
  | Overlay of { base : Relation.t; delta : Relation.t }

let concrete r = Concrete r

let overlay base delta =
  if Relation.is_empty delta then Concrete base else Overlay { base; delta }

let arity = function
  | Concrete r -> Relation.arity r
  | Overlay { base; _ } -> Relation.arity base

let count v t =
  match v with
  | Concrete r -> Relation.count r t
  | Overlay { base; delta } -> Relation.count base t + Relation.count delta t

let mem v t = count v t <> 0
let holds v t = count v t > 0

let iter f = function
  | Concrete r -> Relation.iter f r
  | Overlay { base; delta } ->
    Relation.iter
      (fun t c ->
        let c = c + Relation.count delta t in
        if c <> 0 then f t c)
      base;
    Relation.iter (fun t c -> if not (Relation.mem base t) && c <> 0 then f t c) delta

let fold f v init =
  let acc = ref init in
  iter (fun t c -> acc := f t c !acc) v;
  !acc

type prepared =
  | Pconcrete of Relation.handle
  | Poverlay of {
      base : Relation.t;
      delta : Relation.t;
      hbase : Relation.handle;
      hdelta : Relation.handle;
    }

let prepare_probe v cols =
  match v with
  | Concrete r -> Pconcrete (Relation.probe_handle r cols)
  | Overlay { base; delta } ->
    Poverlay
      { base; delta;
        hbase = Relation.probe_handle base cols;
        hdelta = Relation.probe_handle delta cols }

let prober p f =
  match p with
  | Pconcrete h -> fun key -> Relation.probe_via h key f
  | Poverlay { base; delta; hbase; hdelta } ->
    let on_base t c =
      let c = c + Relation.count delta t in
      if c <> 0 then f t c
    and on_delta t c = if not (Relation.mem base t) && c <> 0 then f t c in
    fun key ->
      Relation.probe_via hbase key on_base;
      Relation.probe_via hdelta key on_delta

let probe v cols key f = prober (prepare_probe v cols) f key

let cardinal_estimate = function
  | Concrete r -> Relation.cardinal r
  | Overlay { base; delta } -> Relation.cardinal base + Relation.cardinal delta

let force v =
  match v with
  | Concrete r -> Relation.copy r
  | Overlay { base; delta } ->
    let out = Relation.copy base in
    Relation.union_into ~into:out delta;
    out
