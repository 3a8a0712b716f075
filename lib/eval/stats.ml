module Metrics = Ivm_obs.Metrics

let derivations_c = Metrics.counter "ivm_derivations_total"
let tuples_scanned_c = Metrics.counter "ivm_tuples_scanned_total"
let probes_c = Metrics.counter "ivm_probes_total"
let rule_applications_c = Metrics.counter "ivm_rule_applications_total"
let index_builds_c = Metrics.counter "ivm_index_builds_total"

let reset () =
  List.iter Metrics.zero
    [ derivations_c; tuples_scanned_c; probes_c; rule_applications_c; index_builds_c ]

let derivations () = Metrics.counter_value derivations_c
let tuples_scanned () = Metrics.counter_value tuples_scanned_c
let probes () = Metrics.counter_value probes_c
let rule_applications () = Metrics.counter_value rule_applications_c
let index_builds () = Metrics.counter_value index_builds_c

type snapshot = {
  snap_derivations : int;
  snap_tuples_scanned : int;
  snap_probes : int;
  snap_rule_applications : int;
  snap_index_builds : int;
}

let read value =
  {
    snap_derivations = value derivations_c;
    snap_tuples_scanned = value tuples_scanned_c;
    snap_probes = value probes_c;
    snap_rule_applications = value rule_applications_c;
    snap_index_builds = value index_builds_c;
  }

(* Work read through [value] since [earlier], clamped at zero: a
   snapshot taken before a {!reset} is stale and reports no work rather
   than a negative amount. *)
let d value c before =
  let n = value c - before in
  if n > 0 then n else 0

let minus value earlier =
  {
    snap_derivations = d value derivations_c earlier.snap_derivations;
    snap_tuples_scanned = d value tuples_scanned_c earlier.snap_tuples_scanned;
    snap_probes = d value probes_c earlier.snap_probes;
    snap_rule_applications =
      d value rule_applications_c earlier.snap_rule_applications;
    snap_index_builds = d value index_builds_c earlier.snap_index_builds;
  }

let snapshot () = read Metrics.counter_value
let since earlier = minus Metrics.counter_value earlier
let local_snapshot () = read (Metrics.local_value ())
let local_since earlier = minus (Metrics.local_value ()) earlier

let pp_snapshot ppf s =
  Format.fprintf ppf "derivations=%d scanned=%d probes=%d rules=%d idxbuilds=%d"
    s.snap_derivations s.snap_tuples_scanned s.snap_probes
    s.snap_rule_applications s.snap_index_builds

let measure f =
  let before = snapshot () in
  let x = f () in
  (x, since before)
