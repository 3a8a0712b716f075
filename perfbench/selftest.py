#!/usr/bin/env python3
"""The benchmark's own test: the traced replay's exact counters repeat.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload, replays seed 1
twice and seed 2 once (ivmbench replay).  The exact counters must be
identical across the two seed-1 replays and must differ for seed 2, which
shows that the inputs come from the seed and from nothing else.  Exits 1
on any mismatch.
"""

import sys

sys.dont_write_bytecode = True

import os  # noqa: E402
import shutil  # noqa: E402

import run  # noqa: E402

EXACT = [
    "eval.derivations_per_batch",
    "eval.probes_per_batch",
    "eval.tuples_scanned_per_batch",
    "eval.query_rows",
    "eval.index_builds",
    "store.snapshot_bytes",
    "store.wal_bytes_per_batch",
    "serve.patched_tuples_per_group",
    "serve.publish_full_copies",
    "wire.apply_request_bytes",
    "wire.apply_reply_bytes",
    "wire.query_request_bytes",
    "wire.query_reply_bytes",
]

# counters that must differ between two seeds (the others may coincide,
# e.g. fixed-size request frames or zero full copies)
SEED_SENSITIVE = ["eval.derivations_per_batch", "store.snapshot_bytes"]


def replay(workload, seed):
    store = os.path.join(run.WORK, "selftest_store")
    shutil.rmtree(store, ignore_errors=True)
    out = run.run_tool(["replay", "--workload", workload, "--seed", seed,
                        "--dir", store,
                        "--spans", os.path.join(run.WORK, "selftest_spans.json")])
    shutil.rmtree(store, ignore_errors=True)
    return {k: out["metrics"][k] for k in EXACT}


def main():
    os.makedirs(run.WORK, exist_ok=True)
    run.build()
    ok = True
    for workload in sorted(run.WORKLOADS):
        a, b, c = replay(workload, 1), replay(workload, 1), replay(workload, 2)
        for k in EXACT:
            if a[k] != b[k]:
                ok = False
                print("FAIL %s %s: %r then %r with one seed" % (workload, k, a[k], b[k]))
        for k in SEED_SENSITIVE:
            if a[k] == c[k]:
                ok = False
                print("FAIL %s %s: %r for seeds 1 and 2" % (workload, k, a[k]))
        print("%s %s: %d exact counters repeat" % ("ok" if ok else "--", workload, len(EXACT)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
