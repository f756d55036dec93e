"""Summarise run records from bench/results/ into one JSON document.

    python3 bench/summarise.py bench/results/*.json > summary.json

Untraced records (``--trace 0``) give, per workload, the median and the
quartiles of each end-to-end metric across runs, with the seeds and the
spread (quartile distance over median).  Traced records give the per-layer
counts, the per-call iteration lists and the counts per entry point; the
output digests of each seed are listed so that reruns can be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

COUNTS = ("geometry.unknowns", "discrete.nnz", "discrete.solve_calls", "discrete.cg_iters",
          "envelope.reduite_calls", "envelope.psor_sweeps", "solve.evaluate_points",
          "reconstruct.nonlocal_calls", "reconstruct.quad_levels", "reconstruct.quad_nodes",
          "stochastic.wos_loop_iters", "stochastic.wos_path_steps", "stochastic.stable_steps")


def _stats(values):
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values), "min": values[0], "max": values[-1]}


def summarise(records) -> dict:
    plain = defaultdict(list)
    traced = defaultdict(list)
    for rec in records:
        (traced if rec["trace"] else plain)[rec["workload"]].append(rec)
    out = {"machine": records[0]["machine"] if records else {}, "end_to_end": {},
           "traced": {}}
    for wl, recs in sorted(plain.items()):
        names = recs[0]["metrics"].keys()
        out["end_to_end"][wl] = {
            "seeds": [r["seed"] for r in recs],
            "passes": [len(r["walls_s"]) for r in recs],
            "failed": sum(r["failed"] for r in recs),
            "digests": {str(r["seed"]): r["digests"][0] for r in recs},
            "metrics": {m: _stats([r["metrics"][m] for r in recs]) for m in names},
        }
    for wl, recs in sorted(traced.items()):
        out["traced"][wl] = [{
            "seed": r["seed"], "sampler_seeds": r["sampler_seeds"], "failed": r["failed"],
            "counts": {k: r["metrics"][k] for k in COUNTS},
            "per_call": r["per_call"], "by_entry": r["by_entry"], "absent": r["absent"],
            "digest": r["digests"][0],
        } for r in recs]
    return out


def main(paths) -> int:
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    json.dump(summarise(records), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
