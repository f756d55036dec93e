"""potkit benchmark: one workload per invocation, result as the last stdout line.

    python3 bench/run.py --workload disk-dirac-cg --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; potkit is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics (wall time of a
workload pass, set-up time, peak RSS, accuracy), with ``--trace 1`` the
per-layer metrics of one traced pass.  A full record (machine, seeds,
digests, spans) is written under ``bench/results/``.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_PROBES = 2          # fresh interpreters timing set-up, besides this one


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="sampler seed for mc-exit (default: the preset seeds)")
    p.add_argument("--seconds", type=float, default=22.0,
                   help="measurement budget, turned into a fixed number of passes "
                        "(at least one) from the workload's nominal pass time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_blas_threads():
    """Cap BLAS/OpenMP pools at the CPUs this process may use; must run
    before numpy is imported.  Returns the cap."""
    cap = _nproc()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            cur = int(os.environ.get(var, cap))
        except ValueError:
            cur = cap
        os.environ[var] = str(max(1, min(cur, cap)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _import_and_setup(workload, seed):
    """Time ``import potkit`` plus the workload's set-up; returns
    (workloads module, context, seconds)."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}")
    ctx = workloads.setup(workload, seed)
    return workloads, ctx, time.perf_counter() - t0


def _probe_setup(workload, seed) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--setup-probe"] + ([] if seed is None else ["--seed", str(seed)])
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _machine(blas_threads) -> dict:
    import numpy
    import scipy
    info = {"nproc": _nproc(), "cpu_model": None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads,
            "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in out.splitlines():
            key, _, val = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache", "Hypervisor vendor"):
                info[key.strip().lower().replace(" ", "_")] = val.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return info


def _matvec(dop) -> dict:
    """Time ``A @ x`` on the pass's last operator; bytes are computed from
    the CSR arrays and the two vectors, not measured."""
    import numpy as np
    A = dop.A
    x = np.ones(A.shape[1])
    y = A @ x
    times = []
    t_end = time.perf_counter() + 0.3
    while len(times) < 5 or time.perf_counter() < t_end:
        t = time.perf_counter()
        A @ x
        times.append(time.perf_counter() - t)
    t = statistics.median(times)
    nbytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes + x.nbytes + y.nbytes
    return {"discrete.matvec_ms": 1e3 * t, "discrete.matvec_gbs_computed": nbytes / t / 1e9}


def _timed_pass(W, workload, ctx):
    t = time.perf_counter()
    res = W.run_pass(workload, ctx)
    return time.perf_counter() - t, res


def _summarise(results) -> dict:
    """Attempted/failed counts; a pass fails on a check or on a digest that
    differs from the first pass's (the same seed must give the same bytes)."""
    first = results[0].digest
    failed = [i for i, r in enumerate(results) if not r.ok or r.digest != first]
    return {"attempted": len(results), "failed": len(failed),
            "checks": [r.checks for r in results],
            "digests": [r.digest for r in results], "info": results[0].info}


def _run_plain(W, workload, ctx, seconds):
    passes = max(1, int(seconds / W.PASS_SECONDS[workload] + 0.5))
    walls, results = [], []
    for _ in range(passes):
        wall, res = _timed_pass(W, workload, ctx)
        walls.append(wall)
        results.append(res)
    return walls, results


def _run_traced(W, workload, seed):
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    with tracer.span("setup") as setup_rec:
        ctx = W.setup(workload, seed)
    tracer.uninstall()
    wall_plain, res_plain = _timed_pass(W, workload, ctx)
    tracer.install()
    with tracer.span("pass") as pass_rec:
        res_traced = W.run_pass(workload, ctx)
    tracer.uninstall()
    wall_traced = pass_rec["end"] - pass_rec["start"]
    metrics = tracer.layer_metrics(pass_rec["id"], setup_rec["id"])
    dop = tracer.last.get("discrete.assemble")
    metrics.update(_matvec(dop) if dop is not None else
                   {"discrete.matvec_ms": 0.0, "discrete.matvec_gbs_computed": 0.0})
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    unused = tracer.unused_hooks()
    for name in unused:
        print(f"warning: trace hook {name} was not called; its count is absent",
              file=sys.stderr)
    record = {"walls_s": {"untraced": wall_plain, "traced": wall_traced},
              "absent": sorted(set(tracer.absent) | set(unused)),
              "by_entry": tracer.by_entry(pass_rec["id"]),
              "per_call": tracer.per_call(pass_rec["id"]),
              "spans": tracer.spans}
    return metrics, [res_plain, res_traced], record


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "potkit" / "__init__.py").is_file():
        print(f"error: potkit sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    blas_threads = _cap_blas_threads()
    W, ctx, setup_main = _import_and_setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_main))
        return 0
    record = {"workload": args.workload, "seed": args.seed,
              "sampler_seeds": (W.seeds_for(args.seed) if args.workload == "mc-exit"
                                else None),
              "seconds": args.seconds, "trace": args.trace,
              "machine": _machine(blas_threads)}

    if args.trace:
        out_metrics, results, trace_record = _run_traced(W, args.workload, args.seed)
        record.update(trace_record)
    else:
        setups = [setup_main] + [_probe_setup(args.workload, args.seed)
                                 for _ in range(SETUP_PROBES)]
        walls, results = _run_plain(W, args.workload, ctx, args.seconds)
        out_metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rel_err": statistics.median(r.rel_err for r in results),
        }
        record.update({"walls_s": walls, "setups_s": setups})
    summary = _summarise(results)
    record.update(summary, metrics=out_metrics)
    units = _units()
    _write_record(record)
    result = {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
              "failed": summary["failed"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in out_metrics.items()}}
    print(json.dumps(result))
    return 0


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _write_record(record):
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    seed = "preset" if record["seed"] is None else record["seed"]
    path = out / (f"{record['workload']}-seed{seed}-trace{record['trace']}-"
                  f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1, default=float))
    print(f"record: {path.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
