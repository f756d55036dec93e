"""Command-line experiment runner.

Subcommands: solve, reduite, tail, reconstruct {local,nonlocal},
mc {classd,reducing,maximal}, verify, constants.  Configs come from
``--config PATH`` (YAML) or a shipped ``--preset NAME``; outputs are CSV +
JSON written atomically under ``--out`` (default: $POTKIT_OUT or
./potkit_out).  Exit codes: 0 success, 2 verdict failure, 1 error.

``--threads`` is accepted for interface compatibility and recorded nowhere:
all solvers and samplers are single-threaded by construction, so outputs
never depend on it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from .config import (build_domain, build_eta, build_measure, build_operator,
                     build_rho, grid_widths, load_config, validate_config)
from .discrete import assemble
from .envelope import d1_norm, envelope_field, reduite, tail_curve, tail_obstacle
from .errors import PotkitError
from .geometry import build_grid
from .kernels import constants_table
from .measures import total_variation
from .presets import get_preset
from .reconstruct import reconstruct_mu_c
from .reports import fmt, log_timing, run_report, write_csv, write_json
from .solve import closed_form_supported, integral_solution, l1_rho_norm
from .stochastic import (class_d_diagnostic, maximal_inequality_check,
                         reducing_expectation)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="potkit",
                                description="numerical potential theory toolkit")
    p.add_argument("--version", action="version", version=f"potkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="YAML experiment config")
        sp.add_argument("--preset", help="shipped preset name")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="seed override")
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; never affects results")
        sp.add_argument("--quiet", action="store_true")

    common(sub.add_parser("solve", help="integral solution u = R^D mu"))
    common(sub.add_parser("reduite", help="envelope of (|u| - n)^+ at one level"))
    common(sub.add_parser("tail", help="tail functional curve and verdict"))

    sp = sub.add_parser("reconstruct", help="window-energy reconstruction")
    sp.add_argument("mode", choices=["local", "nonlocal"])
    common(sp)

    sp = sub.add_parser("mc", help="Monte Carlo diagnostics")
    sp.add_argument("mode", choices=["classd", "reducing", "maximal"])
    common(sp)

    sp = sub.add_parser("verify", help="run the bundled acceptance suite")
    sp.add_argument("--criteria", help="comma-separated criterion ids (default all)")
    sp.add_argument("--out", default=None)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--quiet", action="store_true")

    sp = sub.add_parser("constants", help="print normalization constants")
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--dim", type=int, default=1)
    return p


def _load(args) -> dict:
    if args.config and args.preset:
        raise PotkitError("pass either --config or --preset, not both")
    if args.config:
        cfg = load_config(args.config)
    elif args.preset:
        cfg = validate_config(get_preset(args.preset))
    else:
        raise PotkitError("one of --config or --preset is required")
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _out_dir(args) -> str:
    out = args.out or os.environ.get("POTKIT_OUT") or "potkit_out"
    os.makedirs(out, exist_ok=True)
    return out


def _prefix(cfg: dict) -> str:
    return cfg.get("output", {}).get("prefix", cfg.get("name", "run"))


def _build_all(cfg):
    dom = build_domain(cfg)
    op = build_operator(cfg)
    mu = build_measure(cfg, dom)
    return dom, op, mu


def _grid_operator(cfg, dom, op, h=None):
    hs = grid_widths(cfg)
    if h is None:
        if not hs:
            raise PotkitError("config needs grid.h (or grid.h_list)")
        h = hs[-1]
    return assemble(op, build_grid(dom, h, cfg.get("grid", {}).get(
        "node_cap", 10**7)))


def cmd_solve(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    dom, op, mu = _build_all(cfg)
    hs = grid_widths(cfg)
    grid = build_grid(dom, hs[-1] if hs else dom.diameter / 64.0)
    needs_grid = hs and not closed_form_supported(op, dom, mu)
    sol = integral_solution(op, dom, mu, grid=grid if needs_grid else None)
    if cfg.get("eval_points"):
        pts = np.asarray(cfg["eval_points"], dtype=float)
    else:
        pts = grid.interior_points()
    vals = np.atleast_1d(sol.evaluate(pts))
    rows = [tuple(p) + (v,) for p, v in zip(np.atleast_2d(pts), vals)]
    header = [f"x{k}" for k in range(dom.dim)] + ["u"]
    prefix = _prefix(cfg)
    write_csv(os.path.join(out, f"{prefix}.csv"), header, rows,
              comments=["integral solution u(x); u = 0 off the domain",
                        "evaluation at a concentrated atom reports inf"])
    rho = build_rho(cfg, dom)
    summary = {
        "l1_rho_norm": l1_rho_norm(sol, rho(grid.interior_points()), grid),
        "total_variation": total_variation(mu, dom),
        "concentrated_atoms": len(sol.decomposition.concentrated.atoms),
        "closed_form": sol.closed,
    }
    write_json(os.path.join(out, f"{prefix}.json"),
               run_report(cfg, summary, {}))
    if not args.quiet:
        print(f"wrote {prefix}.csv / {prefix}.json to {out}")
    return 0


def cmd_reduite(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    dom, op, mu = _build_all(cfg)
    sol = integral_solution(op, dom, mu)
    dop = _grid_operator(cfg, dom, op)
    n = cfg.get("n", 1.0)
    u_abs, atom_nodes, _ = envelope_field(sol, dop)
    tol = cfg.get("tolerances", {}).get("reduite", 1e-10)
    res = reduite(dop, tail_obstacle(u_abs, atom_nodes, n, dop.grid), tol=tol)
    pts = dop.grid.interior_points()
    env = res.envelope.interior_values()
    rows = [tuple(p) + (v,) for p, v in zip(pts, env)]
    prefix = _prefix(cfg)
    write_csv(os.path.join(out, f"{prefix}_envelope.csv"),
              [f"x{k}" for k in range(dom.dim)] + ["envelope"], rows,
              comments=[f"smallest excessive majorant of (|u| - {fmt(n)})^+"])
    write_json(os.path.join(out, f"{prefix}_envelope.json"), run_report(
        cfg, {"iterations": res.iterations, "policy_steps": res.policy_steps,
              "residual": res.residual,
              "continuation_nodes": int(res.continuation.sum())}, {}))
    if not args.quiet:
        print(f"envelope solved in {res.iterations} sweeps, "
              f"{res.policy_steps} policy steps, residual {res.residual:.2e}")
    return 0


def cmd_tail(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    t0 = time.time()
    dom, op, mu = _build_all(cfg)
    sol = integral_solution(op, dom, mu)
    rho = build_rho(cfg, dom)
    levels = cfg.get("levels", [0.25, 0.5, 1.0])
    prefix = _prefix(cfg)
    results = {}
    last = None
    for h in grid_widths(cfg) or [dom.diameter / 128.0]:
        dop = _grid_operator(cfg, dom, op, h=h)
        tc = tail_curve(sol, dop, rho, levels,
                        tol=cfg.get("tolerances", {}).get("reduite", 1e-10))
        results[fmt(h)] = {"levels": tc.levels, "values": tc.values,
                           "resolvable": tc.resolvable}
        last = tc
    rows = [(n, v, int(r)) for n, v, r in
            zip(last.levels, last.values, last.resolvable)]
    write_csv(os.path.join(out, f"{prefix}.csv"), ["n", "T_n", "resolvable"], rows,
              comments=["tail functional T_n = weighted mass of the envelope of "
                        "(|u| - n)^+ (finest grid)",
                        "resolvable: level below the obstacle one cell off the atom"])
    verdict = {"verdict": last.verdict, "limit_estimate": last.limit_estimate,
               "target": last.target}
    write_json(os.path.join(out, f"{prefix}.json"),
               run_report(cfg, results, verdict))
    log_timing(out, f"tail:{prefix}", time.time() - t0)
    if not args.quiet:
        print(f"tail verdict: {last.verdict} (limit {last.limit_estimate:.6g}, "
              f"target {last.target:.6g})")
    return 0


def cmd_reconstruct(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    dom, op, mu = _build_all(cfg)
    if args.mode == "local" and not op.is_local:
        raise PotkitError("local reconstruction needs a local operator")
    if args.mode == "nonlocal" and op.is_local:
        raise PotkitError("nonlocal reconstruction needs the fractional operator")
    sol = integral_solution(op, dom, mu)
    eta = build_eta(cfg, dom)
    levels = cfg.get("levels", [0.25, 0.5])
    rep = reconstruct_mu_c(sol, eta, levels,
                           rel_tol=cfg.get("tolerances", {}).get("quad_rel", 0.01))
    rows = [(n, v, rep.target, e) for n, v, e in
            zip(rep.levels, rep.values, rep.rel_errors)]
    prefix = _prefix(cfg)
    write_csv(os.path.join(out, f"{prefix}.csv"),
              ["n", "value", "target", "rel_error"], rows,
              comments=[f"{rep.kind} window-energy reconstruction of the "
                        "positive concentrated mass"])
    verdict = {"fitted_prefactor": rep.fitted_prefactor,
               "prefactor_flagged": rep.prefactor_flagged}
    write_json(os.path.join(out, f"{prefix}.json"), run_report(
        cfg, {"levels": rep.levels, "values": rep.values,
              "target": rep.target}, verdict))
    if not args.quiet:
        print(f"{rep.kind} reconstruction: values "
              f"{np.round(rep.values, 4).tolist()} target {rep.target:.4g} "
              f"prefactor {rep.fitted_prefactor:.4f}")
    if rep.prefactor_flagged and not args.quiet:
        print("WARNING: fitted prefactor deviates from 1 by more than 10%; "
              "this is a finding, not a normalization")
    return 0


def cmd_mc(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    if "seed" not in cfg:
        raise PotkitError("stochastic runs require a seed in the config")
    dom, op, mu = _build_all(cfg)
    sol = integral_solution(op, dom, mu)
    rho = build_rho(cfg, dom)
    prefix = _prefix(cfg)
    t0 = time.time()

    if args.mode == "reducing":
        est = reducing_expectation(sol, k=cfg["k"], n=cfg["n"],
                                   start=cfg["start"],
                                   n_samples=cfg.get("samples", 10**5),
                                   seed=cfg["seed"])
        rows = [(cfg["n"], est.value, est.stderr)]
        verdict = {"frac_stopped_before_exit":
                   est.extra["frac_stopped_before_exit"]}
        results = {"k": cfg["k"], "n": cfg["n"], "estimate": est.value,
                   "stderr": est.stderr,
                   "walk_iterations": est.extra["walk_iterations"],
                   "path_steps": est.extra["path_steps"]}
    elif args.mode == "classd":
        diag = class_d_diagnostic(sol, cfg["family"], cfg["levels"], rho=rho,
                                  n_samples=cfg.get("samples", 30000),
                                  seed=cfg["seed"])
        rows = [(n, e, s) for n, e, s in
                zip(diag.levels, diag.estimates, diag.stderrs)]
        verdict = {"verdict": diag.verdict,
                   "limit_estimate": diag.limit_estimate,
                   "limit_stderr": diag.limit_stderr,
                   "limit_basis": diag.limit_basis}
        results = {"levels": diag.levels, "estimates": diag.estimates,
                   "stderrs": diag.stderrs, "family": diag.family,
                   "table": diag.table, "walk_iterations": diag.walk_iterations,
                   "path_steps": diag.path_steps}
    else:
        dop = _grid_operator(cfg, dom, op)
        u_abs, _, _ = envelope_field(sol, dop)
        d1 = d1_norm(dop, u_abs, rho(dop.grid.interior_points()))
        est = maximal_inequality_check(sol, d1, rho=rho,
                                       n_samples=cfg.get("samples", 20000),
                                       seed=cfg["seed"])
        rows = [(0.5, est.value, est.stderr)]
        verdict = {"passed": est.extra["passed"], "bound": est.extra["bound"],
                   "margin": est.extra["margin"], "d1_norm": d1}
        results = {"estimate": est.value, "stderr": est.stderr,
                   "walk_iterations": est.extra["walk_iterations"],
                   "path_steps": est.extra["path_steps"]}

    write_csv(os.path.join(out, f"{prefix}.csv"),
              ["level", "estimate", "stderr"], rows,
              comments=[f"mc {args.mode}; seed {cfg['seed']}"])
    write_json(os.path.join(out, f"{prefix}.json"),
               run_report(cfg, results, verdict))
    log_timing(out, f"mc-{args.mode}:{prefix}", time.time() - t0)
    if not args.quiet:
        print(f"mc {args.mode}: {verdict}")
    if args.mode == "maximal" and not est.extra["passed"]:
        return 2
    return 0


def cmd_verify(args) -> int:
    from .verify import run_criteria
    out = _out_dir(args)
    ids = None
    if args.criteria:
        ids = [int(t) for t in args.criteria.split(",")]
    results = run_criteria(ids, verbose=not args.quiet)
    write_json(os.path.join(out, "verify_report.json"), {
        "results": [{"cid": r.cid, "name": r.name, "passed": r.passed,
                     "details": r.details, "runtime_s": round(r.runtime_s, 2)}
                    for r in results],
        "all_passed": all(r.passed for r in results),
    })
    return 0 if all(r.passed for r in results) else 2


def cmd_constants(args) -> int:
    table = constants_table(alpha=args.alpha, d=args.dim)
    for key, val in table.items():
        print(f"{key:24s} {fmt(val)}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "reduite":
            return cmd_reduite(args)
        if args.command == "tail":
            return cmd_tail(args)
        if args.command == "reconstruct":
            return cmd_reconstruct(args)
        if args.command == "mc":
            return cmd_mc(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "constants":
            return cmd_constants(args)
        raise PotkitError(f"unknown command {args.command}")
    except PotkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
