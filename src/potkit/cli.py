"""Command-line experiment runner.

Subcommands: solve, reduite, tail, reconstruct {local,nonlocal},
mc {classd,reducing,maximal}, verify, constants.  Configs come from
``--config PATH`` (YAML) or a shipped ``--preset NAME``; outputs are CSV +
JSON written atomically under ``--out`` (default: $POTKIT_OUT or
./potkit_out).  Exit codes: 0 success, 2 verdict failure, 1 error.

``--threads`` is accepted for interface compatibility and recorded nowhere:
all solvers and samplers are single-threaded by construction, so outputs
never depend on it.  No potkit computation calls BLAS (the solves and the
nonlocal functional take their products with ``np.einsum`` or by FFT), so
the size of the BLAS thread pool, set by the environment
(``OPENBLAS_NUM_THREADS``), reaches no result.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from .config import (build_eta, build_grid_operator, build_lattice, build_problem,
                     build_rho, build_solution, grid_widths, load_config,
                     validate_config)
from .envelope import (d1_norm, envelope_field, reduite, reduite_start, tail_curve,
                       tail_obstacle)
from .errors import ConfigError, PotkitError
from .kernels import constants_table
from .measures import total_variation
from .presets import get_preset
from .reconstruct import reconstruct_mu_c
from .reports import fmt, log_timing, run_report, write_csv, write_json
from .solve import l1_rho_norm
from .stochastic import (class_d_diagnostic, maximal_inequality_check,
                         reducing_expectation)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="potkit",
                                description="numerical potential theory toolkit")
    p.add_argument("--version", action="version", version=f"potkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, func):
        sp.set_defaults(func=func)
        sp.add_argument("--config", help="YAML experiment config")
        sp.add_argument("--preset", help="shipped preset name")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="seed override")
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; never affects results")
        sp.add_argument("--quiet", action="store_true")

    common(sub.add_parser("solve", help="integral solution u = R^D mu"), cmd_solve)
    common(sub.add_parser("reduite", help="envelope of (|u| - n)^+ at one level"),
           cmd_reduite)
    common(sub.add_parser("tail", help="tail functional curve and verdict"), cmd_tail)

    sp = sub.add_parser("reconstruct", help="window-energy reconstruction")
    sp.add_argument("mode", choices=["local", "nonlocal"])
    common(sp, cmd_reconstruct)

    sp = sub.add_parser("mc", help="Monte Carlo diagnostics")
    sp.add_argument("mode", choices=["classd", "reducing", "maximal"])
    common(sp, cmd_mc)

    sp = sub.add_parser("verify", help="run the bundled acceptance suite")
    sp.set_defaults(func=cmd_verify)
    sp.add_argument("--criteria", help="comma-separated criterion ids (default all)")
    sp.add_argument("--out", default=None)
    sp.add_argument("--quiet", action="store_true")

    sp = sub.add_parser("constants", help="print normalization constants")
    sp.set_defaults(func=cmd_constants)
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--dim", type=int, default=1)
    return p


def _load(args) -> dict:
    if args.config and args.preset:
        raise PotkitError("pass either --config or --preset, not both")
    if args.config:
        cfg = load_config(args.config)
    elif args.preset:
        cfg = get_preset(args.preset)
    else:
        raise PotkitError("one of --config or --preset is required")
    if args.seed is not None:
        cfg["seed"] = args.seed
    return validate_config(cfg)


def _out_dir(args) -> str:
    out = args.out or os.environ.get("POTKIT_OUT") or "potkit_out"
    os.makedirs(out, exist_ok=True)
    return out


def _prefix(cfg: dict) -> str:
    return cfg.get("output", {}).get("prefix", cfg.get("name", "run"))


def tail_curves(cfg: dict) -> list:
    """``potkit tail``'s [(h, TailCurve)], one per grid width of the config (or
    at diameter / 128), at its reduite tolerance; criteria 2-4 judge them."""
    dom, op, mu = build_problem(cfg)
    rho = build_rho(cfg, dom)
    levels = cfg.get("levels", [0.25, 0.5, 1.0])
    tol = cfg.get("tolerances", {}).get("reduite", 1e-10)
    curves = []
    for h in grid_widths(cfg) or [dom.diameter / 128.0]:
        dop = build_grid_operator(cfg, dom, op, h)
        sol = build_solution(cfg, dom, op, mu, dop)
        curves.append((h, tail_curve(sol, dop, rho, levels, tol=tol)))
    return curves


def maximal_check(cfg: dict) -> tuple:
    """``potkit mc maximal``'s (estimate, d1 norm of |u| on the finest grid)
    for E sup |u|^{1/2} <= 2 sqrt(d1); criterion 13 judges them."""
    dom, op, mu = build_problem(cfg)
    dop = build_grid_operator(cfg, dom, op)
    sol = build_solution(cfg, dom, op, mu, dop)
    rho = build_rho(cfg, dom)
    u_abs, _, _ = envelope_field(sol, dop)
    d1 = d1_norm(dop, u_abs, rho)
    est = maximal_inequality_check(sol, d1, rho=rho,
                                   n_samples=cfg.get("samples", 20000),
                                   seed=cfg["seed"])
    return est, d1


def cmd_solve(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    dom, op, mu = build_problem(cfg)
    rho = build_rho(cfg, dom)
    hs = grid_widths(cfg)
    grid = build_lattice(cfg, dom, hs[-1] if hs else dom.diameter / 64.0)
    sol = build_solution(cfg, dom, op, mu)
    if cfg.get("eval_points"):
        pts = np.asarray(cfg["eval_points"], dtype=float)
    else:
        pts = grid.interior_points()
    rows = np.column_stack([np.atleast_2d(pts), np.atleast_1d(sol.evaluate(pts))])
    # the summary comes first, so a run that cannot finish writes nothing
    summary = {
        "l1_rho_norm": l1_rho_norm(sol, rho(grid.interior_points()), grid),
        "total_variation": total_variation(mu, dom),
        "concentrated_atoms": len(sol.decomposition.concentrated.atoms),
        "closed_form": sol.closed,
    }
    header = [f"x{k}" for k in range(dom.dim)] + ["u"]
    prefix = _prefix(cfg)
    write_csv(os.path.join(out, f"{prefix}.csv"), header, rows,
              comments=["integral solution u(x); u = 0 off the domain",
                        "evaluation at a concentrated atom reports inf"])
    write_json(os.path.join(out, f"{prefix}.json"),
               run_report(cfg, summary, {}))
    if not args.quiet:
        print(f"wrote {prefix}.csv / {prefix}.json to {out}")
    return 0


def cmd_reduite(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    dom, op, mu = build_problem(cfg)
    dop = build_grid_operator(cfg, dom, op)
    sol = build_solution(cfg, dom, op, mu, dop)
    n = cfg.get("n", 1.0)
    field = envelope_field(sol, dop)
    g = tail_obstacle(field[0], field[1], n, dop.grid)
    res = reduite(dop, g, tol=cfg.get("tolerances", {}).get("reduite", 1e-10),
                  w0=reduite_start(g, field))
    rows = np.column_stack([dop.grid.interior_points(), res.envelope.interior_values()])
    prefix = _prefix(cfg)
    write_csv(os.path.join(out, f"{prefix}_envelope.csv"),
              [f"x{k}" for k in range(dom.dim)] + ["envelope"], rows,
              comments=[f"smallest excessive majorant of (|u| - {fmt(n)})^+"])
    write_json(os.path.join(out, f"{prefix}_envelope.json"), run_report(
        cfg, {"iterations": res.iterations, "omega": res.omega,
              "policy_steps": res.policy_steps,
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
    prefix = _prefix(cfg)
    curves = tail_curves(cfg)
    results = {fmt(h): {"levels": tc.levels, "values": tc.values,
                        "sweeps": tc.sweeps, "omega": tc.omega,
                        "policy_steps": tc.policy_steps,
                        "resolvable": tc.resolvable} for h, tc in curves}
    last = curves[-1][1]
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
    dom, op, mu = build_problem(cfg)
    if args.mode == "local" and not op.is_local:
        raise PotkitError("local reconstruction needs a local operator")
    if args.mode == "nonlocal" and op.is_local:
        raise PotkitError("nonlocal reconstruction needs the fractional operator")
    eta = build_eta(cfg, dom)
    sol = build_solution(cfg, dom, op, mu)
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
    report = run_report(cfg, {"levels": rep.levels, "values": rep.values,
                              "target": rep.target}, verdict)
    if rep.widths:
        # np.bool_ entries, which _jsonify writes as JSON booleans
        report["diagnostics"] = {"widths": rep.widths, "unknowns": rep.unknowns,
                                 "resolvable": list(rep.resolvable)}
    write_json(os.path.join(out, f"{prefix}.json"), report)
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
    needed = {"reducing": ("k", "n", "start"), "classd": ("family", "levels")}
    for key in ("seed",) + needed.get(args.mode, ()):
        if key not in cfg:
            raise ConfigError(f"config field '{key}': required for mc {args.mode}")
    prefix = _prefix(cfg)
    t0 = time.time()

    if args.mode == "maximal":
        est, d1 = maximal_check(cfg)
        rows = [(0.5, est.value, est.stderr)]
        verdict = {"passed": est.extra["passed"], "bound": est.extra["bound"],
                   "margin": est.extra["margin"], "d1_norm": d1}
        results = {"estimate": est.value, "stderr": est.stderr,
                   "draws": est.extra["draws"]}
    else:
        dom, op, mu = build_problem(cfg)
        sol = build_solution(cfg, dom, op, mu)
        rho = build_rho(cfg, dom)

    if args.mode == "reducing":
        est = reducing_expectation(sol, k=cfg["k"], n=cfg["n"],
                                   start=cfg["start"],
                                   n_samples=cfg.get("samples", 10**5),
                                   seed=cfg["seed"])
        rows = [(cfg["n"], est.value, est.stderr)]
        verdict = {"frac_stopped_before_exit":
                   est.extra["frac_stopped_before_exit"]}
        results = {"k": cfg["k"], "n": cfg["n"], "estimate": est.value,
                   "stderr": est.stderr, "draws": est.extra["draws"]}
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
                   "table": diag.table, "draws": diag.draws}

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
    from .verify import ALL_CRITERIA, run_criteria
    tokens = args.criteria.split(",") if args.criteria else []
    for token in tokens:
        if not (token.strip().isdecimal() and int(token) in ALL_CRITERIA):
            raise PotkitError(f"--criteria: {token!r} is not a criterion id; ids run "
                              f"from {min(ALL_CRITERIA)} to {max(ALL_CRITERIA)}")
    out = _out_dir(args)
    results = run_criteria([int(t) for t in tokens] or None, verbose=not args.quiet)
    write_json(os.path.join(out, "verify_report.json"), {
        "results": [{"cid": r.cid, "name": r.name, "passed": r.passed,
                     "details": r.details, "runtime_s": round(r.runtime_s, 2)}
                    for r in results],
        "all_passed": all(r.passed for r in results),
    })
    return 0 if all(r.passed for r in results) else 2


def cmd_constants(args) -> int:
    if not 0.0 < args.alpha < 2.0:          # as OperatorSpec.fractional
        raise PotkitError(f"--alpha: {args.alpha} lies outside (0, 2)")
    if not 1 <= args.dim <= 3:              # as Domain.ball
        raise PotkitError(f"--dim: {args.dim} lies outside 1..3")
    table = constants_table(alpha=args.alpha, d=args.dim)
    for key, val in table.items():
        print(f"{key:24s} {fmt(val)}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except PotkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
