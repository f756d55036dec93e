"""Bundled verification suite: one check per acceptance scenario.

Each check runs the CLI's computations on the shipped presets: the config
driver, and the CLI's own ``tail_curves`` (criteria 2-4) and
``maximal_check`` (criterion 13).  It returns a CriterionResult; the CLI
``verify`` subcommand and the acceptance test module both consume these,
and a failing check exits the CLI with status 2.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import cli
from .config import (build_eta, build_grid_operator, build_problem, build_rho,
                     build_solution, grid_widths)
from .discrete import assemble, discrete_green
from .envelope import harmonic_extension, reduite
from .geometry import Domain, GridField, build_grid
from .kernels import OperatorSpec, green
from .presets import STOCHASTIC_PRESETS, get_preset
from .reconstruct import (kink_integral, local_energy, reconstruct_mu_c, sigma,
                          theta_n)
from .stochastic import class_d_diagnostic, reducing_expectation

QUARTER_PI_INV = 1.0 / (4.0 * math.pi)      # <R^D rho, delta_0> on the unit disk
REDUCING_EXACT = 3.0 * math.log(2.0) / (8.0 * math.pi)


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: str
    runtime_s: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.cid:2d} ({self.name}): {self.details}"


def _preset_solution(name: str) -> tuple:
    """(config, domain, u) of a shipped preset."""
    cfg = get_preset(name)
    dom, op, mu = build_problem(cfg)
    return cfg, dom, build_solution(cfg, dom, op, mu)


def criterion_01() -> CriterionResult:
    """Discrete Green vs closed form on the interval; error and order."""
    t0 = time.time()
    cfg = get_preset("kernel-interval-order")
    dom, op, _ = build_problem(cfg)
    exact = green(op, dom, 0.25, 0.5)
    errs = []
    for h in grid_widths(cfg):
        dop = build_grid_operator(cfg, dom, op, h)
        col = discrete_green(dop, np.array([0.5]))
        errs.append(abs(col.values[dop.grid.nearest_node(0.25)] - exact))
    errs = np.asarray(errs)
    fine_ok = errs[-1] <= 5e-4
    if np.all(errs <= 1e-12):
        # the 1d three-point Green column is exact at the nodes, so the
        # errors sit at solver roundoff and the observed order is moot
        order_ok = True
        order_note = "exact at nodes (roundoff level)"
    else:
        orders = np.log2(errs[:-1] / errs[1:])
        order_ok = bool(np.all(orders >= 1.9))
        order_note = f"orders {np.round(orders, 2).tolist()}"
    dt = time.time() - t0
    passed = bool(fine_ok and order_ok and dt < 1.0)
    return CriterionResult(1, "kernel accuracy", passed,
                           f"errors {[f'{e:.2e}' for e in errs]}, {order_note}, "
                           f"runtime {dt:.2f}s", dt)


def criterion_02() -> CriterionResult:
    """Diffuse tails vanish exactly above the bounded potential's sup."""
    t0 = time.time()
    ok_parts, details = [], []
    for preset in ("tail-disk-density", "tail-interval-dirac"):
        [(_, tc)] = cli.tail_curves(get_preset(preset))
        zero = bool(np.all(tc.values == 0.0))
        ok_parts.append(zero and tc.verdict == "diffuse-like")
        details.append(f"{preset}: T={tc.values.tolist()} verdict={tc.verdict}")
    dt = time.time() - t0
    return CriterionResult(2, "tail functional, diffuse", all(ok_parts),
                           "; ".join(details), dt)


def criterion_03() -> CriterionResult:
    """Concentrated tail: disk Dirac within 10% at the finest grid, improving."""
    t0 = time.time()
    max_err = [float(np.max(np.abs(tc.values - QUARTER_PI_INV) / QUARTER_PI_INV))
               for _, tc in cli.tail_curves(get_preset("tail-disk-dirac"))]
    dt = time.time() - t0
    fine_ok = max_err[-1] <= 0.10
    monotone = bool(np.all(np.diff(max_err) < 0))
    passed = bool(fine_ok and monotone and dt < 300.0)
    return CriterionResult(3, "tail functional, concentrated", passed,
                           f"rel errs by grid {[f'{e:.3%}' for e in max_err]}, "
                           f"runtime {dt:.0f}s", dt)


def criterion_04() -> CriterionResult:
    """Mixed measure: tails nonincreasing, gap to the atom mass halves."""
    t0 = time.time()
    [(_, tc)] = cli.tail_curves(get_preset("tail-disk-mixed"))
    gaps = np.abs(tc.values - QUARTER_PI_INV)
    noninc = bool(np.all(np.diff(tc.values) <= 1e-8))
    halves = bool(gaps[-1] <= 0.5 * gaps[0])
    dt = time.time() - t0
    return CriterionResult(4, "tail functional, mixed", noninc and halves,
                           f"T={np.round(tc.values, 5).tolist()} gaps "
                           f"{np.round(gaps, 5).tolist()} nonincreasing={noninc} "
                           f"gap-halved={halves}", dt)


def criterion_05() -> CriterionResult:
    """Local window energy of the disk Dirac equals 1 within 1%."""
    t0 = time.time()
    cfg, dom, sol = _preset_solution("reconstruct-local-disk-dirac")
    eta = build_eta(cfg, dom)
    val = local_energy(sol, eta, 0.25)
    dt = time.time() - t0
    passed = bool(abs(val - 1.0) <= 0.01 and dt < 10.0)
    return CriterionResult(5, "local reconstruction", passed,
                           f"value {val:.6f} (target 1), runtime {dt:.2f}s", dt)


def criterion_06() -> CriterionResult:
    """Nonlocal window energy converges to the atom mass within 0.15."""
    t0 = time.time()
    cfg, dom, sol = _preset_solution("reconstruct-nonlocal-interval")
    eta = build_eta(cfg, dom)
    rep = reconstruct_mu_c(sol, eta, cfg["levels"],
                           rel_tol=cfg["tolerances"]["quad_rel"])
    val, trace = rep.values[-1], rep.traces[-1]      # the top level
    dt = time.time() - t0
    trace_ok = len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= 0.01 * abs(trace[-1])
    close = abs(val - 1.0) <= 0.15
    pref_ok = not rep.prefactor_flagged
    passed = bool(close and trace_ok and pref_ok and dt < 60.0)
    return CriterionResult(6, "nonlocal reconstruction", passed,
                           f"values {np.round(rep.values, 4).tolist()}, top level "
                           f"{val:.4f}, fitted prefactor {rep.fitted_prefactor:.4f} "
                           f"(flagged={rep.prefactor_flagged}), runtime {dt:.0f}s", dt)


def criterion_07() -> CriterionResult:
    """Window identity: kink quadrature vs (x-y)^2 sigma, 100 random pairs."""
    t0 = time.time()
    cfg = get_preset("window-identity")
    rng = np.random.default_rng(cfg["seed"])
    nwin = 1.0

    def smooth_indicator(a):
        # analytic logistic window ~ 1_[n, 2n]; tensor Gauss then converges
        # geometrically, which the 1e-8 budget needs
        a = np.asarray(a, dtype=float)
        w = 0.15 * nwin
        return (1.0 / (1.0 + np.exp(-(a - nwin) / w))
                * 1.0 / (1.0 + np.exp((a - 2.0 * nwin) / w)))

    fns = [np.ones_like, lambda a: np.asarray(a, dtype=float), smooth_indicator]
    worst = 0.0
    for _ in range(cfg["samples"]):
        x, y = rng.uniform(0.0, 4.0 * nwin, 2)
        for f in fns:
            lhs = kink_integral(lambda a, f=f: float(f(np.asarray(a))), x, y)
            rhs = (x - y) ** 2 * sigma(f, x, y, nodes=128)
            worst = max(worst, abs(lhs - rhs))
    dt = time.time() - t0
    return CriterionResult(7, "window identity", bool(worst <= 1e-8),
                           f"max |LHS - RHS| = {worst:.2e}", dt)


def criterion_08() -> CriterionResult:
    """Window clamp facts: exact in-window quadratic, exact flat zeros."""
    t0 = time.time()
    rng = np.random.default_rng(88)
    n = 1.0
    ok = True
    for _ in range(1000):
        x, y = rng.uniform(n, 2 * n, 2)
        ok &= theta_n(x, y, n) == 2.0 * (x - y) ** 2
        a, b = rng.uniform(0.0, n, 2)
        ok &= theta_n(a, b, n) == 0.0
        c, d = rng.uniform(2 * n, 5 * n, 2)
        ok &= theta_n(c, d, n) == 0.0
    dt = time.time() - t0
    return CriterionResult(8, "window clamp facts", bool(ok),
                           "exact on 1000 random samples" if ok else "mismatch",
                           dt)


def criterion_09() -> CriterionResult:
    """Projection algebra: restriction and nesting identities on a disk grid."""
    t0 = time.time()
    cfg = get_preset("grid-identities")
    dom, op, _ = build_problem(cfg)
    dop = build_grid_operator(cfg, dom, op)
    grid = dop.grid
    rng = np.random.default_rng(cfg["seed"])
    pts = grid.interior_points()
    worst = 0.0
    for _ in range(5):
        cw = pts[rng.integers(len(pts))]
        rw = rng.uniform(0.4, 0.9)
        rv = rng.uniform(0.15, 0.8) * rw
        W = np.linalg.norm(pts - cw, axis=1) < rw
        V = (np.linalg.norm(pts - cw, axis=1) < rv) & W
        if V.sum() < 8 or W.sum() - V.sum() < 8:
            V = W & (np.linalg.norm(pts - cw, axis=1) < 0.8 * rw)
        # nesting: extending from W then from V changes nothing
        gfun = np.cos(3.0 * pts[:, 0]) + pts[:, 1] ** 2
        g = GridField.from_interior(grid, gfun)
        hW = harmonic_extension(dop, W, g)
        hVW = harmonic_extension(dop, V, hW)
        worst = max(worst, float(np.max(np.abs(hVW.values - hW.values))))
        # restriction: potential solved on W minus its V-extension equals the
        # potential solved on V, for mass supported in V
        idxV, idxW = np.flatnonzero(V), np.flatnonzero(W)
        rhs = np.zeros(dop.n)
        rhs[idxV[rng.integers(len(idxV), size=3)]] = 1.0 / grid.cell_volume()
        uW = np.zeros(dop.n)
        uW[idxW] = dop.solve(rhs[idxW], on=idxW)
        hV = harmonic_extension(dop, V, GridField.from_interior(grid, uW))
        resid = (uW - hV.interior_values())[idxV] - dop.solve(rhs[idxV], on=idxV)
        worst = max(worst, float(np.max(np.abs(resid))))
    dt = time.time() - t0
    return CriterionResult(9, "grid identities", bool(worst <= 1e-9),
                           f"max residual {worst:.2e} over 5 nested pairs", dt)


def criterion_10() -> CriterionResult:
    """Envelope oracle: hitting-probability formula on 1d path graphs."""
    t0 = time.time()
    worst_val = 0.0
    worst_res = 0.0
    for N, j in ((40, 13), (64, 32), (100, 7)):
        grid = build_grid(Domain.interval(0.0, 1.0), 1.0 / N)
        dop = assemble(OperatorSpec.laplacian(), grid)
        obstacle = grid.new_field()
        obstacle[grid.nearest_node(j / N)] = 1.0
        res = reduite(dop, obstacle, tol=1e-13)
        i = np.arange(1, N)
        expect = np.minimum(i / j, (N - i) / (N - j))
        got = res.envelope.values[grid.interior_mask]
        worst_val = max(worst_val, float(np.max(np.abs(got - expect))))
        worst_res = max(worst_res, res.residual)
    dt = time.time() - t0
    passed = bool(worst_val <= 1e-10 and worst_res <= 1e-10)
    return CriterionResult(10, "reduite oracle", passed,
                           f"max value err {worst_val:.2e}, max complementarity "
                           f"residual {worst_res:.2e}", dt)


def criterion_11() -> CriterionResult:
    """Stopped expectation along the reducing family, disk Dirac benchmark."""
    t0 = time.time()
    cfg, dom, sol = _preset_solution("mc-reducing-disk")
    est = reducing_expectation(sol, k=cfg["k"], n=cfg["n"], start=cfg["start"],
                               n_samples=cfg["samples"], seed=cfg["seed"])
    dt = time.time() - t0
    dev = abs(est.value - REDUCING_EXACT)
    passed = bool(dev <= 3.0 * est.stderr and est.stderr < 0.002 and dt < 30.0)
    return CriterionResult(11, "reducing expectation MC", passed,
                           f"estimate {est.value:.5f} +- {est.stderr:.5f}, exact "
                           f"{REDUCING_EXACT:.5f} ({dev / est.stderr:.2f} sigma), "
                           f"runtime {dt:.1f}s", dt)


def criterion_12() -> CriterionResult:
    """Class-(D) verdicts for the bounded and Dirac presets."""
    t0 = time.time()
    details = []
    cfgb, domb, solb = _preset_solution("mc-classd-bounded")
    diagb = class_d_diagnostic(solb, cfgb["family"], cfgb["levels"],
                               rho=build_rho(cfgb, domb),
                               n_samples=cfgb["samples"], seed=cfgb["seed"])
    sup = solb.max_interior()
    above = diagb.levels > sup
    zeros = bool(np.all(diagb.estimates[above] == 0.0)) if above.any() else False
    ok_b = diagb.verdict == "class-D" and zeros
    details.append(f"bounded: verdict={diagb.verdict}, exact zeros above sup={zeros}")

    cfgd, domd, sold = _preset_solution("mc-classd-dirac")
    diagd = class_d_diagnostic(sold, cfgd["family"], cfgd["levels"],
                               rho=build_rho(cfgd, domd),
                               n_samples=cfgd["samples"], seed=cfgd["seed"],
                               target=QUARTER_PI_INV)
    dev = abs(diagd.limit_estimate - QUARTER_PI_INV)
    ok_d = diagd.verdict == "not-class-D" and dev <= 3.0 * diagd.limit_stderr
    details.append(f"dirac: verdict={diagd.verdict}, plateau "
                   f"{diagd.limit_estimate:.5f} +- {diagd.limit_stderr:.5f} vs "
                   f"{QUARTER_PI_INV:.5f} ({dev / diagd.limit_stderr:.2f} sigma)")
    dt = time.time() - t0
    return CriterionResult(12, "class-(D) verdicts", bool(ok_b and ok_d),
                           "; ".join(details), dt)


def criterion_13() -> CriterionResult:
    """Pathwise maximal inequality on both presets."""
    t0 = time.time()
    details, ok = [], True
    for preset in ("mc-maximal-bounded", "mc-maximal-interval-dirac"):
        est, _ = cli.maximal_check(get_preset(preset))
        ok &= est.extra["passed"]
        details.append(f"{preset}: E sup^0.5 = {est.value:.4f} vs bound "
                       f"{est.extra['bound']:.4f} (margin {est.extra['margin']:.4f})")
    dt = time.time() - t0
    return CriterionResult(13, "maximal inequality", bool(ok), "; ".join(details), dt)


def criterion_14() -> CriterionResult:
    """Determinism: byte-identical outputs across reruns and thread settings."""
    from .cli import main as cli_main
    t0 = time.time()
    mism = []
    with tempfile.TemporaryDirectory() as tmp:
        for preset in STOCHASTIC_PRESETS:
            outs = []
            for tag, threads in (("a", "1"), ("b", "1"), ("c", "8")):
                od = os.path.join(tmp, f"{preset}-{tag}")
                sub = ("reducing" if "reducing" in preset
                       else "classd" if "classd" in preset else "maximal")
                rc = cli_main(["mc", sub, "--preset", preset, "--out", od,
                               "--threads", threads, "--quiet"])
                if rc != 0:
                    mism.append(f"{preset}: exit {rc}")
                outs.append(od)
            ref = _read_outputs(outs[0])
            for other in outs[1:]:
                if _read_outputs(other) != ref:
                    mism.append(preset)
                    break
    dt = time.time() - t0
    passed = not mism
    return CriterionResult(14, "determinism", passed,
                           "all stochastic presets byte-identical across reruns "
                           "and thread counts" if passed else f"mismatch: {mism}",
                           dt)


def _read_outputs(out_dir: str) -> dict:
    blobs = {}
    for fn in sorted(os.listdir(out_dir)):
        if fn.endswith((".csv", ".json")):
            with open(os.path.join(out_dir, fn), "rb") as fh:
                blobs[fn] = fh.read()
    return blobs


ALL_CRITERIA = {
    1: criterion_01, 2: criterion_02, 3: criterion_03, 4: criterion_04,
    5: criterion_05, 6: criterion_06, 7: criterion_07, 8: criterion_08,
    9: criterion_09, 10: criterion_10, 11: criterion_11, 12: criterion_12,
    13: criterion_13, 14: criterion_14,
}


def run_criteria(ids=None, verbose: bool = True) -> list:
    results = []
    for cid in sorted(ids or ALL_CRITERIA):
        res = ALL_CRITERIA[cid]()
        results.append(res)
        if verbose:
            print(res.line(), flush=True)
    return results
