"""The four benchmark workloads, run through potkit's public Python API.

Each workload has a set-up step (``import potkit`` happens when this module
is imported, then preset validation, the ``build_domain/operator/measure``
calls and the closed-form ``integral_solution``) and a pass: one full
workload operation whose outputs are checked at the acceptance suite's
tolerances.

Layer entry points are always looked up as module attributes at call time
(``envelope.tail_curve``, not a name bound at import) so that the traced run
can wrap them from outside without editing potkit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from potkit import config, discrete, envelope, geometry, reconstruct, solve, stochastic
from potkit.geometry import Domain
from potkit.presets import get_preset

QUARTER_PI_INV = 1.0 / (4.0 * math.pi)          # <R^D rho, delta_0>, unit disk
REDUCING_EXACT = 3.0 * math.log(2.0) / (8.0 * math.pi)
DISK_DENSITY_D1 = 1.0 / 8.0                     # <(1 - r^2)/4, 1/pi> on the unit disk

# seeds of the shipped presets and of the tier-1 stable-exit test; used when
# the benchmark is given no --seed
DEFAULT_SEEDS = {"reducing": 20240817, "classd": 7141, "maximal": 99, "stable": 31}

# seconds per pass measured on the reference machine (bench/NOTES.md); a run
# of --seconds S makes round(S / PASS_SECONDS) passes, so that two commits
# compared with the same S do the same number of passes
PASS_SECONDS = {"disk-dirac-cg": 9.5, "disk-mixed-psor": 6.0, "mc-exit": 14.5,
                "interval-fractional": 9.5}


@dataclass
class PassResult:
    """Outcome of one workload pass."""

    checks: dict                  # check name -> bool
    rel_err: float                # deterministic accuracy vs a closed form
    outputs: list                 # numeric outputs, hashed into the digest
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for arr in self.outputs:
            h.update(np.ascontiguousarray(np.asarray(arr, dtype=np.float64)).tobytes())
        return h.hexdigest()


def _preset_solution(name: str):
    cfg = config.validate_config(get_preset(name))
    dom = config.build_domain(cfg)
    op = config.build_operator(cfg)
    mu = config.build_measure(cfg, dom)
    sol = solve.integral_solution(op, dom, mu)
    return cfg, dom, op, sol


def _assemble(dom, op, h):
    return discrete.assemble(op, geometry.build_grid(dom, h))


# -- disk-dirac-cg --------------------------------------------------------------

def _setup_disk_dirac(seeds):
    cfg, dom, op, sol = _preset_solution("tail-disk-dirac")
    return {"cfg": cfg, "dom": dom, "op": op, "sol": sol,
            "rho": config.build_rho(cfg, dom), "h": 2.0**-8}


def _pass_disk_dirac(ctx) -> PassResult:
    dop = _assemble(ctx["dom"], ctx["op"], ctx["h"])
    tc = envelope.tail_curve(ctx["sol"], dop, ctx["rho"], ctx["cfg"]["levels"], tol=1e-9)
    rel = float(np.max(np.abs(tc.values - QUARTER_PI_INV)) / QUARTER_PI_INV)
    return PassResult(checks={"rel_err<=10%": rel <= 0.10},
                      rel_err=rel, outputs=[tc.values, [tc.target]],
                      info={"T": tc.values.tolist(), "unknowns": dop.n})


# -- disk-mixed-psor ------------------------------------------------------------

def _setup_disk_mixed(seeds):
    cfg, dom, op, sol = _preset_solution("tail-disk-mixed")
    return {"cfg": cfg, "dom": dom, "op": op, "sol": sol,
            "rho": config.build_rho(cfg, dom), "h": config.grid_widths(cfg)[0]}


def _pass_disk_mixed(ctx) -> PassResult:
    dop = _assemble(ctx["dom"], ctx["op"], ctx["h"])
    tc = envelope.tail_curve(ctx["sol"], dop, ctx["rho"], ctx["cfg"]["levels"], tol=1e-9)
    gaps = np.abs(tc.values - QUARTER_PI_INV)
    # accuracy of the discrete <R^D rho, delta_0> the tail curve is judged against
    rel = abs(tc.target - QUARTER_PI_INV) / QUARTER_PI_INV
    return PassResult(
        checks={"T nonincreasing": bool(np.all(np.diff(tc.values) <= 1e-8)),
                "gap halves": bool(gaps[-1] <= 0.5 * gaps[0])},
        rel_err=rel, outputs=[tc.values, [tc.target]],
        info={"T": tc.values.tolist(), "unknowns": dop.n})


# -- mc-exit --------------------------------------------------------------------

def _setup_mc_exit(seeds):
    ctx = {"seeds": seeds}
    for key, preset in (("reducing", "mc-reducing-disk"), ("classd", "mc-classd-dirac"),
                        ("maximal", "mc-maximal-bounded")):
        cfg, dom, op, sol = _preset_solution(preset)
        ctx[key] = {"cfg": cfg, "dom": dom, "op": op, "sol": sol,
                    "rho": config.build_rho(cfg, dom)}
    ctx["stable_dom"] = Domain.interval(-1.0, 1.0)
    return ctx


def _pass_mc_exit(ctx) -> PassResult:
    seeds = ctx["seeds"]
    r = ctx["reducing"]
    cfg = r["cfg"]
    red = stochastic.reducing_expectation(r["sol"], k=cfg["k"], n=cfg["n"],
                                          start=cfg["start"], n_samples=cfg["samples"],
                                          seed=seeds["reducing"])
    c = ctx["classd"]
    cfg = c["cfg"]
    cd = stochastic.class_d_diagnostic(c["sol"], cfg["family"], cfg["levels"],
                                       rho=c["rho"], n_samples=cfg["samples"],
                                       seed=seeds["classd"], target=QUARTER_PI_INV)
    m = ctx["maximal"]
    cfg = m["cfg"]
    dop = _assemble(m["dom"], m["op"], config.grid_widths(cfg)[0])
    u_abs, _, _ = envelope.envelope_field(m["sol"], dop)
    d1 = envelope.d1_norm(dop, u_abs, m["rho"](dop.grid.interior_points()))
    mx = stochastic.maximal_inequality_check(m["sol"], d1, rho=m["rho"],
                                             n_samples=cfg["samples"],
                                             seed=seeds["maximal"])
    z = stochastic.stable_exit(ctx["stable_dom"], [0.0], alpha=0.5, dt=1e-3,
                               seed=seeds["stable"], n_samples=20_000)
    return PassResult(
        checks={
            "reducing within 3 sigma": abs(red.value - REDUCING_EXACT) <= 3.0 * red.stderr,
            "reducing stderr < 0.002": red.stderr < 0.002,
            "class-D plateau within 3 sigma":
                abs(cd.limit_estimate - QUARTER_PI_INV) <= 3.0 * cd.limit_stderr,
            "verdict not-class-D": cd.verdict == "not-class-D",
            "maximal passed": bool(mx.extra["passed"]),
            "stable landings |z| >= 1": bool(np.all(np.abs(z[:, 0]) >= 1.0)),
        },
        # the seed-independent part: the d1 norm of the bounded disk potential
        # (1 - r^2)/4, which is excessive, so its envelope is itself
        rel_err=abs(d1 - DISK_DENSITY_D1) / DISK_DENSITY_D1,
        outputs=[[red.value, red.stderr], cd.table, [cd.limit_estimate, cd.limit_stderr],
                 [d1, mx.value, mx.stderr], z],
        info={"reducing": [red.value, red.stderr],
              "classd_plateau": [cd.limit_estimate, cd.limit_stderr],
              "d1": d1, "maximal": [mx.value, mx.extra["bound"]]})


# -- interval-fractional --------------------------------------------------------

def _setup_interval_fractional(seeds):
    cfg, dom, op, sol = _preset_solution("reconstruct-nonlocal-interval")
    return {"cfg": cfg, "dom": dom, "op": op, "sol": sol,
            "eta": config.build_eta(cfg, dom), "h": 2.0**-10, "n": 1.0}


def _pass_interval_fractional(ctx) -> PassResult:
    cfg = ctx["cfg"]
    rep = reconstruct.reconstruct_mu_c(ctx["sol"], ctx["eta"], cfg["levels"],
                                       rel_tol=cfg["tolerances"]["quad_rel"])
    top = float(rep.values[-1])
    # the CLI `reduite` path: obstacle (|u| - n)^+ enriched at the atom node,
    # no warm start, default tolerance
    dop = _assemble(ctx["dom"], ctx["op"], ctx["h"])
    u_abs, atom_nodes, _ = envelope.envelope_field(ctx["sol"], dop)
    g = np.maximum(u_abs - ctx["n"], 0.0)
    for node in atom_nodes:
        g[node] = u_abs[node]
    g = np.where(dop.grid.interior_mask, g, 0.0)
    res = envelope.reduite(dop, g, tol=1e-10)
    inside = dop.grid.interior_mask
    return PassResult(
        checks={"top level within 0.15 of 1": abs(top - 1.0) <= 0.15,
                "prefactor not flagged": not rep.prefactor_flagged,
                "reduite residual <= 1e-9": res.residual <= 1e-9,
                "envelope >= obstacle": bool(np.all(res.envelope.values[inside]
                                                    >= g[inside]))},
        rel_err=abs(top - 1.0),
        outputs=[rep.values, [rep.fitted_prefactor], res.envelope.values,
                 [res.residual, res.iterations]],
        info={"values": rep.values.tolist(), "value_iterations": res.iterations})


WORKLOADS = {
    "disk-dirac-cg": (_setup_disk_dirac, _pass_disk_dirac),
    "disk-mixed-psor": (_setup_disk_mixed, _pass_disk_mixed),
    "mc-exit": (_setup_mc_exit, _pass_mc_exit),
    "interval-fractional": (_setup_interval_fractional, _pass_interval_fractional),
}


def seeds_for(seed) -> dict:
    """Sampler seeds: the preset seeds by default, else the given seed for
    every sampler (passed to potkit only through its public ``seed=``)."""
    if seed is None:
        return dict(DEFAULT_SEEDS)
    return {k: int(seed) for k in DEFAULT_SEEDS}


def setup(name: str, seed=None):
    return WORKLOADS[name][0](seeds_for(seed))


def run_pass(name: str, ctx) -> PassResult:
    return WORKLOADS[name][1](ctx)

