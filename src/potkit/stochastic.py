"""Exit-time Monte Carlo: exact stable-process exits by ball jumps,
reducing-family stopped expectations, class-(D) uniform-integrability
diagnostics, and the pathwise maximal inequality.

Stable exits jump from the centre of the largest ball inside D to an exact
draw from that ball's Blumenthal-Getoor-Ray exit law until they land outside
D, so they carry no time-step bias; ``stable_exit`` ignores a ``dt``.  It is
the one walk in this module.

The Brownian estimators walk nothing, and are exact or refuse: whether
Brownian motion from x reaches the level sphere |x - c| = r_k before the
boundary |x - c| = R is a Bernoulli variable with the closed-form parameter
of the radial harmonic function phi (log r if d = 2, else -r^(2-d)), so each
walker that starts outside the level ball costs one uniform draw, however
small r_k is.  The same hit law gives the smallest radius a path reaches, so
the maximal inequality draws its path supremum exactly, one uniform per
start, where u is radial and nonincreasing in r.  One rule,
``_radial_profile``, serves all three: a closed-form Laplacian solution on
a ball or interval whose measure is radial and nonnegative.  Any other
solution (a signed or off-centre measure, a grid solution, a rectangle,
another operator) raises SupportError before any draw.

Determinism: every sampler takes a seed (an int, or a Generator to draw
from) and drives a single PCG64 stream through vectorized draws, so
identical (seed, config) reproduce results bit-for-bit; worker/thread
counts never enter the samplers.

Brownian clock: the generator is the full Laplacian, i.e. variance-2t paths.
Only stopped positions are consumed and exit laws are invariant under the
deterministic time change, so samplers use standard Brownian scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError, DimensionMismatchError, SupportError
from .geometry import Domain
from .solve import Solution, level_radius

_WOS_MAX_ITERS = 100_000  # stable-walk iteration budget


def _unit_directions(rng, n: int, d: int) -> np.ndarray:
    if d == 1:
        return rng.choice([-1.0, 1.0], size=(n, 1))
    z = rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# radial level sets and the reducing family
# ---------------------------------------------------------------------------

def _radial_profile(solution: Solution):
    """(ball, profile radii -> u): the one support rule of the three Brownian
    estimators.  It serves a closed-form Laplacian solution on a ball or
    interval (the 1d ball) whose measure is radial about the center (atoms
    at the center, a radial density) and nonnegative, where u >= 0 is
    radial and nonincreasing in r = |x - c|, so {u > k} is a ball and the
    exit and hit laws are exact; SupportError naming that rule otherwise."""
    mu, dom = solution.measure, solution.dom
    ball = None if dom.kind == "rectangle" else dom.as_ball()
    center = None if ball is None else np.asarray(ball.center)
    if not (solution.op.kind == "laplacian" and solution.closed and ball is not None
            and all(np.allclose(p, center) and w >= 0.0 for p, w in mu.atoms)
            and (mu.density is None or (mu.density.is_radial_about(center)
                                        and mu.density.value >= 0.0))):
        raise SupportError(
            "the Brownian estimators draw the exit and the path supremum exactly only "
            "for a closed-form laplacian solution on a ball or interval whose measure "
            "is radial (atoms at the center, a radial density) and nonnegative, not a "
            f"{'closed-form' if solution.closed else 'grid'} solution of the "
            f"{solution.op.kind} operator on this {dom.kind}")
    axis = np.eye(ball.dim)[0]
    return ball, lambda r: solution.evaluate(center + np.outer(r, axis))


def stopped_values(solution: Solution, k: float, x0: np.ndarray, rng):
    """u(X_{tau_k}) for the reducing time tau_k = exit of {R^D|mu| <= k}, and
    the number of uniform draws the exit law consumed.

    On a ball or interval of centre c and radius R, with {u > k} the ball of
    radius r_k about c, a start x outside it reaches the level sphere before
    the boundary with probability (phi(R) - phi(|x - c|)) / (phi(R) - phi(r_k))
    (Morters & Peres, Brownian Motion, Thm 3.18), phi = log r in d = 2 and
    -r^(2-d) otherwise, and stops there at u = k, else at the boundary value
    0: one draw per such start, in index order.  A start inside the level
    ball stops at once (tau_k = 0) with u(x0) and draws nothing.
    """
    ball, profile = _radial_profile(solution)
    R = ball.radius
    r_k = float(level_radius(profile, [R], k)[0])
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    if r_k <= 0.0:
        return np.zeros(x0.shape[0]), 0
    r0 = np.linalg.norm(x0 - np.asarray(ball.center), axis=1)
    inside = r0 < r_k
    vals = np.zeros(r0.size)
    if inside.any():
        vals[inside] = solution.evaluate(x0[inside])
    phi = np.log if ball.dim == 2 else (lambda r: -np.power(r, 2.0 - ball.dim))
    p = (phi(R) - phi(r0[~inside])) / (phi(R) - phi(r_k))
    vals[~inside] = np.where(rng.random(p.size) < p, k, 0.0)
    return vals, int(p.size)


# ---------------------------------------------------------------------------
# stable-process exits
# ---------------------------------------------------------------------------

def stable_exit(dom: Domain, x, alpha: float, dt: Optional[float] = None,
                seed=0, n_samples: Optional[int] = None) -> np.ndarray:
    """Landing points X_{tau_D} (in the complement) of the symmetric
    alpha-stable process leaving D, 0 < alpha < 2.

    Walk-on-spheres for the fractional Laplacian (Kyprianou, Osojnik &
    Shardlow 2018): from x, with rho the distance to the boundary, jump to
    x + rho T^(-1/2) Theta, T ~ Beta(alpha/2, 1 - alpha/2) and Theta a
    uniform direction; that is an exact draw from the exit law of the ball
    B(x, rho) from its centre (Blumenthal, Getoor & Ray 1961), the law of
    ``kernels.poisson_kernel``.  The first point outside D is therefore
    X_{tau_D} exactly.  In 1-d a jump toward the nearer edge always exits.
    ``seed`` is an int or a Generator to draw from.  ``n_samples`` repeats
    a single start that many times; with more than one start it raises
    SupportError.

    For small alpha a Beta draw can underflow to T = 0, whose jump is
    infinite (alpha = 0.01 gives hundreds in 20,000 walkers from 0.5 on
    (-1, 1)); the walk then raises SupportError naming alpha.

    ``dt`` is accepted and ignored: the walk has no time step.  It stays in
    the signature for callers that still pass one, and they get the same
    landings as without it.

    The walk measures its balls by ``Domain.distance_to_boundary``, which
    ignores a rectangle's mask, so a masked rectangle raises SupportError.
    Each iteration drops the landed walkers from an index array kept in
    order, so a jump's draws have the order and size a full-width mask would
    give; a walker still inside after the last of ``_WOS_MAX_ITERS`` jumps
    raises ConvergenceError, which counts only those walkers.
    """
    if not 0.0 < alpha < 2.0:
        raise SupportError(f"stable exits need 0 < alpha < 2, got alpha={alpha}")
    if dom.mask is not None:
        raise SupportError("stable_exit does not support a masked rectangle: its "
                           "distance to the boundary ignores the mask")
    cur = np.array(x, dtype=float, ndmin=2)
    if n_samples is not None:
        if cur.shape[0] != 1:
            raise SupportError(f"n_samples={n_samples} repeats one start, but "
                               f"{cur.shape[0]} starts were given")
        cur = np.repeat(cur, n_samples, axis=0)
    rng = np.random.default_rng(seed)
    if not np.all(dom.contains(cur)):
        raise SupportError("stable walk starts must be interior")
    d = cur.shape[1]
    live = np.arange(cur.shape[0])
    for _ in range(_WOS_MAX_ITERS):
        pos = cur[live]
        inside = dom.contains(pos)
        live, pos = live[inside], pos[inside]
        if live.size == 0:
            return cur
        t = rng.beta(alpha / 2.0, 1.0 - alpha / 2.0, live.size)
        if not np.all(t > 0.0):
            raise SupportError(
                f"a Beta({alpha / 2.0:g}, {1.0 - alpha / 2.0:g}) draw underflowed to 0 "
                f"at alpha={alpha:g}: the stable jump would be infinite")
        rho = dom.distance_to_boundary(pos)
        cur[live] = pos + (rho / np.sqrt(t))[:, None] * _unit_directions(rng, live.size, d)
    # the last jump's landings, tested like every earlier one's
    live = live[dom.contains(cur[live])]
    if live.size == 0:
        return cur
    raise ConvergenceError(f"stable walk exceeded its budget of {_WOS_MAX_ITERS} "
                           f"iterations with {live.size} walkers still moving")


# ---------------------------------------------------------------------------
# stopped-expectation estimators
# ---------------------------------------------------------------------------

@dataclass
class McEstimate:
    value: float
    stderr: float
    n_samples: int
    extra: dict


def _check_samples(n_samples: int) -> None:
    if n_samples < 2:
        raise SupportError(f"n_samples={n_samples}: a standard error needs at "
                           "least 2 samples")


def reducing_expectation(solution: Solution, k: float, n: float, start,
                         n_samples: int = 10**5, seed: int = 0) -> McEstimate:
    """Monte Carlo estimate of E_x[(u - n)^+ (X_{tau_k})] for the reducing
    time tau_k (exit of the sublevel set of the absolute potential).

    The estimator's per-path values and the fraction of paths stopped before
    leaving the domain are reported; the latter decreases in k.  A start
    that is not one interior point of the domain, fewer than 2 samples, or
    a solution outside ``_radial_profile``'s rule raises before any draw.
    """
    _check_samples(n_samples)
    dom = solution.dom
    x = np.atleast_1d(np.asarray(start, dtype=float))
    if x.shape != (dom.dim,):
        raise DimensionMismatchError(f"reducing start {x.tolist()} is not a point of "
                                     f"the {dom.dim}-d domain")
    if not dom.contains(x):
        raise SupportError(f"reducing start {x.tolist()} must be interior")
    rng = np.random.default_rng(seed)
    x0 = np.tile(x, (n_samples, 1))
    vals, draws = stopped_values(solution, k, x0, rng)
    payoff = np.maximum(vals - n, 0.0)
    est = float(np.mean(payoff))
    stderr = float(np.std(payoff, ddof=1) / math.sqrt(n_samples))
    frac_inner = float(np.mean(vals > 1e-12))
    return McEstimate(value=est, stderr=stderr, n_samples=n_samples,
                      extra={"frac_stopped_before_exit": frac_inner, "k": k, "n": n,
                             "draws": draws})


def sample_start_points(dom: Domain, rho, n_samples: int, rng) -> np.ndarray:
    """Rejection sampling of the start distribution rho * m (uniform for rho
    None), under the bound 1.2 x the max of rho over 4,096 probes of the
    bounding box; a candidate where rho exceeds that bound raises
    SupportError naming rho, and so does a rho with no positive value at the
    probes inside D, which would reject every candidate, and, before any
    draw, a rho that is neither None nor callable."""
    if rho is not None and not callable(rho):
        raise SupportError(f"rho must be None (uniform) or a callable density, "
                           f"not {type(rho).__name__}")
    box = dom.bounding_box
    d = dom.dim
    out = np.empty((n_samples, d))
    have = 0
    rho_max = None
    if rho is not None:
        probe = np.column_stack([rng.uniform(lo, hi, 4096) for lo, hi in box])
        inside = dom.contains(probe)
        vals = np.asarray(rho(probe[inside]), dtype=float)
        if not np.any(vals > 0.0):
            raise SupportError("rho has no positive value at its 4,096 probes of the "
                               "domain: rejection sampling would never accept a start")
        rho_max = float(vals.max()) * 1.2
    while have < n_samples:
        m = max(2 * (n_samples - have), 1024)
        cand = np.column_stack([rng.uniform(lo, hi, m) for lo, hi in box])
        keep = dom.contains(cand)
        if rho is not None:
            r = np.zeros(m)
            r[keep] = np.asarray(rho(cand[keep]), dtype=float)
            if np.any(r > rho_max):
                raise SupportError(f"rho reaches {r.max():.6g}, above the bound "
                                   f"{rho_max:.6g} its 4,096 probes set: rejection "
                                   "sampling from rho would be biased")
            keep &= rng.random(m) * rho_max < r
        sel = cand[keep]
        take = min(sel.shape[0], n_samples - have)
        out[have:have + take] = sel[:take]
        have += take
    return out


@dataclass
class UIDiagnostic:
    levels: np.ndarray
    estimates: np.ndarray          # per level: max over the stopping family
    stderrs: np.ndarray
    family: np.ndarray
    table: np.ndarray              # (levels x family) estimates
    verdict: str                   # "class-D" | "not-class-D"
    limit_estimate: float          # smallest level's limit in k; see limit_basis
    limit_stderr: float
    limit_basis: str               # the rule behind limit_estimate
    target: float
    draws: int                     # exit-law uniform draws, summed over the family


def class_d_diagnostic(solution: Solution, family: Sequence[float],
                       levels: Sequence[float], rho=None,
                       n_samples: int = 30_000, seed: int = 0,
                       target: float = 0.0) -> UIDiagnostic:
    """sup over the reducing family of E_{rho m}[(|u| - n)^+ (X_tau)] per level.

    A curve trending to zero evidences uniform integrability of the stopped
    family (class (D)); a plateau evidences the opposite, and its height is
    compared against the independently computed target <R^D rho, |mu_c|>.
    ``limit_estimate`` is the smallest level's limit in k: the 1/k
    extrapolation of its row, or exactly 0 for a solution with no
    concentrated atom, whose bounded potential makes every k > sup u stop at
    the boundary value 0; ``limit_basis`` names the rule used.  Fewer than
    2 samples, an empty ``family`` or ``levels``, or a solution the reducing
    family cannot sample (``_radial_profile``) raise SupportError before any
    draw.
    """
    _check_samples(n_samples)
    for name, values in (("family", family), ("levels", levels)):
        if len(values) == 0:
            raise SupportError(f"{name} must hold at least one value")
    _radial_profile(solution)
    rng = np.random.default_rng(seed)
    levels = np.asarray(sorted(float(v) for v in levels))
    family = np.asarray(sorted(float(v) for v in family))
    starts = sample_start_points(solution.dom, rho, n_samples, rng)

    stopped = []
    draws = 0
    for k in family:
        vals, n_draws = stopped_values(solution, k, starts, rng)
        stopped.append(np.abs(vals))
        draws += n_draws

    table = np.empty((len(levels), len(family)))
    stderr_tab = np.empty_like(table)
    for i, n in enumerate(levels):
        for j, vals in enumerate(stopped):
            pay = np.maximum(vals - n, 0.0)
            table[i, j] = np.mean(pay)
            stderr_tab[i, j] = np.std(pay, ddof=1) / math.sqrt(n_samples)
    best = np.argmax(table, axis=1)
    estimates = table[np.arange(len(levels)), best]
    stderrs = stderr_tab[np.arange(len(levels)), best]

    final, sig = estimates[-1], stderrs[-1]
    if final <= max(3.0 * sig, 1e-12):
        verdict = "class-D"
    else:
        verdict = "not-class-D"

    row = table[0]
    if not solution.decomposition.concentrated.atoms:
        # bounded potential: every k > sup u stops at the boundary value 0
        limit_est, limit_sig, basis = 0.0, 0.0, "exact zero (bounded potential)"
    elif len(family) >= 2 and np.any(row > 0):
        # plateau: stopped expectations approach the limit linearly in 1/k
        # (deficit factor (1 - n/k) for the reducing family), so extrapolate
        # the smallest level's row to 1/k -> 0 by weighted least squares
        wts = 1.0 / np.maximum(stderr_tab[0], 1e-15)
        coef, cov = np.polyfit(1.0 / family, row, 1, w=wts, cov="unscaled")
        limit_est = float(coef[1])
        limit_sig = float(math.sqrt(max(cov[1, 1], 0.0)))
        basis = "1/k extrapolation"
    else:
        limit_est, limit_sig = float(estimates[0]), float(stderrs[0])
        basis = "best stopping time at the smallest level (no fit)"
    return UIDiagnostic(levels=levels, estimates=estimates, stderrs=stderrs,
                        family=family, table=table, verdict=verdict,
                        limit_estimate=limit_est, limit_stderr=limit_sig,
                        limit_basis=basis, target=float(target), draws=draws)


def _smallest_radius_values(ball: Domain, profile, pts: np.ndarray, rng) -> np.ndarray:
    """u(m) for the smallest radius m = min_{t <= tau} |X_t - c| of a Brownian
    path from each row of ``pts`` to the boundary |x - c| = R: one uniform per
    start, in index order, then one profile call.

    From r0 = |x - c| the path reaches radius a < r0 before R with probability
    P(m <= a) = (phi(R) - phi(r0)) / (phi(R) - phi(a)), the hit law of
    ``stopped_values``; inverting it at U in (0, 1] (no start is sent to the
    center by a zero draw) gives m = R (r0/R)^(1/U) in the plane,
    1 / (1/R + (1/r0 - 1/R)/U) in 3-d and max(0, R - (R - r0)/U) on an
    interval.  A non-finite u(m) (a planar atom's m below the resolution of the
    profile, which underflows |x|^2 below r ~ 1.6e-162) raises SupportError.
    """
    R = ball.radius
    r0 = np.linalg.norm(pts - np.asarray(ball.center), axis=1)
    U = 1.0 - rng.random(r0.size)
    if ball.dim == 1:
        m = np.maximum(R - (R - r0) / U, 0.0)
    elif ball.dim == 2:
        m = R * (r0 / R) ** (1.0 / U)
    else:
        m = 1.0 / (1.0 / R + (1.0 / r0 - 1.0 / R) / U)
    vals = np.abs(np.asarray(profile(m), dtype=float))
    lost = ~np.isfinite(vals)
    if lost.any():
        raise SupportError(
            f"u is not finite at the smallest radius of {int(lost.sum())} of {r0.size} "
            f"paths (at most {m[lost].max():.3g}): below the resolution of the radial "
            "profile, so their path supremum cannot be read")
    return vals


def maximal_inequality_check(solution: Solution, d1_value: float, rho=None,
                             n_samples: int = 20_000, seed=0) -> McEstimate:
    """E_{rho m} sup_{t <= tau_D} |u(X_t)|^(1/2) against the bound
    2 sqrt(d1_value), the maximal inequality at exponent 1/2; pass iff
    estimate <= bound + 3 stderr.  Fewer than 2 samples raise SupportError
    before any draw.

    The support is checked before any draw (``_radial_profile``): a
    closed-form Laplacian solution on a ball or interval whose measure is
    radial and nonnegative, else SupportError naming that rule.  There u is
    radial and nonincreasing in r = |x - c|, so the path supremum is u(m) at
    the path's smallest radius m: the starts are drawn from rho, then m
    exactly from its hit law by ``_smallest_radius_values``, one uniform per
    start, so the estimate is unbiased and ``extra["draws"]`` is n_samples.
    Where u(m) is not finite (a planar atom at the center, whose payoff has
    infinite variance) that raises SupportError naming the profile's
    resolution.
    """
    _check_samples(n_samples)
    ball, profile = _radial_profile(solution)
    rng = np.random.default_rng(seed)
    pts = sample_start_points(solution.dom, rho, n_samples, rng)
    payoff = np.sqrt(_smallest_radius_values(ball, profile, pts, rng))
    est = float(np.mean(payoff))
    stderr = float(np.std(payoff, ddof=1) / math.sqrt(n_samples))
    bound = 2.0 * d1_value ** 0.5
    passed = est <= bound + 3.0 * stderr
    return McEstimate(value=est, stderr=stderr, n_samples=n_samples,
                      extra={"bound": float(bound), "passed": bool(passed),
                             "margin": float(bound + 3.0 * stderr - est),
                             "draws": n_samples})
