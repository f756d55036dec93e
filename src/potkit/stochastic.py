"""Exit-time Monte Carlo: exact ball-exit draws (walk-on-spheres), exact
stable-process exits by ball jumps, reducing-family stopped expectations,
class-(D) uniform-integrability diagnostics, and the pathwise maximal
inequality.

Stable exits jump from the centre of the largest ball inside D to an exact
draw from that ball's Blumenthal-Getoor-Ray exit law until they land outside
D, so they carry no time-step bias; ``stable_exit`` ignores a ``dt``.

The reducing and class-(D) walks run walk-on-spheres on the radial harmonic
coordinate (log r in the plane, -r^(2-d) above), a time-changed 1-d Brownian
motion, so they reach a level sphere of any radius in O(log 1/eps) steps.

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
from scipy import optimize

from .errors import ConvergenceError, SupportError
from .geometry import Domain
from .solve import Solution

_EPS_REL_INNER = 1e-3     # relative shell for hitting tiny level circles
_EPS_ABS_FACTOR = 1e-6    # outer-boundary shell: 1e-6 * diameter
_WOS_MAX_ITERS = 100_000  # walk-on-spheres iteration budget


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _walk(cur: np.ndarray, stop, step, max_iters: int, on_step=None):
    """Advance the walkers ``cur`` (n, d) in place until each one stops;
    returns (loop iterations, path steps): the ``step`` calls and the walkers
    they moved.

    Every iteration evaluates ``stop`` on the live walkers' positions, which
    returns the stopped mask and a per-walker quantity (or None), drops the
    stopped walkers from the live index array, and moves the rest by
    ``step(positions, quantity)`` with the quantity sliced to them, so a
    distance is computed once per iteration; ``on_step(live, new_positions)``
    then sees them.  Live walkers stay in index order, so a step's random
    draws keep the same order and size as a full-width mask would give.
    """
    live = np.arange(cur.shape[0])
    path_steps = 0
    for it in range(max_iters):
        pos = cur[live]
        stopped, quantity = stop(pos)
        moving = ~stopped
        live, pos = live[moving], pos[moving]
        if live.size == 0:
            return it, path_steps
        pos = pos + step(pos, None if quantity is None else quantity[moving])
        cur[live] = pos
        path_steps += live.size
        if on_step is not None:
            on_step(live, pos)
    raise ConvergenceError(f"walk exceeded its budget of {max_iters} iterations "
                           f"with {live.size} walkers still moving")


# ---------------------------------------------------------------------------
# exact ball-exit sampling
# ---------------------------------------------------------------------------

def _unit_directions(rng, n: int, d: int) -> np.ndarray:
    if d == 1:
        return rng.choice([-1.0, 1.0], size=(n, 1))
    z = rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def ball_exit_points(center: np.ndarray, radius, x: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """One exact draw per row from the Brownian exit law of the ball.

    d=1: endpoint Bernoulli; d=2: boundary Mobius transform of a uniform
    angle; d=3: closed-form inverse CDF of the polar cosine.  ``radius``
    may be scalar or per-row.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = x.shape
    center = np.asarray(center, dtype=float)
    radius = np.broadcast_to(np.asarray(radius, dtype=float), (n,))
    rel = x - center
    s = np.linalg.norm(rel, axis=1) / radius
    if np.any(s >= 1.0 + 1e-12):
        raise SupportError("start point must be inside the ball")
    s = np.minimum(s, 1.0 - 1e-15)

    if d == 1:
        p_hi = (rel[:, 0] / radius + 1.0) / 2.0
        side = np.where(rng.random(n) < p_hi, 1.0, -1.0)
        return (center + (side * radius)[:, None]).reshape(n, 1)

    if d == 2:
        phi = rng.uniform(-math.pi, math.pi, n)
        e = np.exp(1j * phi)
        m = (e + s) / (1.0 + s * e)      # Mobius map sending 0 -> s
        base_angle = np.arctan2(rel[:, 1], rel[:, 0])
        ang = np.angle(m) + np.where(s > 0, base_angle, 0.0)
        out = center + radius[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return out

    if d == 3:
        U = rng.random(n)
        Q = 2.0 * s * U / np.maximum(1.0 - s**2, 1e-300) + 1.0 / (1.0 + s)
        t = np.where(s > 1e-14, (1.0 + s**2 - Q ** (-2.0)) / (2.0 * s),
                     2.0 * U - 1.0)
        t = np.clip(t, -1.0, 1.0)
        # frame with third axis along rel
        axis = np.where(s[:, None] > 1e-14, rel / np.maximum(
            np.linalg.norm(rel, axis=1, keepdims=True), 1e-300),
            np.tile([0.0, 0.0, 1.0], (n, 1)))
        helper = np.where(np.abs(axis[:, [0]]) < 0.9,
                          np.tile([1.0, 0.0, 0.0], (n, 1)),
                          np.tile([0.0, 1.0, 0.0], (n, 1)))
        e1 = np.cross(axis, helper)
        e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
        e2 = np.cross(axis, e1)
        az = rng.uniform(0.0, 2.0 * math.pi, n)
        sin_t = np.sqrt(np.maximum(1.0 - t**2, 0.0))
        direction = (t[:, None] * axis
                     + sin_t[:, None] * (np.cos(az)[:, None] * e1
                                         + np.sin(az)[:, None] * e2))
        return center + radius[:, None] * direction
    raise SupportError("ball exit sampling supports d in {1,2,3}")


def _start_points(x, n_samples: Optional[int]) -> np.ndarray:
    """A fresh array of the start rows of x, a single point repeated
    n_samples times; the walks move it in place."""
    pts = np.array(x, dtype=float, ndmin=2)
    if n_samples is not None and pts.shape[0] == 1:
        pts = np.repeat(pts, n_samples, axis=0)
    return pts


def _check_unmasked(dom: Domain, sampler: str) -> None:
    """Walk-on-spheres steps by ``Domain.distance_to_boundary``, which
    measures to a rectangle's faces and ignores its mask: on a masked
    rectangle the balls would cross the removed part."""
    if dom.mask is not None:
        raise SupportError(f"{sampler} does not support a masked rectangle: its "
                           "distance to the boundary ignores the mask")


def _wos_walk(dom: Domain, pts: np.ndarray, rng, on_step=None):
    """Walk-on-spheres of the rows of ``pts`` in place: each walker jumps to
    a uniform point of the largest sphere about it inside D (radius
    ``dom.distance_to_boundary``) until it is within 1e-6 * diameter of the
    boundary.  Returns ``_walk``'s (loop iterations, path steps)."""
    eps = _EPS_ABS_FACTOR * dom.diameter

    def stop(p):
        dist = dom.distance_to_boundary(p)
        return dist <= eps, dist

    def step(p, dist):
        return dist[:, None] * _unit_directions(rng, p.shape[0], dom.dim)

    return _walk(pts, stop, step, _WOS_MAX_ITERS, on_step=on_step)


def wos_exit(dom: Domain, x, seed=0, n_samples: Optional[int] = None) -> np.ndarray:
    """Exit point(s) of Brownian motion from the domain, started at x;
    ``seed`` is an int or a Generator to draw from.

    Balls and intervals use a single exact draw from the closed-form exit
    law.  Rectangles iterate maximal inscribed balls until within
    1e-6 * diameter of the boundary, then project to the nearest boundary
    point.  A masked rectangle raises SupportError: its distance to the
    boundary is not known.
    """
    _check_unmasked(dom, "wos_exit")
    rng = _rng(seed)
    pts = _start_points(x, n_samples)

    if dom.kind in ("ball", "interval"):
        ball = dom.as_ball()
        return ball_exit_points(ball.center, ball.radius, pts, rng)

    _wos_walk(dom, pts, rng)
    return _project_to_boundary(dom, pts)


def _project_to_boundary(dom: Domain, pts: np.ndarray) -> np.ndarray:
    """Snap each point of a rectangle onto its nearest face; gaps are ordered
    axis 0 lo, axis 0 hi, axis 1 lo, ..., and ties go to the first."""
    lo, hi = np.asarray(dom.bounds).T
    gaps = np.stack([pts - lo, hi - pts], axis=2).reshape(pts.shape[0], -1)
    face = np.argmin(gaps, axis=1)
    axis = face // 2
    out = pts.copy()
    out[np.arange(pts.shape[0]), axis] = np.where(face % 2 == 0, lo[axis], hi[axis])
    return out


# ---------------------------------------------------------------------------
# radial level sets and the reducing family
# ---------------------------------------------------------------------------

def _radial_profile(solution: Solution):
    """(center, profile r -> u) for measures radial about the center of a
    ball: atoms at the center, plus a radial density."""
    dom = solution.dom
    if dom.kind != "ball":
        raise SupportError("radial MC machinery needs a ball or interval")
    center = np.asarray(dom.center)
    for p, _ in solution.measure.atoms:
        if not np.allclose(p, center):
            raise SupportError("ball MC machinery needs the atom at the center")
    if solution.measure.density is not None and \
            not solution.measure.density.is_radial_about(center):
        raise SupportError("density must be radial about the center")

    def profile(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        pts = center + np.outer(r, np.eye(dom.dim)[0])
        return solution.evaluate(pts)
    return center, profile


def _level_radius(profile, R: float, k: float) -> float:
    """Radius of the superlevel set {u > k} of a decreasing radial profile
    (0 when the level is never reached).  Solved in log-radius so that level
    circles shrinking like e^{-2 pi k} stay resolvable in doubles; a level
    the profile does not resolve (|x|^2 underflows below r ~ 1.6e-162, so a
    planar Dirac resolves k up to about 58) raises SupportError."""
    t_lo = math.log(1e-280)
    if profile(math.exp(t_lo))[0] <= k:
        return 0.0
    t_hi = math.log(R * (1.0 - 1e-12))
    if profile(math.exp(t_hi))[0] >= k:
        return R
    t = optimize.brentq(lambda tt: profile(math.exp(tt))[0] - k, t_lo, t_hi,
                        xtol=1e-13, rtol=8.9e-16)
    r = math.exp(t)
    u = profile(r)[0]
    if not abs(u - k) <= 1e-9 * max(abs(k), 1.0):
        raise SupportError(f"level k={k:g} is below the resolution of the radial "
                           f"profile: its smallest resolved radius is about {r:.3g}, "
                           f"where u = {u:.6g}")
    return r


def _walk_annulus(center, R: float, r_inner: float, x0: np.ndarray, rng):
    """Mask of the walkers from ``x0`` (n, d) that reach the inner sphere of the
    annulus {r_inner < |x - c| < R} before the outer one, and the walk's
    (loop iterations, path steps).  phi(|B_t - c|) is a time-changed 1-d
    Brownian motion for phi = log r (d = 2) or -r^(2-d) (Levy), so the walk
    runs on x = phi(r) in the strip phi(r_inner) < x < phi(R): walk-on-spheres
    there (Muller 1956) steps x <- x + rho cos(theta), rho the distance to
    the nearer edge, and needs O(log 1/eps) steps however small r_inner is
    (e^{-2 pi k} for a planar Dirac).  The radial shells (relative 1e-3 at
    the inner sphere, 1e-6 of the diameter at the outer) are carried into phi.
    """
    d = x0.shape[1]
    phi = np.log if d == 2 else (lambda r: -np.power(r, 2.0 - d))
    lo, hi = phi(r_inner), phi(R)
    lo_shell = phi(r_inner * (1.0 + _EPS_REL_INNER))
    hi_shell = phi(R - 2.0 * R * _EPS_ABS_FACTOR)
    with np.errstate(divide="ignore"):
        cur = phi(np.linalg.norm(x0 - center, axis=1))[:, None]

    def stop(x):
        x = x[:, 0]
        return (x <= lo_shell) | (x >= hi_shell), np.minimum(x - lo, hi - x)

    def step(x, rho):
        return (rho * _unit_directions(rng, x.shape[0], 2)[:, 0])[:, None]

    counts = _walk(cur, stop, step, _WOS_MAX_ITERS)
    return cur[:, 0] <= lo_shell, counts


def _stopped_positions_1d(solution: Solution, k: float, x0: np.ndarray, rng):
    """tau_k-stopped positions for a 1d solution with one atom: the sublevel
    component of the start is an interval, so the exit is a single exact
    two-point draw."""
    dom = solution.dom
    a, b = dom.bounding_box[0]
    atoms = solution.measure.atoms
    if len(atoms) != 1:
        raise SupportError("1d reducing walk needs exactly one atom")
    m = atoms[0][0][0]
    prof = lambda t: solution.evaluate(np.asarray(t, dtype=float).reshape(-1, 1))
    peak = prof([m - 1e-12])[0]
    x = np.atleast_2d(x0)[:, 0]
    out = np.empty_like(x)
    if peak <= k:
        # level never reached: tau_k = tau_D, a single two-point exit draw
        p_hi = (x - a) / (b - a)
        out[:] = np.where(rng.random(x.size) < p_hi, b, a)
        return out.reshape(-1, 1)
    lo_edge = float(optimize.brentq(lambda t: prof([t])[0] - k, a + 1e-14, m - 1e-14,
                                    xtol=1e-15))
    hi_edge = float(optimize.brentq(lambda t: prof([t])[0] - k, m + 1e-14, b - 1e-14,
                                    xtol=1e-15))
    left = x <= lo_edge
    right = x >= hi_edge
    mid = ~(left | right)
    # start below the level: exit of (a, lo_edge) / (hi_edge, b)
    for mask, lo, hi in ((left, a, lo_edge), (right, hi_edge, b)):
        if mask.any():
            p_hi = (x[mask] - lo) / (hi - lo)
            out[mask] = np.where(rng.random(mask.sum()) < p_hi, hi, lo)
    if mid.any():
        out[mid] = x[mid]           # started above the level: tau_k = 0
    return out.reshape(-1, 1)


def stopped_values(solution: Solution, k: float, x0: np.ndarray, rng):
    """u(X_{tau_k}) for the reducing time tau_k = exit of {R^D|mu| <= k}, and
    the (loop iterations, path steps) of the walk that drew them ((0, 0)
    when no walk runs: 1d exits are single exact draws)."""
    dom = solution.dom
    if dom.dim == 1:
        pts = _stopped_positions_1d(solution, k, x0, rng)
        return solution.evaluate(pts), (0, 0)
    center, profile = _radial_profile(solution)
    R = dom.radius
    r_k = _level_radius(profile, R, k)
    if r_k <= 0.0:
        return np.zeros(np.atleast_2d(x0).shape[0]), (0, 0)
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    hit, counts = _walk_annulus(center, R, r_k, x0, rng)
    vals = np.zeros(hit.size)
    # the stopped position lies on the level circle {u = k} exactly
    vals[hit] = k
    # a start inside {u > k} stops at once (tau_k = 0, no draws): u(x0)
    inside = np.linalg.norm(x0 - center, axis=1) < r_k
    if inside.any():
        vals[inside] = solution.evaluate(x0[inside])
    return vals, counts


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
    ``seed`` is an int or a Generator to draw from.

    For small alpha a Beta draw can underflow to T = 0, whose jump is
    infinite (alpha = 0.01 gives hundreds in 20,000 walkers from 0.5 on
    (-1, 1)); the walk then raises SupportError naming alpha.

    ``dt`` is accepted and ignored: the walk has no time step.  It stays in
    the signature for callers that still pass one, and they get the same
    landings as without it.
    """
    if not 0.0 < alpha < 2.0:
        raise SupportError(f"stable exits need 0 < alpha < 2, got alpha={alpha}")
    _check_unmasked(dom, "stable_exit")
    rng = _rng(seed)
    cur = _start_points(x, n_samples)
    if not np.all(dom.contains(cur)):
        raise SupportError("stable walk starts must be interior")
    d = cur.shape[1]

    def step(p, rho):
        t = rng.beta(alpha / 2.0, 1.0 - alpha / 2.0, p.shape[0])
        if not np.all(t > 0.0):
            raise SupportError(
                f"a Beta({alpha / 2.0:g}, {1.0 - alpha / 2.0:g}) draw underflowed to 0 "
                f"at alpha={alpha:g}: the stable jump would be infinite")
        return (rho / np.sqrt(t))[:, None] * _unit_directions(rng, p.shape[0], d)

    _walk(cur, lambda p: (~dom.contains(p), dom.distance_to_boundary(p)), step,
          _WOS_MAX_ITERS)
    return cur


# ---------------------------------------------------------------------------
# stopped-expectation estimators
# ---------------------------------------------------------------------------

@dataclass
class McEstimate:
    value: float
    stderr: float
    n_samples: int
    extra: dict


def reducing_expectation(solution: Solution, k: float, n: float, start,
                         n_samples: int = 10**5, seed: int = 0) -> McEstimate:
    """Monte Carlo estimate of E_x[(u - n)^+ (X_{tau_k})] for the reducing
    time tau_k (exit of the sublevel set of the absolute potential).

    The estimator's per-path values and the fraction of paths stopped before
    leaving the domain are reported; the latter decreases in k.
    """
    rng = _rng(seed)
    x0 = np.tile(np.atleast_1d(np.asarray(start, dtype=float)), (n_samples, 1))
    vals, (iterations, path_steps) = stopped_values(solution, k, x0, rng)
    payoff = np.maximum(vals - n, 0.0)
    est = float(np.mean(payoff))
    stderr = float(np.std(payoff, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    frac_inner = float(np.mean(vals > 1e-12))
    return McEstimate(value=est, stderr=stderr, n_samples=n_samples,
                      extra={"frac_stopped_before_exit": frac_inner, "k": k, "n": n,
                             "walk_iterations": iterations, "path_steps": path_steps})


def sample_start_points(dom: Domain, rho, n_samples: int, rng) -> np.ndarray:
    """Rejection sampling of the start distribution rho * m."""
    box = dom.bounding_box
    d = dom.dim
    out = np.empty((n_samples, d))
    have = 0
    rho_fn = rho if callable(rho) else None
    rho_max = None
    if rho_fn is not None:
        probe = np.column_stack([rng.uniform(lo, hi, 4096) for lo, hi in box])
        inside = dom.contains(probe)
        vals = np.asarray(rho_fn(probe[inside]), dtype=float)
        rho_max = float(vals.max()) * 1.2 if vals.size else 1.0
    while have < n_samples:
        m = max(2 * (n_samples - have), 1024)
        cand = np.column_stack([rng.uniform(lo, hi, m) for lo, hi in box])
        keep = dom.contains(cand)
        if rho_fn is not None:
            r = np.zeros(m)
            r[keep] = np.asarray(rho_fn(cand[keep]), dtype=float)
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
    walk_iterations: int           # loop iterations, summed over the family
    path_steps: int                # walker moves, summed over the family


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
    the boundary value 0; ``limit_basis`` names the rule used.
    """
    rng = _rng(seed)
    dom = solution.dom
    levels = np.asarray(sorted(float(v) for v in levels))
    family = np.asarray(sorted(float(v) for v in family))
    starts = sample_start_points(dom, rho, n_samples, rng)

    stopped = []
    iterations = path_steps = 0
    for k in family:
        vals, (its, steps) = stopped_values(solution, k, starts, rng)
        stopped.append(np.abs(vals))
        iterations += its
        path_steps += steps

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
                        limit_basis=basis, target=float(target),
                        walk_iterations=iterations, path_steps=path_steps)


def maximal_inequality_check(solution: Solution, d1_value: float, rho=None,
                             n_samples: int = 20_000, seed=0) -> McEstimate:
    """E_{rho m} sup_{t <= tau_D} |u(X_t)|^(1/2) against the bound
    2 sqrt(d1_value), the maximal inequality at exponent 1/2.

    The path supremum is tracked at the positions of the walk-on-spheres
    that ``wos_exit`` runs on rectangles, which lower-bounds the true
    supremum; pass iff estimate <= bound + 3 stderr.
    """
    dom = solution.dom
    _check_unmasked(dom, "maximal_inequality_check")
    rng = _rng(seed)
    pts = sample_start_points(dom, rho, n_samples, rng)
    running = np.abs(np.asarray(solution.evaluate(pts), dtype=float))
    running[~np.isfinite(running)] = 0.0

    def track(live, p):
        v = np.abs(np.asarray(solution.evaluate(p), dtype=float))
        v[~np.isfinite(v)] = 0.0
        running[live] = np.maximum(running[live], v)

    iterations, path_steps = _wos_walk(dom, pts, rng, on_step=track)

    payoff = np.sqrt(running)
    est = float(np.mean(payoff))
    stderr = float(np.std(payoff, ddof=1) / math.sqrt(n_samples))
    bound = 2.0 * d1_value ** 0.5
    passed = est <= bound + 3.0 * stderr
    return McEstimate(value=est, stderr=stderr, n_samples=n_samples,
                      extra={"bound": float(bound), "passed": bool(passed),
                             "margin": float(bound + 3.0 * stderr - est),
                             "walk_iterations": iterations, "path_steps": path_steps})
