"""Energy-based reconstruction of the concentrated part of the measure.

Two functionals, both normalized so they converge to the eta-mass of the
positive concentrated part as the window level n grows:

* local (laplacian / divergence-form):
      (1/n) Int_{n <= u <= 2n} eta Gamma(u, u) dx
  with the carre du champ Gamma(u, u) = a grad u . grad u of the operator's
  coefficient a (a = 1 for the Laplacian)
* nonlocal (fractional):
      (1/2n) [ IntInt_{DxD} eta(x) theta_n(u(x), u(y)) J(dx dy)
               + Int_D eta(x) theta_n(u(x), 0) kappa_D(dx) ]
  with theta_n(a, b) = 2 (S_n(a) - S_n(b)) (2a - S_n(a) - S_n(b)),
  S_n(z) = clamp(z, n, 2n), J the symmetric jump measure
  (= jump_kernel / 2 on ordered pairs) and kappa_D the killing density.

The clamp window localizes everything: pairs with both values below n or
both above 2n contribute nothing, which is exactly what tames both the
kernel diagonal (theta_n ~ 2(u(x)-u(y))^2) and the atom neighborhood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, optimize

from .errors import ConvergenceError, SupportError
from .geometry import Domain, lattice_shifts
from .kernels import frac_constant, killing_density
from .solve import Solution

_JUMP_BLOCK_ROWS = 512     # rows of the jump measure held at a time
_ANGULAR_RAYS = 64         # rays around each atom (closed-form local energy)
_RADIAL_NODES = 48         # Gauss nodes per ray across the window
_MAX_REFINE = 5            # panel gradings tried by the nonlocal quadrature
_PER_DECADE = 6            # panels per decade of the first grading (doubled each time)
_GAUSS = 10                # Gauss nodes per panel


# ---------------------------------------------------------------------------
# window primitives
# ---------------------------------------------------------------------------

def s_n(z, n: float):
    """Clamp of z to the window [n, 2n]."""
    if n <= 0:
        raise SupportError("window level n must be positive")
    return np.clip(z, n, 2.0 * n)


def theta_n(x, y, n: float):
    """2 (S_n(x) - S_n(y)) (2x - S_n(x) - S_n(y)); nonnegative for x, y >= 0.

    Equals 2 (x - y)^2 when both arguments lie in [n, 2n] and vanishes when
    both lie below n or both above 2n.
    """
    sx = s_n(x, n)
    sy = s_n(y, n)
    return 2.0 * (sx - sy) * (2.0 * np.asarray(x, dtype=float) - sx - sy)


def sigma(f: Callable, x, y, nodes: int = 32):
    """sigma(f; x, y) = Int_0^1 Int_0^1  alpha f(alpha beta (x-y) + y) d alpha d beta
    by tensor Gauss-Legendre quadrature (nodes x nodes)."""
    ga, gw = np.polynomial.legendre.leggauss(nodes)
    a = 0.5 * (ga + 1.0)
    w = 0.5 * gw
    A = a[:, None]
    B = a[None, :]
    WA = w[:, None] * w[None, :]
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 0:
        arg = A * B * (float(x) - float(y)) + float(y)
        return float(np.sum(WA * A * f(arg)))
    out = np.empty(x.shape)
    for i in range(x.size):
        arg = A * B * (x.flat[i] - y.flat[i]) + y.flat[i]
        out.flat[i] = np.sum(WA * A * f(arg))
    return out


def kink_integral(f: Callable, x: float, y: float) -> float:
    """Independent oracle for the window identity:
    Int_0^inf [ (x-a)^+ - (y-a)^+ - 1_{y>a} (x-y) ] f(a) da.

    The integrand vanishes off [min(x,y), max(x,y)]; each smooth piece is
    integrated adaptively.
    """
    lo, hi = min(x, y), max(x, y)
    if hi <= lo:
        return 0.0

    def integrand(a):
        return ((max(x - a, 0.0) - max(y - a, 0.0)
                 - (x - y) * (1.0 if y > a else 0.0)) * f(a))

    val, _ = integrate.quad(integrand, lo, hi, limit=200, epsabs=1e-13, epsrel=1e-12)
    return val


# ---------------------------------------------------------------------------
# eta cutoffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffEta:
    """Smooth radial cutoff: 1 inside r_one, 0 outside r_zero, quintic ramp."""

    center: tuple
    r_one: float
    r_zero: float

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(pts - np.asarray(self.center), axis=1)
        t = np.clip((r - self.r_one) / (self.r_zero - self.r_one), 0.0, 1.0)
        return 1.0 - t**3 * (t * (t * 6.0 - 15.0) + 10.0)


def constant_eta(value: float = 1.0) -> Callable:
    return lambda pts: np.full(np.atleast_2d(pts).shape[0], float(value))


# ---------------------------------------------------------------------------
# local functional
# ---------------------------------------------------------------------------

def _window_radii(u_ray: Callable, level: float, r_hi: float) -> float:
    """Radius where the decreasing ray profile crosses `level` (0 if below)."""
    lo = 1e-14
    if u_ray(lo) <= level:
        return 0.0
    if u_ray(r_hi) >= level:
        return r_hi
    return float(optimize.brentq(lambda r: u_ray(r) - level, lo, r_hi,
                                 xtol=1e-15, rtol=1e-14))


def local_energy(solution: Solution, eta: Callable, n: float) -> float:
    """(1/n) Int_{n <= u <= 2n} eta Gamma(u, u) dx for local operators, with
    the carre du champ Gamma(u, u) = a grad u . grad u of the coefficient a
    of ``solution.op`` (a scalar field or the diagonal of a tensor field;
    a = 1 for the Laplacian).

    Closed-form solutions (Laplacians on 2-d and 3-d balls, the only ones
    with a positive concentrated atom) integrate in polar panels around each
    such atom (window radii located on each ray by bisection of the
    decreasing profile); grid solutions sum stencil gradients over window
    cells.  Empty window (n above max u) gives 0.
    """
    if not solution.op.is_local:
        raise SupportError("local_energy applies to local operators only")
    if n <= 0:
        raise SupportError("level must be positive")
    if solution.closed:
        return _local_energy_closed(solution, eta, n)
    return _local_energy_grid(solution, eta, n)


def _ray_directions(d: int):
    """Unit directions and their solid-angle weights for d = 2 or 3."""
    if d == 2:
        th = (np.arange(_ANGULAR_RAYS) + 0.5) * 2.0 * math.pi / _ANGULAR_RAYS
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        return dirs, np.full(_ANGULAR_RAYS, 2.0 * math.pi / _ANGULAR_RAYS)
    # d == 3: product rule, Gauss in cos(polar) x uniform azimuth
    m = max(8, _ANGULAR_RAYS // 8)
    gc, gw = np.polynomial.legendre.leggauss(m)
    az = (np.arange(2 * m) + 0.5) * 2.0 * math.pi / (2 * m)
    dirs, wts = [], []
    for c, w in zip(gc, gw):
        s = math.sqrt(1.0 - c * c)
        for a in az:
            dirs.append([s * math.cos(a), s * math.sin(a), c])
            wts.append(w * (2.0 * math.pi / (2 * m)))
    return np.asarray(dirs), np.asarray(wts)


def _local_energy_closed(solution, eta, n):
    dom = solution.dom
    d = dom.dim
    gx, gw = np.polynomial.legendre.leggauss(_RADIAL_NODES)
    total = 0.0
    atoms = [(p, w) for p, w in solution.decomposition.concentrated.atoms if w > 0]
    if not atoms:
        return 0.0
    dirs, ang_w = _ray_directions(d)
    for (p, _w) in atoms:
        p = np.asarray(p, dtype=float)
        for direction, wa in zip(dirs, ang_w):
            r_hi = _ray_exit(dom, p, direction)

            def u_ray(r, direction=direction):
                return float(solution.evaluate((p + r * direction).reshape(1, -1))[0])

            r_out = _window_radii(u_ray, n, r_hi)          # u = n crossing
            r_in = _window_radii(u_ray, 2.0 * n, r_hi)     # u = 2n crossing
            if r_out <= r_in:
                continue
            mid = 0.5 * (r_out + r_in)
            half = 0.5 * (r_out - r_in)
            rr = mid + half * gx
            pts = p + rr[:, None] * direction
            grad = solution.gradient(pts)
            dens = np.sum(grad * grad, axis=1)
            total += wa * float(np.sum(half * gw * eta(pts) * dens * rr ** (d - 1)))
    return total / n


def _ray_exit(dom: Domain, p: np.ndarray, direction: np.ndarray) -> float:
    """Distance from p to the sphere of the ball ``dom`` along ``direction``."""
    c = np.asarray(dom.center)
    rel = p - c
    b = float(np.dot(rel, direction))
    disc = b * b - (np.dot(rel, rel) - dom.radius**2)
    return -b + math.sqrt(max(disc, 0.0))


def _local_energy_grid(solution, eta, n):
    gf = solution.grid_field
    grid = gf.grid
    h, d = grid.h, grid.dim
    v = gf.values
    inside = (v >= n) & (v <= 2.0 * n) & grid.interior_mask
    if not inside.any():
        return 0.0
    pts = grid.node_points()[inside]
    op = solution.op
    g2 = 0.0
    for k, lead, trail in lattice_shifts(d, step=2):
        centre = lead[:k] + (slice(1, -1),) + lead[k + 1:]
        gk = np.zeros_like(v)
        gk[centre] = (v[lead] - v[trail]) / (2.0 * h)
        gk2 = gk[inside] ** 2
        g2 = g2 + (gk2 if op.coeff is None else op.coeff_at(pts, k) * gk2)
    return float(np.sum(eta(pts) * g2) * h**d / n)


# ---------------------------------------------------------------------------
# nonlocal functional
# ---------------------------------------------------------------------------

def _graded_panels_1d(dom: Domain, anchors: Sequence[float],
                      per_decade: int, r_min: float, gauss: int):
    """Panel Gauss nodes/weights on (a, b), geometrically graded toward each
    anchor and toward the endpoints (boundary behavior ~ dist^(alpha/2))."""
    a, b = dom.bounding_box[0]
    edges = {a, b}
    for anchor in list(anchors) + [a, b]:
        reach = max(abs(anchor - a), abs(b - anchor))
        ladder = np.geomspace(r_min, reach, int(per_decade * math.log10(reach / r_min)) + 2)
        for r in ladder:
            for s in (-1.0, 1.0):
                t = anchor + s * r
                if a < t < b:
                    edges.add(float(t))
    edges = sorted(edges)
    gx, gw = np.polynomial.legendre.leggauss(gauss)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo < 1e-300:
            continue
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xs.append(mid + half * gx)
        ws.append(half * gw)
    return np.concatenate(xs), np.concatenate(ws)


def nonlocal_energy(solution: Solution, eta: Callable, n: float,
                    rel_tol: float = 0.01, return_trace: bool = False):
    """Fractional-window energy (see module docstring), refined until the
    relative change between successive panel gradings is below rel_tol;
    ConvergenceError if ``_MAX_REFINE`` gradings do not get there.  Grading
    i has ``_PER_DECADE * 2**i`` panels per decade and ``_GAUSS`` nodes per
    panel.  With ``return_trace`` the value comes with the list of every
    grading's value.

    The one-level case of the quadrature that ``reconstruct_mu_c`` runs for
    all its levels at once, with the same value and trace.  Supported for 1d
    domains (the double integral is a full tensor quadrature; higher
    dimensions would need 2d-pair quadrature and are out of scope for the
    closed-form path).
    """
    (val, trace), = _nonlocal_energies(solution, eta, [n], rel_tol=rel_tol)
    return (val, trace) if return_trace else val


def _nonlocal_energies(solution: Solution, eta: Callable, levels: Sequence[float],
                       rel_tol: float = 0.01) -> list:
    """``(value, trace)`` of the fractional-window energy for each level.

    Each panel grading is built once for all the levels that have not yet
    converged; a level stops refining once its relative change is below
    rel_tol, and ConvergenceError names the first level that never does.
    A level's value depends only on its own gradings, not on which other
    levels share them.
    """
    op, dom = solution.op, solution.dom
    if op.kind != "fractional":
        raise SupportError("nonlocal_energy applies to the fractional operator")
    if dom.dim != 1:
        raise SupportError("nonlocal_energy quadrature supports 1d domains")
    levels = [float(n) for n in levels]
    if any(n <= 0 for n in levels):
        raise SupportError("window level n must be positive")
    alpha = op.alpha
    anchors = [p[0] for p, w in solution.measure.atoms]

    traces = [[] for _ in levels]
    open_levels = list(range(len(levels)))
    for refine in range(_MAX_REFINE):
        if not open_levels:
            break
        x, w = _graded_panels_1d(dom, anchors, _PER_DECADE * 2**refine, r_min=1e-9,
                                 gauss=_GAUSS)
        u = solution.evaluate(x.reshape(-1, 1))
        ex = eta(x.reshape(-1, 1)) * w
        kap = killing_density(alpha, dom, x)
        jumps = _jump_terms(x, w, u, ex, alpha, [levels[i] for i in open_levels])
        for i, jump_term in zip(list(open_levels), jumps):
            n = levels[i]
            kill_term = float(np.sum(ex * theta_n(u, 0.0, n) * kap))
            val = (jump_term + kill_term) / (2.0 * n)
            trace = traces[i]
            trace.append(val)
            if len(trace) > 1 and abs(val - trace[-2]) <= rel_tol * max(abs(val), 1e-300):
                open_levels.remove(i)
    if open_levels:
        raise ConvergenceError(
            f"nonlocal quadrature did not stabilize below {rel_tol:.1%}: "
            f"trace={traces[open_levels[0]]}")
    return [(trace[-1], trace) for trace in traces]


def _jump_terms(x: np.ndarray, w: np.ndarray, u: np.ndarray, ex: np.ndarray,
                alpha: float, levels: Sequence[float]) -> list:
    """Sum_ij ex_i theta_n(u_i, u_j) J_ij w_j for each level n, with the jump
    measure J_ij = (c/2) |x_i - x_j|^(-1-alpha) (zero diagonal) built in
    blocks of ``_JUMP_BLOCK_ROWS`` rows and never stored whole.

    With L = {u <= n}, M = {n < u < 2n} and H = {u >= 2n}, theta_n vanishes
    on L x L and H x H and equals 2n(3n - 2u_i) on L x H and 2n(2u_i - 3n) on
    H x L, so those pairs reduce to the products J (w 1_H) and J (w 1_L),
    taken for every level in one matrix product per block (a column of a
    product depends on that column alone); only pairs with an end in M need
    theta_n explicitly.
    """
    half_c = 0.5 * frac_constant(alpha, 1)
    weights, masses, mids = [], [], []
    for n in levels:
        low, high = u <= n, u >= 2.0 * n
        weights += [np.where(low, ex * 2.0 * n * (3.0 * n - 2.0 * u), 0.0),
                    np.where(high, ex * 2.0 * n * (2.0 * u - 3.0 * n), 0.0)]
        masses += [np.where(high, w, 0.0), np.where(low, w, 0.0)]
        mid = ~(low | high)
        mids.append((mid, np.flatnonzero(mid)))
    weights, masses = np.stack(weights, axis=1), np.stack(masses, axis=1)
    totals = [0.0] * len(levels)
    # one block buffer for every block: fresh pages would be faulted in anew
    block = np.empty((min(_JUMP_BLOCK_ROWS, x.size), x.size))
    for r0 in range(0, x.size, _JUMP_BLOCK_ROWS):
        rows = slice(r0, r0 + _JUMP_BLOCK_ROWS)
        J = block[:x[rows].size]
        np.subtract(x[rows, None], x[None, :], out=J)
        np.abs(J, out=J)
        with np.errstate(divide="ignore"):
            np.power(J, -1.0 - alpha, out=J)
        J *= half_c
        np.fill_diagonal(J[:, r0:], 0.0)
        low_high = J @ masses
        for k, (n, (mid, cols)) in enumerate(zip(levels, mids)):
            pair = slice(2 * k, 2 * k + 2)
            part = float(np.vdot(weights[rows, pair], low_high[:, pair]))
            if cols.size:
                # rows in M against every column, the other rows against M
                in_rows = mid[rows]
                m_rows = np.flatnonzero(in_rows)
                th = theta_n(u[rows][m_rows, None], u[None, :], n)
                part += float(ex[rows][m_rows] @ (th * J[m_rows]) @ w)
                th = theta_n(u[rows, None], u[None, cols], n)
                part += float(np.where(in_rows, 0.0, ex[rows]) @ (th * J[:, cols]) @ w[cols])
            totals[k] += part
    return totals


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

@dataclass
class ReconstructionReport:
    levels: np.ndarray
    values: np.ndarray
    target: float                  # Int eta d mu_c^+ from the decomposition
    rel_errors: np.ndarray
    fitted_prefactor: float
    prefactor_flagged: bool        # |prefactor - 1| > 10%
    kind: str                      # "local" | "nonlocal"
    traces: list                   # per level: the value of each quadrature refinement


def reconstruct_mu_c(solution: Solution, eta: Callable, levels: Sequence[float],
                     rel_tol: float = 0.01) -> ReconstructionReport:
    """Tabulate the reconstruction functional against the independently known
    eta-mass of mu_c^+ and fit the residual prefactor.  ``rel_tol`` is the
    nonlocal quadrature's refinement tolerance (see ``nonlocal_energy``); the
    local functional has none.

    A persistent fitted prefactor away from 1 is reported loudly (flag), not
    normalized away.
    """
    levels = np.asarray(sorted(float(n) for n in levels))
    kind = "local" if solution.op.is_local else "nonlocal"
    if kind == "local":
        vals = np.array([local_energy(solution, eta, n) for n in levels])
        traces = [[v] for v in vals]
    else:
        results = _nonlocal_energies(solution, eta, levels, rel_tol=rel_tol)
        vals = np.array([val for val, _ in results])
        traces = [trace for _, trace in results]

    target = 0.0
    for p, w in solution.decomposition.concentrated.atoms:
        if w > 0:
            target += w * float(eta(np.asarray(p).reshape(1, -1))[0])

    if target > 0:
        rel = np.abs(vals - target) / target
        # weight late levels: they carry the limit
        fitted = float(vals[-1] / target) if len(vals) == 1 else \
            float(np.mean(vals[-2:]) / target)
    else:
        rel = np.abs(vals)
        fitted = float("nan")
    flagged = bool(target > 0 and abs(fitted - 1.0) > 0.10)
    return ReconstructionReport(levels=levels, values=vals, target=target,
                                rel_errors=rel, fitted_prefactor=fitted,
                                prefactor_flagged=flagged, kind=kind, traces=traces)
