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
  ((c(alpha, d) / 2) |x - y|^(-d-alpha) on ordered pairs) and kappa_D the
  killing density.

The clamp window localizes everything: pairs with both values below n or
both above 2n contribute nothing, which is exactly what tames both the
kernel diagonal (theta_n ~ 2(u(x)-u(y))^2) and the atom neighborhood.

The nonlocal double integral is a tensor quadrature on graded panels.  Its
jump sums run on a cluster tree of the nodes: exact near blocks, and far
blocks whose kernel is interpolated at Chebyshev points (an H^2 matrix,
Hackbusch, Computing 62, 1999; Fong & Darve, J. Comput. Phys. 228, 2009),
where theta_n splits into three products.  Every product is an
``np.einsum``, so no result depends on the BLAS thread pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, SupportError
from .geometry import Domain, lattice_shifts
from .kernels import frac_constant, killing_density
from .solve import Solution, level_radius

_LEAF = 64                 # nodes per leaf of the jump quadrature's cluster tree, at most
_CHEB = 20                 # Chebyshev points per cluster of a far jump block
_CHUNK = 2048              # far pairs, or near rows, taken at a time
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


def sigma(f: Callable, x: float, y: float, nodes: int = 32) -> float:
    """sigma(f; x, y) = Int_0^1 Int_0^1  alpha f(alpha beta (x-y) + y) d alpha d beta
    by tensor Gauss-Legendre quadrature (nodes x nodes), for scalar x and y;
    an array argument raises SupportError."""
    if np.ndim(x) or np.ndim(y):
        raise SupportError("sigma takes scalar x and y")
    ga, gw = np.polynomial.legendre.leggauss(nodes)
    a = 0.5 * (ga + 1.0)
    w = 0.5 * gw
    A = a[:, None]
    B = a[None, :]
    WA = w[:, None] * w[None, :]
    arg = A * B * (float(x) - float(y)) + float(y)
    return float(np.sum(WA * A * f(arg)))


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

    from scipy.integrate import quad
    val, _ = quad(integrand, lo, hi, limit=200, epsabs=1e-13, epsrel=1e-12)
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

    def __post_init__(self):
        if not self.r_one < self.r_zero:
            raise ValueError(f"cutoff needs r_one < r_zero, got r_one={self.r_one}, "
                             f"r_zero={self.r_zero}")

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

def local_energy(solution: Solution, eta: Callable, n: float) -> float:
    """(1/n) Int_{n <= u <= 2n} eta Gamma(u, u) dx for local operators, with
    the carre du champ Gamma(u, u) = a grad u . grad u of the coefficient a
    of ``solution.op`` (a scalar field or the diagonal of a tensor field;
    a = 1 for the Laplacian).

    Closed-form solutions (Laplacians on intervals and on 2-d and 3-d
    balls) integrate along rays on which u falls: from each positive atom,
    with Gauss nodes in log r, or, with no atom and a nonnegative measure
    radial about the ball's centre, from the centre, with Gauss nodes in r
    (the window reaches the centre when u there is at most 2n).
    ``level_radius`` locates the window radii on every ray of an origin at
    once, one profile call per step for all of them, and one ``gradient``
    and one ``eta`` call cover all their Gauss nodes.  Rays from two atoms
    can cover the same part of the window, so the rays of at most one atom
    may meet it where eta != 0; more, or an atom-free measure that is signed
    or not radial, raise SupportError, and a nonpositive measure (u <= 0)
    gives 0.  Grid solutions sum stencil gradients over window cells.  Empty
    window (n above max u) gives 0.
    """
    if not solution.op.is_local:
        raise SupportError("local_energy applies to local operators only")
    if n <= 0:
        raise SupportError("level must be positive")
    if solution.closed:
        return _local_energy_closed(solution, eta, n)
    return _local_energy_grid(solution, eta, n)


def _ray_directions(d: int):
    """Unit directions and their solid-angle weights for d = 1, 2 or 3."""
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.ones(2)
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


def _ray_origins(solution) -> list:
    """Where the closed form's rays start: at each positive atom of the
    measure or, with none, at the ball's centre, which needs a nonnegative
    measure radial about it so that u falls along every ray.  A nonpositive
    measure has u <= 0 < n, so no ray; anything else raises SupportError
    naming the rule."""
    mu = solution.measure
    atoms = [np.asarray(p, dtype=float) for p, w in mu.atoms if w > 0]
    if atoms:
        return atoms
    if mu.density is None or mu.density.value <= 0:
        return []
    centre = np.asarray(solution.dom.as_ball().center, dtype=float)
    if mu.atoms or not mu.density.is_radial_about(centre):
        raise SupportError(
            "with no positive atom the closed-form local energy casts its rays from "
            "the ball's centre, which needs a nonnegative measure radial about it")
    return [centre]


def _local_energy_closed(solution, eta, n):
    dom = solution.dom
    d = dom.dim
    gx, gw = np.polynomial.legendre.leggauss(_RADIAL_NODES)
    dirs, ang_w = _ray_directions(d)
    # every ray leaves the convex ball once, within its diameter, and u reads
    # 0 off the domain
    R = np.full(len(dirs), dom.diameter)
    total, seen = 0.0, 0
    for p in _ray_origins(solution):
        rays = lambda r: solution.evaluate((p + r[:, :, None] * dirs[:, None, :])
                                           .reshape(-1, d))
        r_out = level_radius(rays, R, n)             # u = n crossings
        r_in = level_radius(rays, R, 2.0 * n)        # u = 2n crossings
        live = np.flatnonzero(r_out > r_in)
        if not live.size:
            continue
        if np.all(r_in[live] > 0.0):
            # nodes in s = log r, where r^(d-1) dr = r^d ds: around a planar
            # atom the window spans a radius ratio of e^(2 pi n)
            s_in = np.array([math.log(r) for r in r_in[live]])
            s_out = np.array([math.log(r) for r in r_out[live]])
            half = (0.5 * (s_out - s_in))[:, None]
            rr = np.exp((0.5 * (s_out + s_in))[:, None] + half * gx)
            jac = rr ** d
        else:
            # nodes in r: the window reaches the origin, where u is at most 2n
            half = (0.5 * (r_out[live] - r_in[live]))[:, None]
            rr = (0.5 * (r_out[live] + r_in[live]))[:, None] + half * gx
            jac = rr ** (d - 1)
        pts = (p + rr[:, :, None] * dirs[live, None, :]).reshape(-1, d)
        grad = solution.gradient(pts)
        dens = np.sum(grad * grad, axis=1).reshape(rr.shape)
        v = np.sum(half * gw * eta(pts).reshape(rr.shape) * dens * jac, axis=1)
        seen += bool(np.any(v))
        for wa, v_ray in zip(ang_w[live], v):
            total += wa * float(v_ray)
    if seen > 1:
        raise SupportError(
            f"the closed-form local energy casts rays from each positive atom, which "
            f"is exact only when the rays of one atom alone meet the window where "
            f"eta != 0; here those of {seen} atoms do, and u need not fall along a "
            f"ray from either, so parts of the window would count twice")
    return total / n


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
    anchor and toward the endpoints (boundary behavior ~ dist^(alpha/2)),
    less any panel narrower than 1e-12 (b - a): its nodes would round onto its ends."""
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
        if hi - lo <= 1e-12 * (b - a):
            continue
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xs.append(mid + half * gx)
        ws.append(half * gw)
    return np.concatenate(xs), np.concatenate(ws)


def nonlocal_energy(solution: Solution, eta: Callable, n: float,
                    rel_tol: float = 0.01) -> float:
    """Fractional-window energy (see module docstring), refined until the
    relative change between successive panel gradings is below rel_tol;
    ConvergenceError if ``_MAX_REFINE`` gradings do not get there.  Grading
    i has ``_PER_DECADE * 2**i`` panels per decade and ``_GAUSS`` nodes per
    panel.

    The one-level case of the quadrature that ``reconstruct_mu_c`` runs for
    all its levels at once, with the same value.  Supported for 1d
    domains (the double integral is a full tensor quadrature; higher
    dimensions would need 2d-pair quadrature and are out of scope for the
    closed-form path).
    """
    ((val, _),), _ = _nonlocal_energies(solution, eta, [n], rel_tol=rel_tol)
    return val


def _nonlocal_energies(solution: Solution, eta: Callable, levels: Sequence[float],
                       rel_tol: float = 0.01) -> tuple:
    """``(results, gradings)``: ``(value, trace)`` of the fractional-window
    energy for each level, and ``(nodes, kernel rows, kernel entries)`` of
    each panel grading built, the kernel rows being the nodes where
    eta != 0 (the live rows of ``_jump_terms``) and the kernel entries the
    jump-kernel values it built.  Entry i of a trace comes from grading i.

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
    gradings = []
    open_levels = list(range(len(levels)))
    for refine in range(_MAX_REFINE):
        if not open_levels:
            break
        x, w = _graded_panels_1d(dom, anchors, _PER_DECADE * 2**refine, r_min=1e-9,
                                 gauss=_GAUSS)
        u = solution.evaluate(x.reshape(-1, 1))
        ex = eta(x.reshape(-1, 1)) * w
        kap = killing_density(alpha, dom, x)
        jumps, entries = _jump_terms(x, w, u, ex, alpha, [levels[i] for i in open_levels])
        gradings.append((x.size, int(np.count_nonzero(ex)), entries))
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
    return [(trace[-1], trace) for trace in traces], gradings


def _chebyshev_basis(t, lo, hi):
    """The Lagrange basis of the ``_CHEB`` first-kind Chebyshev points of
    [lo, hi] at t, by the barycentric formula: shape t.shape + (_CHEB,).
    lo and hi broadcast against t; a point of t on a Chebyshev point gets
    that point's unit vector."""
    angle = (2 * np.arange(_CHEB) + 1) * math.pi / (2 * _CHEB)
    lam = np.where(np.arange(_CHEB) % 2, -1.0, 1.0) * np.sin(angle)
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = ((2.0 * t - (lo + hi)) / (hi - lo))[..., None] - np.cos(angle)
        q = lam / diff
        q /= np.sum(q, axis=-1, keepdims=True)
    hit = ~np.all(np.isfinite(q), axis=-1)
    q[hit] = diff[hit] == 0.0
    return q


def _cluster_tree(x: np.ndarray) -> list:
    """Index bisection of the nodes down to leaves of at most ``_LEAF``
    nodes: for each depth d, the 2**d + 1 node offsets of its clusters."""
    offsets = [np.array([0, x.size])]
    while np.max(np.diff(offsets[-1])) > _LEAF:
        o = offsets[-1]
        finer = np.empty(2 * o.size - 1, dtype=np.int64)
        finer[0::2], finer[1::2] = o, o[:-1] + np.diff(o) // 2
        offsets.append(finer)
    return offsets


def _jump_terms(x: np.ndarray, w: np.ndarray, u: np.ndarray, ex: np.ndarray,
                alpha: float, levels: Sequence[float]) -> tuple:
    """``(sums, kernel_entries)``: Sum_ij ex_i theta_n(u_i, u_j) J_ij w_j for
    each level n, with the jump measure J_ij = (c/2) |x_i - x_j|^(-1-alpha)
    (zero diagonal), and the number of kernel values built.

    The nodes, sorted, are cut by index bisection into a cluster tree with
    leaves of at most ``_LEAF`` nodes, and the cluster pairs into near and
    far blocks.  A pair is far when the larger diameter is at most the gap
    between the clusters; the kernel is then smooth on it, and its
    interpolant at ``_CHEB`` Chebyshev points per cluster takes one
    ``_CHEB`` x ``_CHEB`` coupling.  The moments against the Chebyshev basis
    are nested: a parent's come from its children's.  Leaf pairs that are
    not far are near blocks, built exactly.  Each unordered pair's kernel is
    built once and serves both orders.

    A pair's sum carries the factor ex_i, so pairs of clusters without a
    live row (eta != 0) are dropped, and with eta = 0 on every node nothing
    is built and each level's sum is 0.0.  With L = {u <= n},
    M = {n < u < 2n} and H = {u >= 2n}, theta_n vanishes on L x L and H x H,
    so a block whose clusters both lie in L or both in H adds nothing at
    level n; blocks like that at every level are never built.

    On far blocks theta_n(a, b) = A_n(a) - 4a S_n(b) + 2 S_n(b)^2 with
    A_n(a) = 2 S_n(a) (2a - S_n(a)), so a level needs the moments of three
    node vectors; the couplings against w, -4u ex and 2 ex are taken once for
    all levels.  Near blocks keep theta_n explicit where it would cancel
    (theta_n ~ 2 (u_i - u_j)^2 on the diagonal): on L x H and H x L it is
    2n(3n - 2u_i) and 2n(2u_i - 3n), products of J with w 1_H and w 1_L,
    and only pairs with an end in M take theta_n itself.

    Every reduction is an ``np.einsum`` over the blocks that level n keeps,
    in a fixed order, so no product calls BLAS and a level's sum does not
    depend on the other levels.
    """
    totals = [0.0] * len(levels)
    if not np.any(ex):
        return totals, 0
    order = np.argsort(x, kind="stable")
    x, w, u, ex = x[order], w[order], u[order], ex[order]
    half_c = 0.5 * frac_constant(alpha, 1)
    offsets = _cluster_tree(x)
    leaf = offsets[-1]
    first = 2 ** (len(offsets) - 1) - 1       # clusters in heap order: c has children 2c+1, 2c+2
    lo = np.concatenate([x[o[:-1]] for o in offsets])
    hi = np.concatenate([x[o[1:] - 1] for o in offsets])
    umin = np.concatenate([np.minimum.reduceat(u, o[:-1]) for o in offsets])
    umax = np.concatenate([np.maximum.reduceat(u, o[:-1]) for o in offsets])
    live = np.concatenate([np.logical_or.reduceat(ex != 0, o[:-1]) for o in offsets])

    def dead(s, t, n):
        return ((umax[s] <= n) & (umax[t] <= n)) | ((umin[s] >= 2.0 * n) & (umin[t] >= 2.0 * n))

    # unordered cluster pairs s <= t, from the root down
    s = t = np.zeros(1, dtype=np.int64)
    far = []
    for depth in range(len(offsets)):
        keep = (live[s] | live[t]) & ~np.all(dead(s[:, None], t[:, None], np.asarray(levels)),
                                              axis=1)
        s, t = s[keep], t[keep]
        gap = np.maximum(lo[t] - hi[s], lo[s] - hi[t])
        adm = (np.maximum(hi[s] - lo[s], hi[t] - lo[t]) <= gap) & (gap > 0)
        far.append((s[adm], t[adm]))
        s, t = s[~adm], t[~adm]
        if depth < len(offsets) - 1:
            s = (2 * s[:, None] + np.array([1, 1, 2, 2])).ravel()
            t = (2 * t[:, None] + np.array([1, 2, 1, 2])).ravel()
            s, t = s[s <= t], t[s <= t]
    order = np.lexsort((t, s))
    near_s, near_t = s[order] - first, t[order] - first
    far_s, far_t = (np.concatenate(c) for c in zip(*far))
    order = np.lexsort((far_t, far_s))
    far_s, far_t = far_s[order], far_t[order]

    # leaves as padded rows of node indices; a pad reads 0
    size = np.diff(leaf)
    width = int(size.max())
    idx = np.where(np.arange(width) < size[:, None], leaf[:-1, None] + np.arange(width), x.size)
    pad = lambda v, fill=0.0: np.append(v, fill)[idx]
    lx, lu, lw, lex = pad(x), pad(u), pad(w), pad(ex)
    real = idx < x.size

    # near blocks, exactly; pads sit at +inf against -inf, where J is 0.
    # Each pair s <= t is built once, rows in s; the pairs s < t with a live
    # row in t follow, transposed
    bwd = np.flatnonzero(live[near_t + first] & (near_s != near_t))
    ns = np.concatenate([near_s, near_t[bwd]])
    nt = np.concatenate([near_t, near_s[bwd]])
    Kn = np.empty((ns.size, width, width))
    K = Kn[:near_s.size]
    np.subtract(pad(x, np.inf)[near_s][:, :, None], pad(x, -np.inf)[near_t][:, None, :], out=K)
    np.abs(K, out=K)
    with np.errstate(divide="ignore"):
        np.power(K, -1.0 - alpha, out=K)
    K *= half_c
    diag = np.flatnonzero(near_s == near_t)
    K[diag[:, None], np.arange(width), np.arange(width)] = 0.0
    Kn[near_s.size:] = K[bwd].transpose(0, 2, 1)
    entries = int(np.einsum("b,b->", size[near_s], size[near_t]))

    # far blocks: Chebyshev points of each cluster, one coupling per pair
    pts = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * np.cos(
        (2 * np.arange(_CHEB) + 1) * math.pi / (2 * _CHEB))
    entries += far_s.size * _CHEB**2

    # nested moments: leaves against the basis at their nodes, every parent
    # from its children through the basis at their Chebyshev points
    leaf_basis = _chebyshev_basis(lx, lo[first:, None], hi[first:, None])
    leaf_basis[~real] = 0.0
    transfer = []
    for depth in range(len(offsets) - 1):
        child = np.arange(2 ** (depth + 1) - 1, 2 ** (depth + 2) - 1)
        parent = (child - 1) // 2
        transfer.append(_chebyshev_basis(pts[child], lo[parent, None], hi[parent, None]))

    def moments(V):
        """Per cluster, the moments of the columns of V: (clusters, V columns, _CHEB)."""
        out = np.empty((first + size.size, V.shape[1], _CHEB))
        out[first:] = np.einsum("sij,sik->sjk", np.vstack([V, np.zeros_like(V[:1])])[idx],
                                leaf_basis)
        for depth in range(len(offsets) - 2, -1, -1):
            a, b = 2 ** (depth + 1) - 1, 2 ** (depth + 2) - 1
            kids = np.einsum("cmk,cjm->cjk", transfer[depth], out[a:b])
            out[2**depth - 1:a] = kids[0::2] + kids[1::2]
        return out

    # the level-independent couplings, for the pair read both ways (rows
    # in s: K; rows in t: K transposed), with the kernels built a chunk of
    # pairs at a time
    Cw = moments(w[:, None])[:, 0]
    Ru = moments(np.stack([-4.0 * u * ex, 2.0 * ex], axis=1))
    rows = (far_s, far_t)
    cols = (far_t, far_s)
    Yw, Yu, Y1 = (np.empty((2, far_s.size, _CHEB)) for _ in range(3))
    for c0 in range(0, far_s.size, _CHUNK):
        s, t = far_s[c0:c0 + _CHUNK], far_t[c0:c0 + _CHUNK]
        Kf = np.subtract(pts[s][:, :, None], pts[t][:, None, :])
        np.abs(Kf, out=Kf)
        np.power(Kf, -1.0 - alpha, out=Kf)
        Kf *= half_c
        part = slice(c0, c0 + s.size)
        np.einsum("bkl,bl->bk", Kf, Cw[t], out=Yw[0, part])
        np.einsum("bkl,bk->bl", Kf, Cw[s], out=Yw[1, part])
        np.einsum("bkl,bk->bl", Kf, Ru[s, 0], out=Yu[0, part])
        np.einsum("bkl,bl->bk", Kf, Ru[t, 0], out=Yu[1, part])
        np.einsum("bkl,bk->bl", Kf, Ru[s, 1], out=Y1[0, part])
        np.einsum("bkl,bl->bk", Kf, Ru[t, 1], out=Y1[1, part])

    for k, n in enumerate(levels):
        S = np.clip(u, n, 2.0 * n)
        total = 0.0
        act = ~dead(far_s, far_t, n)
        if act.any():
            M = moments(np.stack([2.0 * S * (2.0 * u - S) * ex, S * w, S * S * w], axis=1))
            for r, c, yw, yu, y1 in zip(rows, cols, Yw, Yu, Y1):
                b = act & live[r]
                total += float(np.einsum("bk,bk->", M[r[b], 0], yw[b]))
                total += float(np.einsum("bk,bk->", yu[b], M[c[b], 1]))
                total += float(np.einsum("bk,bk->", y1[b], M[c[b], 2]))
        act = ~dead(ns + first, nt + first, n) & live[ns + first]
        low, high = lu <= n, lu >= 2.0 * n
        mid = real & ~low & ~high
        # pairs with an end in M: M rows against every column, then the
        # other rows against M columns
        b, i = np.nonzero(mid[ns] & act[:, None])
        y = np.empty(b.size)
        for c in range(0, b.size, _CHUNK):
            bc, ic = b[c:c + _CHUNK], i[c:c + _CHUNK]
            th = theta_n(lu[ns[bc], ic][:, None], lu[nt[bc]], n) * Kn[bc, ic]
            np.einsum("pj,pj->p", th, lw[nt[bc]], out=y[c:c + _CHUNK])
        total += float(np.einsum("p,p->", lex[ns[b], i], y))
        b, j = np.nonzero(mid[nt] & act[:, None])
        y = np.empty(b.size)
        for c in range(0, b.size, _CHUNK):
            bc, jc = b[c:c + _CHUNK], j[c:c + _CHUNK]
            th = theta_n(lu[ns[bc]], lu[nt[bc], jc][:, None], n) * Kn[bc, :, jc]
            np.einsum("pi,pi->p", np.where(mid, 0.0, lex)[ns[bc]], th, out=y[c:c + _CHUNK])
        total += float(np.einsum("p,p->", y, lw[nt[b], j]))
        for r, c, f in ((low, high, 2.0 * n * (3.0 * n - 2.0 * lu)),
                        (high, low, 2.0 * n * (2.0 * lu - 3.0 * n))):
            b = np.flatnonzero(act & np.any(r & real, axis=1)[ns] & np.any(c & real, axis=1)[nt])
            if b.size:
                y = np.empty((b.size, width))
                for c0 in range(0, b.size, _CHUNK // width):
                    bc = b[c0:c0 + _CHUNK // width]
                    np.einsum("bij,bj->bi", Kn[bc], np.where(c, lw, 0.0)[nt[bc]],
                              out=y[c0:c0 + _CHUNK // width])
                total += float(np.einsum("bi,bi->", np.where(r, lex * f, 0.0)[ns[b]], y))
        totals[k] = total
    return totals, entries


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
    quad_nodes: list               # per panel grading (nonlocal; [] for local): nodes
    kernel_rows: list              # per panel grading: jump-kernel rows (eta != 0)
    kernel_entries: list           # per panel grading: jump-kernel values built (near + far)


def reconstruct_mu_c(solution: Solution, eta: Callable, levels: Sequence[float],
                     rel_tol: float = 0.01) -> ReconstructionReport:
    """Tabulate the reconstruction functional against the independently known
    eta-mass of mu_c^+ and fit the residual prefactor.  ``rel_tol`` is the
    nonlocal quadrature's refinement tolerance (see ``nonlocal_energy``); the
    local functional has none.

    A persistent fitted prefactor away from 1 is reported loudly (flag), not
    normalized away.  An empty ``levels`` raises ``SupportError``.
    """
    levels = np.asarray(sorted(float(n) for n in levels))
    if levels.size == 0:
        raise SupportError("levels must hold at least one level")
    kind = "local" if solution.op.is_local else "nonlocal"
    if kind == "local":
        vals = np.array([local_energy(solution, eta, n) for n in levels])
        traces = [[v] for v in vals]
        gradings = []
    else:
        results, gradings = _nonlocal_energies(solution, eta, levels, rel_tol=rel_tol)
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
                                prefactor_flagged=flagged, kind=kind, traces=traces,
                                quad_nodes=[nodes for nodes, _, _ in gradings],
                                kernel_rows=[rows for _, rows, _ in gradings],
                                kernel_entries=[entries for _, _, entries in gradings])
