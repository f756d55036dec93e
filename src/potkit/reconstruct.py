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

Both are read by one of two readers.  The closed-form rays integrate
|grad u|^2 along rays from an atom or the center, for the local closed
forms of a nonnegative measure on which u falls along every ray (see
``local_energy``).  Everything else reads the lattice, where either
functional is the discrete form of the same formula: u = A^{-1} mu is the
lattice solution, the jump measure is the off-diagonal T = diag - A of the
operator's own matrix (Fukushima, Oshima & Takeda, Dirichlet Forms and
Symmetric Markov Processes, sec. 3.2, for the jump and killing parts of the
form), and the killing is kappa = A 1 = diag - T*1_D.  A local stencil's T
joins neighbours, and its kappa is the leak to the boundary nodes; the
fractional operator's T is its offset table, so its pair sum is three box
convolutions by FFT, the operator's own matrix-free product (Chan & Ng,
SIAM Review 38, 1996).  Regrouped, the pair sum needs no diagonal: with
v = u - n and D = S_n(u) - n it is Sum_x eta_x [2v (A D) - A D^2 + kappa D
(2v - D)]_x, exactly 0 where D is flat over a Laplacian stencil.  For
eta = 1 it equals <mu, D/n> + (h^d / n) Sum_x kappa_x D_x (u_x - D_x - 2n).
A level refines until its change is at most rel_tol times the larger of
its value and the target Int eta d mu_c^+.  Both energies are one-level
cases of ``reconstruct_mu_c``, the one site that picks the reader.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .discrete import assemble
from .errors import ConvergenceError, SupportError
from .geometry import Domain, build_grid
from .kernels import green_regular, green_regular_gradient, laplace_fundamental
from .solve import Solution, grid_solution, level_radius

_ANGULAR_RAYS = 64         # rays around each atom (closed-form local energy)
_RADIAL_NODES = 48         # Gauss nodes per ray across the window
_START_NODES = 2_000       # interior nodes of the lattice reader's first lattice, at least
_MAX_REFINE = 5            # lattices tried by the lattice reader


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
    of ``solution.op`` (a = 1 for the Laplacian).

    Two readers.  The closed-form rays serve a closed-form solution of a
    nonnegative measure with no density or with every atom at the ball's
    (or interval's) center, where u falls along every ray from an atom or
    from the center: ``level_radius`` locates the window radii on every ray
    of an origin at once, and Gauss nodes in log r (in r where the window
    reaches the origin) integrate |grad u|^2 along them.  An atom's own
    singular term is read from the radius itself (``_ray_fields``), so a
    window far inside the rounding of the atom's coordinates stays
    resolved.  When the rays of two or more atoms meet the window where
    eta != 0, and for every other solution (grid solutions, a density with
    an off-center atom, a signed measure), the window energy is the
    discrete Dirichlet form of the operator's own matrix on dyadic lattices
    (``_lattice_energies``, to the default 1 % of the larger of the value
    and the target), as for the fractional operator.  An empty window
    (n above max u) gives 0, and so does a Laplacian window that is flat
    wherever eta != 0 (u above 2n on eta's support).  The one-level case of
    ``reconstruct_mu_c``, with the same value.
    """
    if not solution.op.is_local:
        raise SupportError("local_energy applies to local operators only")
    if n <= 0:
        raise SupportError("level must be positive")
    return float(reconstruct_mu_c(solution, eta, [n]).values[0])


def _ray_energies(solution, eta, levels) -> list | None:
    """The closed-form rays' window energy at each level, or None where the
    rays cannot read every level exactly: a grid solution, a signed
    measure, a density with an atom off the center, or rays of two atoms
    meeting one window."""
    mu = solution.measure
    density = mu.density.value if mu.density is not None else 0.0
    if not solution.closed or density < 0.0 or any(w < 0.0 for _, w in mu.atoms):
        return None
    centre = solution.dom.as_ball().center
    if density > 0.0 and any(not np.array_equal(p, centre) for p, _ in mu.atoms):
        return None
    vals = [_local_energy_closed(solution, eta, n) for n in levels]
    return None if None in vals else vals


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
    """Where the closed-form rays start, with the weight of the atom there:
    each positive atom or, with none, the center (weight 0) of a positive
    density; none for the zero measure."""
    mu = solution.measure
    atoms = [(p, w) for p, w in mu.atoms if w > 0]
    if atoms or mu.density is None or mu.density.value == 0:
        return atoms
    return [(solution.dom.as_ball().center, 0.0)]


def _ray_fields(solution, p, w: float) -> tuple:
    """u and grad u at the points p + r d, as functions of the radii r
    (m rows) and the m unit directions d, u flat and grad u one row per
    point.  For an atom of weight w > 0 at p in d >= 2, its singular term
    w Phi(r) and gradient w Phi'(r) d are read from r and d directly, and
    only the smooth rest (the other atoms, the density and the atom's
    Kelvin term) at the rounded points, whose offset from p keeps few digits
    of a small r.  Off the domain u reads 0."""
    dom = solution.dom
    d = dom.dim
    pts = lambda r, dirs: (np.asarray(p) + r[:, :, None] * dirs[:, None, :]).reshape(-1, d)
    if not w > 0 or d == 1:
        return (lambda r, dirs: solution.evaluate(pts(r, dirs)),
                lambda r, dirs: solution.gradient(pts(r, dirs)))
    rest = replace(solution, measure=replace(
        solution.measure, atoms=tuple(a for a in solution.measure.atoms if a[0] != p)))

    def u(r, dirs):
        x = pts(r, dirs)
        own = w * (laplace_fundamental(d, r).ravel() + green_regular(dom, x, p))
        return rest.evaluate(x) + np.where(dom.contains(x), own, 0.0)

    def grad(r, dirs):
        x = pts(r, dirs)
        out = rest.gradient(x) + w * (laplace_fundamental(d, r, slope=True)[:, :, None]
                                      * dirs[:, None, :]).reshape(-1, d)
        kelvin = green_regular_gradient(dom, x, np.asarray(p))
        return out if kelvin is None else out + w * kelvin

    return u, grad


def _local_energy_closed(solution, eta, n):
    """The rays' window energy at level n, or None when the rays of two or
    more atoms meet the window where eta != 0 and could count parts of it
    twice."""
    dom = solution.dom
    d = dom.dim
    gx, gw = np.polynomial.legendre.leggauss(_RADIAL_NODES)
    dirs, ang_w = _ray_directions(d)
    # every ray leaves the convex ball once, within its diameter, and u reads
    # 0 off the domain
    R = np.full(len(dirs), dom.diameter)
    total, seen = 0.0, 0
    for p, w in _ray_origins(solution):
        u_at, grad_at = _ray_fields(solution, p, w)
        rays = lambda r: u_at(r, dirs)
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
        grad = grad_at(rr, dirs[live])
        dens = np.sum(grad * grad, axis=1).reshape(rr.shape)
        pts = (np.asarray(p) + rr[:, :, None] * dirs[live, None, :]).reshape(-1, d)
        v = np.sum(half * gw * eta(pts).reshape(rr.shape) * dens * jac, axis=1)
        seen += bool(np.any(v))
        for wa, v_ray in zip(ang_w[live], v):
            total += wa * float(v_ray)
    return total / n if seen <= 1 else None


# ---------------------------------------------------------------------------
# nonlocal functional
# ---------------------------------------------------------------------------

def nonlocal_energy(solution: Solution, eta: Callable, n: float,
                    rel_tol: float = 0.01) -> float:
    """Fractional-window energy (see module docstring) of the lattice
    solution u = A^{-1} mu of ``solution.measure``, on dyadic lattices from
    the coarsest with ``_START_NODES`` interior nodes, halving h until the
    change between successive lattices is at most rel_tol times the larger
    of the value and the target Int eta d mu_c^+; ConvergenceError if
    ``_MAX_REFINE`` lattices do not get there.

    The one-level case of ``reconstruct_mu_c``, with the same value.  Any
    domain the fractional operator assembles on serves: intervals, balls,
    rectangles and masked rectangles in d <= 3.
    """
    if solution.op.kind != "fractional":
        raise SupportError("nonlocal_energy applies to the fractional operator")
    return float(reconstruct_mu_c(solution, eta, [n], rel_tol).values[0])


def _start_grid(dom: Domain):
    """The lattice of the coarsest dyadic width with at least
    ``_START_NODES`` interior nodes, searched from the width whose cell
    holds 1 / ``_START_NODES`` of the domain's (bounding) volume."""
    h = 2.0 ** math.ceil(math.log2(dom.volume() / _START_NODES) / dom.dim)
    while (grid := build_grid(dom, h)).n_interior < _START_NODES:
        h /= 2.0
    return grid


def _lattice_energy(dop, kappa: np.ndarray, u: np.ndarray, ex: np.ndarray, n: float) -> tuple:
    """(F_n, its rounding bound) of the flat interior values u on the
    lattice of the operator ``dop``, ex = eta at the interior nodes and
    kappa = A 1 its killing (for a local stencil, the leak to the boundary
    nodes):

        F_n = (h^d / 2n) Sum_x ex [ 2v (A D) - A D^2 + kappa D (2v - D) ],

    v = u - n and D = clamp(v, 0, n) = S_n(u) - n.  This is theta_n summed
    against the jump weights T = -A off the diagonal (the fractional
    operator's offset table, a local stencil's neighbour weights) plus its
    killing term, with the diagonal cancelled: two products with A.  An
    empty window (D = 0) reads 0.0 exactly, and so does a Laplacian row
    whose D is flat over its stencil: on a dyadic lattice its entries are
    powers of two, so A D and A D^2 cancel there without rounding.

    The bound is eps times the same sum over the magnitudes of its
    products (Higham, Accuracy and Stability of Numerical Algorithms,
    sec. 3), with |A| = 2 diag - A, as A is nonpositive off its diagonal;
    it needs no further product with A."""
    v = u - n
    D = np.clip(v, 0.0, n)
    AD, AD2 = dop.apply(D), dop.apply(D * D)
    kill = kappa * D * (2.0 * v - D)
    terms = 2.0 * v * AD - AD2 + kill
    sizes = 2.0 * np.abs(v) * (2.0 * dop.diag * D - AD) + (2.0 * dop.diag * D * D - AD2) \
        + np.abs(kill)
    scale = dop.grid.cell_volume() / (2.0 * n)
    return (float(np.einsum("i,i->", ex, terms)) * scale,
            float(np.finfo(float).eps * np.einsum("i,i->", np.abs(ex), sizes)) * scale)


def _target(solution: Solution, eta: Callable) -> float:
    """Int eta d mu_c^+, the eta-mass of the positive concentrated atoms."""
    return sum((w * float(eta(np.asarray(p).reshape(1, -1))[0])
                for p, w in solution.decomposition.concentrated.atoms if w > 0), 0.0)


def _lattice_energies(solution: Solution, eta: Callable, levels: Sequence[float],
                      rel_tol: float = 0.01) -> tuple:
    """``(traces, widths, unknowns, resolvable)``: per level the value of
    ``_lattice_energy`` on each lattice it was read on (0.0 within its
    rounding bound, so a flat window reads 0 on any operator's lattice, not
    its rounding), and per lattice its
    width and unknowns, the first from ``_start_grid`` and each next at
    half the width; per level, whether 2n is at most u at every positive
    concentrated atom's node on its last lattice, the largest node value of
    the atom's cell (unresolvable levels also warn).

    u is the lattice solution of ``solution.measure`` on each lattice,
    closed form or not.  A level stops once its change is at most rel_tol
    times the larger of its value and the target Int eta d mu_c^+, so its
    value depends only on its own lattices, a window that reads about
    nothing ends, and ConvergenceError names the first level that never
    does.
    """
    op, dom = solution.op, solution.dom
    levels = [float(n) for n in levels]
    if any(n <= 0 for n in levels):
        raise SupportError("window level n must be positive")
    atoms = [p for p, w in solution.decomposition.concentrated.atoms if w > 0]
    target = _target(solution, eta)
    traces = [[] for _ in levels]
    widths, unknowns = [], []
    atom_u = np.full(len(levels), np.inf)
    open_levels = list(range(len(levels)))
    for refine in range(_MAX_REFINE):
        if not open_levels:
            break
        grid = _start_grid(dom) if refine == 0 else build_grid(dom, grid.h / 2.0)
        dop = assemble(op, grid)
        u = grid_solution(dop, solution.measure).grid_field.interior_values()
        ex = eta(grid.interior_points())
        kappa = dop.apply(np.ones(dop.n))
        widths.append(grid.h)
        unknowns.append(dop.n)
        on_atoms = np.inf
        if atoms:
            corners, _ = grid.corners(atoms)          # -1 off the interior reads -inf
            on_atoms = float(np.min(np.max(np.append(u, -np.inf)[corners], axis=1)))
        for i in list(open_levels):
            trace = traces[i]
            value, bound = _lattice_energy(dop, kappa, u, ex, levels[i])
            trace.append(value if abs(value) > bound else 0.0)
            atom_u[i] = on_atoms
            if len(trace) > 1 and (abs(trace[-1] - trace[-2])
                                   <= rel_tol * max(abs(trace[-1]), target)):
                open_levels.remove(i)
    if open_levels:
        i = open_levels[0]
        raise ConvergenceError(
            f"window energy at level n={levels[i]:g} did not stabilize below "
            f"{rel_tol:.1%} on {_MAX_REFINE} lattices: trace={traces[i]}")
    resolvable = 2.0 * np.asarray(levels) <= atom_u
    for n, u_node in zip(np.asarray(levels)[~resolvable], atom_u[~resolvable]):
        warnings.warn(f"level n={n:g} has 2n above u = {u_node:.4g} at an atom's node; "
                      f"the window cannot read the atom's mass on this lattice")
    return traces, widths, unknowns, resolvable


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
    traces: list                   # per level: its value on each lattice (rays: the value)
    resolvable: np.ndarray         # per level: 2n at most u at the atoms' nodes (rays: True)
    widths: list                   # per lattice (rays: none): mesh width h
    unknowns: list                 # per lattice: interior nodes


def reconstruct_mu_c(solution: Solution, eta: Callable, levels: Sequence[float],
                     rel_tol: float = 0.01) -> ReconstructionReport:
    """Tabulate the reconstruction functional against the independently known
    eta-mass of mu_c^+ and fit the residual prefactor.

    One reader serves every level: the closed-form rays of ``local_energy``
    when they read each level exactly, else the lattices of
    ``_lattice_energies``, refined to ``rel_tol`` (see ``nonlocal_energy``).
    A persistent fitted prefactor away from 1 is reported loudly (flag), not
    normalized away.  An empty ``levels``, or a level n <= 0, raises
    ``SupportError``.
    """
    levels = np.asarray(sorted(float(n) for n in levels))
    if levels.size == 0 or levels[0] <= 0:
        raise SupportError("levels must hold at least one level, all positive")
    kind = "local" if solution.op.is_local else "nonlocal"
    rays = _ray_energies(solution, eta, levels) if kind == "local" else None
    if rays is not None:
        vals = np.array(rays)
        traces = [[v] for v in vals]
        widths, unknowns, resolvable = [], [], np.ones(levels.size, dtype=bool)
    else:
        traces, widths, unknowns, resolvable = _lattice_energies(solution, eta, levels,
                                                                 rel_tol=rel_tol)
        vals = np.array([trace[-1] for trace in traces])

    target = _target(solution, eta)
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
                                resolvable=resolvable, widths=widths, unknowns=unknowns)
