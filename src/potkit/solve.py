"""Integral solutions u = R^D mu, built one of two ways: ``integral_solution``
superposes kernels for atoms plus density potentials in closed form, and
``grid_solution`` solves A u = (deposited mu) on the lattice of a discrete
operator.

Closed-form paths:
  * laplacian x interval: exact kernel; constant densities through the
    parabola, centred Gaussians through the error function (``DensityPotential``);
  * laplacian x ball (d = 2, 3): atoms by Kelvin reflection; constant densities
    through (R^2 - r^2) / 2d, centred Gaussians through the incomplete gamma
    function and, in the plane, the entire exponential integral Ein;
  * fractional x interval/ball: atoms by the radial ball formula; constant
    densities through (R^2 - r^2)^(alpha/2) / C.
Anything else (divergence operators, rectangles, non-radial densities, any
non-constant fractional density) has no closed form: ``integral_solution``
raises UnsupportedKernelError there, and ``grid_solution`` serves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .discrete import DiscreteOperator
from .errors import SupportError, UnsupportedKernelError
from .geometry import Domain, Grid, GridField
from .kernels import OperatorSpec, frac_torsion_constant, green, green_regular_gradient
from .measures import Decomposition, Density, MeasureData, decompose, deposit

_SUP_SAMPLES = 20001       # sample points of the closed-form sup estimate


def _ein(z):
    """Ein(z) = Int_0^z (1 - e^-t) dt / t = E1(z) + ln z + gamma (DLMF §6.2),
    Ein(0) = 0."""
    from scipy import special
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(z > 0, special.exp1(z) + np.log(z) + np.euler_gamma, 0.0)


class DensityPotential:
    """R^D f of a density f in closed form, on a pair ``closed_form_supported``
    accepts: a constant f under the Laplacian on an interval or ball or under
    the fractional operator, or a Gaussian centred on a Laplacian's interval
    or ball.  ``gradient`` serves the Laplacian.

    With r = |x - c| on the ball (or interval) of centre c and radius R, a
    Gaussian v exp(-r^2 / 2 sigma^2) has the mass
    M(r) = Int_0^r t^(d-1) f = v (2 sigma^2)^(d/2) Gamma(d/2) / 2 P(d/2, z),
    z = r^2 / 2 sigma^2, so grad u = -M(r) / r^d (x - c), and u is
    (v sigma^2 / 2)(Ein(z_R) - Ein(z)) in the plane and
    (R^(2-d) M(R) - r^(2-d) M(r) - v sigma^2 (e^-z - e^-z_R)) / (2 - d)
    for d = 1 and 3.
    """

    def __init__(self, op: OperatorSpec, dom: Domain, density: Density):
        ball = dom.as_ball()
        self.op, self.dom, self.density = op, dom, density
        self.center, self.R, self.d = np.asarray(ball.center), ball.radius, dom.dim

    def _slope(self, r2):
        """M(r) / r^d at r^2 = ``r2``; v / d, its limit, at r = 0."""
        from scipy import special
        d, v, s2 = self.d, self.density.value, self.density.sigma**2
        rd = r2 ** (d / 2.0)
        mass = v * (2.0 * s2) ** (d / 2.0) * special.gamma(d / 2.0) / 2.0 \
            * special.gammainc(d / 2.0, r2 / (2.0 * s2))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(rd > 0, mass / rd, v / d)

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d, R, v = self.d, self.R, self.density.value
        r2 = np.sum((pts - self.center) ** 2, axis=1)
        if self.density.kind == "constant":
            if self.op.kind == "fractional":
                C = frac_torsion_constant(self.op.alpha, d)
                return v * np.maximum(R**2 - r2, 0.0) ** (self.op.alpha / 2.0) / C
            if self.dom.kind == "interval":
                a, b = self.dom.a, self.dom.b
                return v * 0.5 * (pts[:, 0] - a) * (b - pts[:, 0])
            return v * (R**2 - r2) / (2.0 * d)
        s2 = self.density.sigma**2
        z, zR = r2 / (2.0 * s2), R**2 / (2.0 * s2)
        if d == 2:
            return 0.5 * v * s2 * (_ein(zR) - _ein(z))
        return (R**2 * self._slope(R**2) - r2 * self._slope(r2)
                - v * s2 * (np.exp(-z) - np.exp(-zR))) / (2.0 - d)

    def gradient(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rel = pts - self.center
        if self.density.kind == "constant":
            return -self.density.value * rel / self.d
        return -self._slope(np.sum(rel**2, axis=1))[:, None] * rel


def closed_form_supported(op: OperatorSpec, dom: Domain,
                          mu: MeasureData) -> bool:
    if op.kind == "divergence" or dom.kind == "rectangle":
        return False
    if mu.density is None or mu.density.kind == "constant":
        return True
    return op.kind == "laplacian" and mu.density.is_radial_about(dom.as_ball().center)


@dataclass
class Solution:
    """Integral solution u = R^D mu with its measure and decomposition.

    ``evaluate`` is the one way to read u: closed-form values where
    available (+inf exactly at a concentrated atom), else the grid field
    interpolated multilinearly over ``Grid.corners``.  Both vanish off the
    domain.
    """

    op: OperatorSpec
    dom: Domain
    measure: MeasureData
    decomposition: Decomposition
    density_potential: Optional[DensityPotential] = None
    grid_field: Optional[GridField] = None

    @property
    def closed(self) -> bool:
        return self.grid_field is None

    def evaluate(self, points) -> np.ndarray:
        pts = self.dom._check_points(points)
        scalar = np.asarray(points).ndim <= 1
        if self.closed:
            out = np.zeros(pts.shape[0])
            for (p, w) in self.measure.atoms:
                out = out + w * np.asarray(
                    green(self.op, self.dom, pts, np.asarray(p)), dtype=float)
            if self.density_potential is not None:
                out = out + self.density_potential(pts)
        else:
            # multilinear in the grid field; index -1 (off the interior) reads 0
            flat, wts = self.grid_field.grid.corners(pts)
            vals = np.append(self.grid_field.interior_values(), 0.0)
            out = np.zeros(flat.shape[0])
            for c in range(wts.shape[1]):
                out += wts[:, c] * vals[flat[:, c]]
        out = np.where(self.dom.contains(pts), out, 0.0)
        return float(out[0]) if scalar and out.size == 1 else out

    def gradient(self, points) -> np.ndarray:
        """grad u of a closed-form Laplacian on an interval or ball, the only
        solutions with a positive concentrated atom, atoms and density in
        closed form; anything else raises SupportError."""
        if not self.closed or self.op.kind != "laplacian":
            raise SupportError("gradient needs a closed-form laplacian on an "
                               "interval or a ball")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros_like(pts)
        for (p, w) in self.measure.atoms:
            out += w * _green_gradient(self.dom, pts, np.asarray(p))
        if self.density_potential is not None:
            out += self.density_potential.gradient(pts)
        return out

    def max_interior(self) -> float:
        """Sup estimate of |u| away from concentrated atoms: the max of the
        finite |u| over ``_SUP_SAMPLES`` uniform points of the bounding box
        that lie in the domain."""
        box = self.dom.bounding_box
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(lo, hi, _SUP_SAMPLES) for lo, hi in box])
        pts = pts[self.dom.contains(pts)]
        vals = self.evaluate(pts)
        finite = np.isfinite(vals)
        return float(np.max(np.abs(vals[finite]))) if finite.any() else 0.0


def _green_gradient(dom: Domain, x: np.ndarray, a: np.ndarray):
    """grad_x G(x, a) of the Laplacian on a 2-d or 3-d ball, or on an
    interval (l, r): ((r - a) for x < a, (l - a) otherwise) / (r - l)."""
    if dom.dim == 1:
        return np.where(x < a, dom.b - a, dom.a - a) / (dom.b - dom.a)
    ctr = np.asarray(dom.center)
    dist = (x - ctr) - (np.atleast_1d(a).astype(float) - ctr)
    r2 = np.sum(dist**2, axis=1)
    if dom.dim == 2:
        grad = -dist / (2.0 * math.pi * r2[:, None])
    else:
        grad = -dist / (4.0 * math.pi * np.maximum(r2, 1e-300)[:, None] ** 1.5)
    kelvin = green_regular_gradient(dom, x, a)
    return grad if kelvin is None else grad + kelvin


def integral_solution(op: OperatorSpec, dom: Domain, mu: MeasureData) -> Solution:
    """The closed-form integral solution of -L u = mu, u = 0 off D.

    Where ``closed_form_supported`` is false this raises
    UnsupportedKernelError; ``grid_solution`` solves those cases.
    """
    if not closed_form_supported(op, dom, mu):
        raise UnsupportedKernelError(
            f"no closed form for the {op.kind} operator on this {dom.kind} with "
            "this measure; solve it on a lattice with grid_solution")
    dens_pot = None
    if mu.density is not None and mu.density.value != 0.0:
        dens_pot = DensityPotential(op, dom, mu.density)
    return Solution(op=op, dom=dom, measure=mu,
                    decomposition=decompose(mu, op, dom), density_potential=dens_pot)


def grid_solution(dop: DiscreteOperator, mu: MeasureData) -> Solution:
    """The integral solution of -L u = mu on the lattice of ``dop``: its
    solve against the deposited mu, for the operator and domain of ``dop``."""
    op, dom = dop.op, dop.grid.domain
    gf = GridField.from_interior(dop.grid, dop.solve(deposit(mu, dop.grid)))
    return Solution(op=op, dom=dom, measure=mu,
                    decomposition=decompose(mu, op, dom), grid_field=gf)


_LOG_SPLIT = np.linspace(0.0, 1.0, 258)[1:-1]     # inner radii of a bracket, in log r


def level_radius(profile, R, k: float) -> np.ndarray:
    """Radii of the superlevel sets {u > k} on m rows, each a profile
    decreasing on (0, R_i): ``R`` holds the m outer radii and ``profile`` maps
    an (m, j) array of radii to u there.  Row i reads 0 when u never exceeds
    k, R_i when u still reaches k at R_i(1 - 1e-12).

    Each step makes one profile call, on 256 radii per row evenly spaced in
    log r inside the row's bracket, and keeps the pair around the sign change
    of u - k, until every bracket ends on adjacent doubles (about 8 steps);
    closed brackets, and rows resolved at 0 or R_i, are held fixed.  A row
    ends at its bracket's end where u <= k.  Only the sign is read, so u = +inf
    where a point rounds onto an atom does no harm, and circles shrinking like
    e^{-2 pi k} stay resolvable.  A level the profile does not resolve (|x|^2
    underflows below r ~ 1.6e-162, so a planar Dirac resolves k up to about
    58) raises SupportError naming k.
    """
    R = np.asarray(R, dtype=float)
    m, rows = R.size, np.arange(R.size)
    lo, hi = np.full(m, 1e-280), R * (1.0 - 1e-12)
    u = np.reshape(profile(np.stack([lo, hi], axis=1)), (m, 2))
    zero = ~(u[:, 0] > k)
    held = zero | (u[:, 1] >= k)
    lo[held] = hi[held]                  # an empty bracket never steps
    # a step's radii, the bracket's ends around its 256 inner ones, and
    # whether u > k there, closed by False at the outer end
    r, above = np.empty((m, 258)), np.zeros((m, 257), dtype=bool)
    while (step := np.nextafter(lo, hi) < hi).any():
        r[:, 0], r[:, -1], inner = lo, hi, r[:, 1:-1]
        np.multiply(lo[:, None], (hi / lo)[:, None] ** _LOG_SPLIT, out=inner)
        np.clip(inner, np.nextafter(lo, hi)[:, None], np.nextafter(hi, lo)[:, None],
                out=inner)
        np.greater(np.reshape(profile(inner), (m, 256)), k, out=above[:, :-1])
        j = np.argmin(above, axis=1)         # u(r[j]) > k >= u(r[j + 1])
        lo, hi = np.where(step, r[rows, j], lo), np.where(step, r[rows, j + 1], hi)
    if not held.all():
        u = np.reshape(profile(hi[:, None]), m)
        bad = np.flatnonzero(~held & ~(np.abs(u - k) <= 1e-9 * max(abs(k), 1.0)))
        if bad.size:
            raise SupportError(f"level k={k:g} is below the resolution of the radial "
                               f"profile: its smallest resolved radius is about "
                               f"{hi[bad[0]]:.3g}, where u = {u[bad[0]]:.6g}")
    return np.where(zero, 0.0, np.where(held, R, hi))


def l1_rho_norm(solution: Solution, rho_values: np.ndarray, grid: Grid) -> float:
    """||u||_{L^1_rho} on the grid (finite nodes only; atoms are polar-null)."""
    vals = solution.evaluate(grid.interior_points())
    vals = np.where(np.isfinite(vals), vals, 0.0)
    return float(np.sum(np.abs(vals) * rho_values) * grid.cell_volume())
