"""Integral solutions u = R^D mu: kernel superposition for atoms plus density
potentials, with a discrete fallback on grids.

Closed-form paths:
  * laplacian x interval: exact kernel, density potential by cumulative
    quadrature of the product kernel;
  * laplacian x ball (d = 2, 3): atoms by Kelvin reflection, radial densities
    through the angular average of the kernel (log / Newton kernel of the
    larger radius);
  * fractional x interval/ball: atoms by the radial ball formula; constant
    densities through (R^2 - r^2)^(alpha/2) / C.
Anything else solves A u = (deposited mu) on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .discrete import DiscreteOperator, assemble
from .errors import SupportError, UnsupportedKernelError
from .geometry import Domain, Grid, GridField
from .kernels import OperatorSpec, frac_torsion_constant, green, sphere_area
from .measures import Decomposition, Density, MeasureData, decompose, deposit

_RADIAL_NODES = 4097
_SUP_SAMPLES = 20001       # sample points of the closed-form sup estimate


class RadialPotential:
    """Potential of a radial density on a centered ball / interval, evaluated
    through cumulative quadrature of the angular-averaged kernel."""

    def __init__(self, op: OperatorSpec, dom: Domain, density: Density):
        self.op, self.dom, self.density = op, dom, density
        if dom.dim == 1:
            self._build_interval()
        else:
            self._build_ball()

    def _build_interval(self):
        a, b = self.dom.bounding_box[0]
        x = np.linspace(a, b, _RADIAL_NODES)
        f = self.density(x.reshape(-1, 1))
        # u(x) = (b-x)/(b-a) Int_a^x (y-a) f dy + (x-a)/(b-a) Int_x^b (b-y) f dy
        from scipy.integrate import cumulative_trapezoid
        I1 = cumulative_trapezoid((x - a) * f, x, initial=0.0)
        I2_full = cumulative_trapezoid((b - x) * f, x, initial=0.0)
        I2 = I2_full[-1] - I2_full
        u = ((b - x) * I1 + (x - a) * I2) / (b - a)
        self._x, self._u = x, u

    def _build_ball(self):
        d, R = self.dom.dim, self.dom.radius
        area = sphere_area(d)
        r = np.linspace(0.0, R, _RADIAL_NODES)
        ctr = np.asarray(self.dom.center)
        pts = ctr + np.outer(r, np.eye(d)[0])
        f = self.density(pts)
        from scipy.integrate import cumulative_trapezoid
        # angular average of the Green kernel: (1/2pi) ln(R/max(r,s)) for d=2,
        # (1/4pi)(1/max(r,s) - 1/R) for d=3, of the source shell s
        w = f * area * r ** (d - 1)
        if d == 2:
            M1 = cumulative_trapezoid(w, r, initial=0.0)            # Int_0^r w ds
            M2_full = cumulative_trapezoid(w * np.log(R / np.maximum(r, 1e-300)),
                                           r, initial=0.0)
            M2 = M2_full[-1] - M2_full
            with np.errstate(divide="ignore"):
                u = (np.log(R / np.maximum(r, 1e-300)) * M1 + M2) / (2.0 * math.pi)
            u[0] = M2[0] / (2.0 * math.pi)
        else:  # d == 3
            M1 = cumulative_trapezoid(w, r, initial=0.0)
            M2_full = cumulative_trapezoid(w / np.maximum(r, 1e-300), r, initial=0.0)
            M2_full[0] = 0.0
            M2 = M2_full[-1] - M2_full
            with np.errstate(divide="ignore"):
                u = ((1.0 / np.maximum(r, 1e-300)) * M1 + M2
                     - M1[-1] / R) / (4.0 * math.pi)
            u[0] = (M2[0] - M1[-1] / R) / (4.0 * math.pi)
        self._x, self._u = r, u

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.dom.dim == 1:
            q = pts[:, 0]
        else:
            q = np.linalg.norm(pts - np.asarray(self.dom.center), axis=1)
        return np.interp(q, self._x, self._u, left=self._u[0], right=0.0)

    def gradient(self, points) -> np.ndarray:
        """Finite-difference gradient of the radial profile (central, fine grid)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        eps = (self._x[1] - self._x[0])
        if self.dom.dim == 1:
            q = pts[:, 0]
            du = (np.interp(q + eps, self._x, self._u, right=0.0)
                  - np.interp(q - eps, self._x, self._u, right=0.0)) / (2 * eps)
            return du.reshape(-1, 1)
        ctr = np.asarray(self.dom.center)
        rel = pts - ctr
        q = np.linalg.norm(rel, axis=1)
        du = (np.interp(q + eps, self._x, self._u, right=0.0)
              - np.interp(np.maximum(q - eps, 0.0), self._x, self._u)) / (2 * eps)
        unit = np.where(q[:, None] > 0, rel / np.maximum(q, 1e-300)[:, None], 0.0)
        return du[:, None] * unit


def _constant_density_potential(op: OperatorSpec, dom: Domain, value: float):
    """Closed-form R^D(value * 1) where available, else None."""
    if op.kind == "laplacian":
        if dom.kind == "interval":
            a, b = dom.a, dom.b
            return lambda pts: value * 0.5 * (np.atleast_2d(pts)[:, 0] - a) \
                * (b - np.atleast_2d(pts)[:, 0])
        if dom.kind == "ball":
            d, R = dom.dim, dom.radius
            ctr = np.asarray(dom.center)

            def pot(pts):
                r2 = np.sum((np.atleast_2d(pts) - ctr) ** 2, axis=1)
                return value * (R**2 - r2) / (2.0 * d)
            return pot
    if op.kind == "fractional" and dom.kind in ("interval", "ball"):
        alpha = op.alpha
        d = dom.dim
        C = frac_torsion_constant(alpha, d)
        ball = dom.as_ball()
        ctr, R = np.asarray(ball.center), ball.radius

        def pot(pts):
            r2 = np.sum((np.atleast_2d(pts) - ctr) ** 2, axis=1)
            return value * np.maximum(R**2 - r2, 0.0) ** (alpha / 2.0) / C
        return pot
    return None


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

    ``evaluate`` returns closed-form values where available (+inf exactly at
    a concentrated atom); discrete solutions interpolate the grid field.
    The solution vanishes off the domain by convention.
    """

    op: OperatorSpec
    dom: Domain
    measure: MeasureData
    decomposition: Decomposition
    closed: bool
    density_potential: object = None          # callable pts -> values, or None
    grid_field: Optional[GridField] = None
    dop: Optional[DiscreteOperator] = None
    _sup_estimate: float = field(default=None, repr=False)

    def evaluate(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        scalar = np.asarray(points).ndim <= 1
        if self.closed:
            out = np.zeros(pts.shape[0])
            for (p, w) in self.measure.atoms:
                out = out + w * np.asarray(
                    green(self.op, self.dom, pts, np.asarray(p)), dtype=float)
            if self.density_potential is not None:
                out = out + self.density_potential(pts)
            inside = self.dom.contains(pts)
            out = np.where(inside, out, 0.0)
        else:
            out = self._interp_grid(pts)
        return float(out[0]) if scalar and out.size == 1 else out

    def _interp_grid(self, pts: np.ndarray) -> np.ndarray:
        g = self.grid_field.grid
        vals = self.grid_field.values
        rel = (pts - g.domain.anchor) / g.h - np.asarray(g.offset)
        base = np.floor(rel).astype(int)
        frac = rel - base
        out = np.zeros(pts.shape[0])
        for mask in range(2**g.dim):
            idx = tuple(np.clip(base[:, k] + ((mask >> k) & 1), 0, g.shape[k] - 1)
                        for k in range(g.dim))
            w = np.ones(pts.shape[0])
            for k in range(g.dim):
                w = w * np.where((mask >> k) & 1, frac[:, k], 1.0 - frac[:, k])
            out += w * vals[idx]
        return out

    def gradient(self, points) -> np.ndarray:
        """Closed-form gradient (atoms analytic, density via radial profile)."""
        if not self.closed:
            raise SupportError("gradient available on the closed-form path only")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros_like(pts)
        for (p, w) in self.measure.atoms:
            out += w * _green_gradient(self.op, self.dom, pts, np.asarray(p))
        if self.density_potential is not None:
            if isinstance(self.density_potential, RadialPotential):
                out += self.density_potential.gradient(pts)
            else:
                out += _numeric_gradient(self.density_potential, pts)
        return out

    def max_interior(self) -> float:
        """Cheap sup estimate of |u| away from concentrated atoms: the grid
        field's max, or the max over ``_SUP_SAMPLES`` uniform points of the
        bounding box that lie in the domain."""
        if self._sup_estimate is not None:
            return self._sup_estimate
        if self.grid_field is not None:
            vals = self.grid_field.interior_values()
            self._sup_estimate = float(np.max(np.abs(vals))) if vals.size else 0.0
            return self._sup_estimate
        box = self.dom.bounding_box
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(lo, hi, _SUP_SAMPLES) for lo, hi in box])
        pts = pts[self.dom.contains(pts)]
        vals = self.evaluate(pts)
        finite = np.isfinite(vals)
        self._sup_estimate = float(np.max(np.abs(vals[finite]))) if finite.any() else 0.0
        return self._sup_estimate


def _green_gradient(op: OperatorSpec, dom: Domain, x: np.ndarray, a: np.ndarray):
    """grad_x G(x, a) for the closed-form kernels (laplacian and fractional)."""
    if op.kind == "laplacian":
        if dom.dim == 1:
            lo, hi = dom.bounding_box[0]
            xv = x[:, 0]
            av = float(np.atleast_1d(a)[0])
            gx = np.where(xv < av, (hi - av) / (hi - lo), -(av - lo) / (hi - lo))
            return gx.reshape(-1, 1)
        ctr = np.asarray(dom.center)
        R = dom.radius
        X = x - ctr
        A = np.atleast_1d(a).astype(float) - ctr
        dist = X - A
        r2 = np.sum(dist**2, axis=1)
        # reflected pole A* = R^2 A / |A|^2 with charge scaling
        a2 = float(np.sum(A * A))
        if dom.dim == 2:
            grad = -dist / (2.0 * math.pi * r2[:, None])
            if a2 > 0:
                Astar = R**2 * A / a2
                dist2 = X - Astar
                r22 = np.sum(dist2**2, axis=1)
                grad += dist2 / (2.0 * math.pi * r22[:, None])
            # atom at the center: the reflected factor is constant, no gradient
            return grad
        if dom.dim == 3:
            grad = -dist / (4.0 * math.pi * np.maximum(r2, 1e-300)[:, None] ** 1.5)
            if a2 > 0:
                Astar = R**2 * A / a2
                q = R / math.sqrt(a2)
                dist2 = X - Astar
                r23 = np.sum(dist2**2, axis=1) ** 1.5
                grad += q * dist2 / (4.0 * math.pi * np.maximum(r23, 1e-300)[:, None])
            return grad
    # fractional and anything else: numeric differentiation of the kernel
    def f(p):
        return np.asarray(green(op, dom, p, a), dtype=float)
    return _numeric_gradient(f, x)


def _numeric_gradient(f, pts: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    out = np.zeros_like(pts)
    for k in range(pts.shape[1]):
        dp = np.zeros(pts.shape[1])
        dp[k] = eps
        out[:, k] = (np.asarray(f(pts + dp)) - np.asarray(f(pts - dp))) / (2 * eps)
    return out


def integral_solution(op: OperatorSpec, dom: Domain, mu: MeasureData,
                      grid: Optional[Grid] = None,
                      dop: Optional[DiscreteOperator] = None,
                      prefer: str = "auto") -> Solution:
    """Build the integral solution of -L u = mu, u = 0 off D.

    Closed form when the (operator, domain, density) combination supports it
    and ``prefer`` != "grid"; otherwise a discrete solve on the supplied grid.
    """
    dec = decompose(mu, op, dom)
    use_closed = prefer != "grid" and closed_form_supported(op, dom, mu)
    if use_closed:
        dens_pot = None
        if mu.density is not None:
            if mu.density.kind == "constant":
                if mu.density.value != 0.0:
                    dens_pot = _constant_density_potential(op, dom, mu.density.value)
            else:
                dens_pot = RadialPotential(op, dom, mu.density)
        return Solution(op=op, dom=dom, measure=mu, decomposition=dec,
                        closed=True, density_potential=dens_pot,
                        dop=dop, grid_field=None)
    if dop is None:
        if grid is None:
            raise UnsupportedKernelError(
                "no closed form for this combination; supply a grid for the "
                "discrete solve")
        dop = assemble(op, grid)
    rhs = deposit(mu, dop.grid)
    flat = dop.solve(rhs)
    gf = GridField.from_interior(dop.grid, flat)
    return Solution(op=op, dom=dom, measure=mu, decomposition=dec,
                    closed=False, grid_field=gf, dop=dop)


def potential(op: OperatorSpec, dom: Domain, rho,
              grid: Optional[Grid] = None,
              dop: Optional[DiscreteOperator] = None):
    """R^D rho for a nonnegative density rho (Density or constant float).

    Returns a callable evaluator.  Used as the fixed test potential in tail
    functionals and verdict targets.
    """
    if isinstance(rho, (int, float)):
        rho = Density.constant(float(rho))
    mu = MeasureData(atoms=(), density=rho)
    sol = integral_solution(op, dom, mu, grid=grid, dop=dop)
    return sol.evaluate


def l1_rho_norm(solution: Solution, rho_values: np.ndarray, grid: Grid) -> float:
    """||u||_{L^1_rho} on the grid (finite nodes only; atoms are polar-null)."""
    vals = solution.evaluate(grid.interior_points()) if solution.closed \
        else solution.grid_field.interior_values()
    vals = np.where(np.isfinite(vals), vals, 0.0)
    return float(np.sum(np.abs(vals) * rho_values) * grid.cell_volume())
