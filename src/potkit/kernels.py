"""Closed-form kernels for the model operators.

Conventions
-----------
All kernels are for ``-L`` with ``L`` the *full* generator:

* ``laplacian``: L = Delta (not Delta/2).  Exit distributions are invariant
  under the deterministic time change, so harmonic-measure, envelope and
  tail quantities are unaffected by this choice; Green functions scale by
  the constant factor absorbed here.
* ``fractional``: L = -(-Delta)^(alpha/2) with the Fourier-symbol
  normalization |xi|^alpha.  The singular-integral constant is

      c(alpha, d) = 2^alpha * Gamma((d+alpha)/2) / (pi^(d/2) * |Gamma(-alpha/2)|),

  i.e. the constant making  (-Delta)^(alpha/2) u (x) =
  c(alpha,d) p.v. Integral (u(x)-u(y)) |x-y|^(-d-alpha) dy  agree with the
  symbol.  The quadratic form then reads

      E(u, u) = (c(alpha,d)/2) IntInt (u(x)-u(y))^2 |x-y|^(-d-alpha) dx dy,

  so the symmetric jump measure carries half the pointwise kernel while the
  killing density of the restriction to D carries the full constant
  (both-sided pair counting):  kappa_D(x) = c(alpha,d) Int_{D^c} |x-y|^(-d-alpha) dy.

Green functions: interval/ball for the Laplacian (Kelvin reflection), and
the classical radial formula for the fractional ball expressed through the
regularized incomplete beta function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate, special

from .errors import AssemblyError, SupportError, UnsupportedKernelError
from .geometry import Domain


@dataclass(frozen=True)
class OperatorSpec:
    """Which generator: laplacian, divergence-form with a coefficient field,
    or fractional with stability index alpha in (0, 2)."""

    kind: str
    alpha: Optional[float] = None
    coeff: Optional[Callable] = None   # points (N,d) -> (N,) or (N,d) diagonal coefficients
    lam: float = 1.0
    Lam: float = 1.0

    @staticmethod
    def laplacian() -> "OperatorSpec":
        return OperatorSpec(kind="laplacian")

    @staticmethod
    def fractional(alpha: float) -> "OperatorSpec":
        if not 0.0 < alpha < 2.0:
            raise ValueError(f"fractional index must lie strictly in (0,2), got {alpha}")
        return OperatorSpec(kind="fractional", alpha=float(alpha))

    @staticmethod
    def divergence(coeff: Callable, lam: float, Lam: float) -> "OperatorSpec":
        if not 0.0 < lam <= Lam:
            raise ValueError("need 0 < lam <= Lam")
        return OperatorSpec(kind="divergence", coeff=coeff, lam=lam, Lam=Lam)

    @property
    def is_local(self) -> bool:
        return self.kind in ("laplacian", "divergence")

    def coeff_at(self, pts: np.ndarray, axis: int) -> np.ndarray:
        """The coefficient along ``axis`` at points (N, d): the values of a
        scalar field, or the axis's entry of a diagonal tensor field."""
        vals = np.asarray(self.coeff(pts), dtype=float)
        if vals.ndim == 1:
            return vals
        if vals.ndim == 2 and vals.shape[1] == pts.shape[1]:
            return vals[:, axis]
        raise AssemblyError(
            "coefficient field must return (N,) scalars or (N,d) diagonal entries; "
            "full anisotropic tensors are not supported by the stencil assembly")


# ---------------------------------------------------------------------------
# normalization constants
# ---------------------------------------------------------------------------

def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d (omega_{d-1})."""
    return 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)


def frac_constant(alpha: float, d: int) -> float:
    """c(alpha, d): singular-integral constant of (-Delta)^(alpha/2)."""
    # |Gamma(-alpha/2)| = (2/alpha) * Gamma(1 - alpha/2)
    return (2.0**alpha * math.gamma((d + alpha) / 2.0)
            / (math.pi ** (d / 2) * (2.0 / alpha) * math.gamma(1.0 - alpha / 2.0)))


def riesz_constant(alpha: float, d: int) -> float:
    """Free-space Riesz kernel constant: G_free(x,y) = C |x-y|^(alpha-d) for alpha < d."""
    return (math.gamma((d - alpha) / 2.0)
            / (2.0**alpha * math.pi ** (d / 2) * math.gamma(alpha / 2.0)))


def ball_green_constant(alpha: float, d: int) -> float:
    """Radial-formula constant for the fractional Green function of a ball."""
    return (math.gamma(d / 2.0)
            / (2.0**alpha * math.pi ** (d / 2) * math.gamma(alpha / 2.0) ** 2))


def frac_poisson_constant(alpha: float, d: int) -> float:
    """Exit-density constant for the fractional ball."""
    return (math.gamma(d / 2.0) * math.sin(math.pi * alpha / 2.0)
            / math.pi ** (d / 2 + 1))


def frac_torsion_constant(alpha: float, d: int) -> float:
    """C such that the potential of the unit density on the unit ball is
    (1 - |x|^2)^(alpha/2) / C."""
    return (2.0**alpha * math.gamma(1.0 + alpha / 2.0)
            * math.gamma((d + alpha) / 2.0) / math.gamma(d / 2.0))


def constants_table(alpha: float = 0.5, d: int = 1) -> dict:
    """All normalization constants for audit (CLI `constants` subcommand)."""
    return {
        "frac_constant": frac_constant(alpha, d),
        "riesz_constant": riesz_constant(alpha, d) if alpha < d else float("nan"),
        "ball_green_constant": ball_green_constant(alpha, d),
        "frac_poisson_constant": frac_poisson_constant(alpha, d),
        "frac_torsion_constant": frac_torsion_constant(alpha, d),
        "sphere_area": sphere_area(d),
        "jump_measure_factor": 0.5,
    }


# ---------------------------------------------------------------------------
# polarity (diagonal blow-up) rule
# ---------------------------------------------------------------------------

def points_polar(op: OperatorSpec, d: int) -> bool:
    """Whether singletons are polar, decided by diagonal Green blow-up:
    laplacian iff d >= 2, fractional iff alpha <= d."""
    if op.kind == "laplacian":
        return d >= 2
    if op.kind == "fractional":
        return op.alpha <= d
    # divergence-form comparable to the Laplacian under the ellipticity bounds
    return d >= 2


# ---------------------------------------------------------------------------
# Green functions
# ---------------------------------------------------------------------------

def _as_points(x, d: int) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[-1] != d:
        if d == 1:
            pts = pts.reshape(-1, 1)
        else:
            raise SupportError(f"point dimension {pts.shape[-1]} != {d}")
    return pts


def _green_laplace_interval(a: float, b: float, x, y):
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    return (lo - a) * (b - hi) / (b - a)


def _green_laplace_ball(dom: Domain, x, y):
    d = dom.dim
    c = np.asarray(dom.center)
    R = dom.radius
    X = _as_points(x, d) - c
    Y = _as_points(y, d) - c
    X, Y = np.broadcast_arrays(X, Y)
    dist = np.linalg.norm(X - Y, axis=1)
    ry = np.linalg.norm(Y, axis=1)
    # Kelvin reflection y* = R^2 y / |y|^2; |y||x - y*|/R -> via the identity
    # |y|^2 |x-y*|^2 = |y|^2|x|^2 - 2 R^2 x.y + R^4, stable as y -> center.
    rx2 = np.sum(X * X, axis=1)
    xy = np.sum(X * Y, axis=1)
    refl = np.sqrt(np.maximum(ry**2 * rx2 - 2.0 * R**2 * xy + R**4, 0.0)) / R
    with np.errstate(divide="ignore"):
        if d == 2:
            val = np.log(refl / dist) / (2.0 * math.pi)
        elif d == 3:
            val = (1.0 / dist - 1.0 / refl) / (4.0 * math.pi)
        else:
            raise UnsupportedKernelError("laplacian ball Green needs d in {1,2,3}")
    val = np.where(dist == 0.0, np.inf, val)
    return val


def _green_frac_ball(op: OperatorSpec, dom: Domain, x, y):
    alpha, d = op.alpha, dom.dim
    c = np.asarray(dom.center)
    R = dom.radius
    X = _as_points(x, d) - c
    Y = _as_points(y, d) - c
    X, Y = np.broadcast_arrays(X, Y)
    dist = np.linalg.norm(X - Y, axis=1)
    rx2 = np.sum(X * X, axis=1)
    ry2 = np.sum(Y * Y, axis=1)
    kappa = ball_green_constant(alpha, d)
    a_par = alpha / 2.0
    b_par = (d - alpha) / 2.0
    out = np.empty_like(dist)
    diag = dist == 0.0
    nd = ~diag
    z = np.empty_like(dist)
    z[nd] = ((R**2 - rx2[nd]) * (R**2 - ry2[nd])) / (R**2 * dist[nd] ** 2)
    if alpha < d:
        # Int_0^z s^(a-1) (1+s)^(-d/2) ds = B(a, b) * I_{z/(1+z)}(a, b)
        inc = special.betainc(a_par, b_par, z[nd] / (1.0 + z[nd])) * special.beta(a_par, b_par)
        out[nd] = kappa * dist[nd] ** (alpha - d) * inc
        out[diag] = np.inf
    else:
        # alpha >= d (d=1): hypergeometric closed form of the radial integral,
        # Int_0^z s^(a-1)(1+s)^(-d/2) ds = (z^a / a) 2F1(d/2, a; a+1; -z);
        # diverges as z -> inf (log for alpha = d), finite diagonal above
        zs = z[nd]
        vals = (zs ** a_par / a_par) * special.hyp2f1(d / 2.0, a_par,
                                                      a_par + 1.0, -zs)
        out[nd] = kappa * dist[nd] ** (alpha - d) * vals
        if alpha == d:
            out[diag] = np.inf
        else:
            out[diag] = (2.0 * kappa / (alpha - d)) * \
                ((R**2 - rx2[diag]) / R) ** (alpha - d)
    return out


def green(op: OperatorSpec, dom: Domain, x, y):
    """Green function G_D(x, y) of -L with zero exterior condition.

    Supported closed forms: laplacian x {interval, ball d<=3} and
    fractional x {interval, ball d<=3}.  Returns +inf on the diagonal when
    points are polar (laplacian d>=2, fractional alpha<=d) and the finite
    closed form otherwise.  Scalar in, scalar out; arrays broadcast.
    """
    scalar = np.asarray(x, dtype=float).ndim <= 1 and np.asarray(y, dtype=float).ndim <= 1
    if op.kind == "divergence":
        raise UnsupportedKernelError(
            "no closed-form Green function for divergence-form operators; "
            "use discrete_green on an assembled grid operator")
    if dom.kind == "rectangle":
        raise UnsupportedKernelError(
            "no closed-form Green function on rectangles; use discrete_green")
    if op.kind == "laplacian":
        if dom.dim == 1:   # an interval, or the 1d ball with the same endpoints
            val = _green_laplace_interval(*dom.bounding_box[0], x, y)
        else:
            val = _green_laplace_ball(dom, x, y)
    else:
        val = _green_frac_ball(op, dom.as_ball(), x, y)
    return float(val[0]) if scalar and np.size(val) == 1 else val


# ---------------------------------------------------------------------------
# Poisson kernels (exit densities)
# ---------------------------------------------------------------------------

def poisson_kernel(op: OperatorSpec, dom: Domain, x, z):
    """Density of the exit distribution from the ball, started at interior x.

    laplacian: classical kernel on the sphere |z - center| = radius;
    fractional: exit-by-jump density supported strictly outside the closed
    ball.  Both integrate to one over their support.  For d = 1 (interval)
    the laplacian kernel degenerates to point masses at the two endpoints
    and the returned value is the hitting probability of z.
    """
    if dom.kind == "rectangle":
        raise UnsupportedKernelError("poisson_kernel requires a ball or interval domain")
    dom_ball = dom.as_ball()
    d = dom_ball.dim
    c = np.asarray(dom_ball.center)
    R = dom_ball.radius
    X = _as_points(x, d) - c
    Z = _as_points(z, d) - c
    X, Z = np.broadcast_arrays(X, Z)
    rx = np.linalg.norm(X, axis=1)
    rz = np.linalg.norm(Z, axis=1)
    if np.any(rx >= R):
        raise SupportError("x must be an interior point")
    scalar = np.asarray(z, dtype=float).ndim <= 1

    if op.kind == "laplacian":
        if d == 1:
            # two-point boundary: hitting probabilities
            val = np.where(Z[:, 0] > X[:, 0],
                           (X[:, 0] + R) / (2.0 * R),
                           (R - X[:, 0]) / (2.0 * R))
            if np.any(np.abs(rz - R) > 1e-12 * R):
                raise SupportError("z must be a boundary endpoint")
        else:
            if np.any(np.abs(rz - R) > 1e-9 * R):
                raise SupportError("z must lie on the boundary sphere")
            dist = np.linalg.norm(X - Z, axis=1)
            val = (R**2 - rx**2) / (sphere_area(d) * R * dist**d)
    elif op.kind == "fractional":
        if np.any(rz <= R):
            raise SupportError(
                "fractional exit lands strictly outside the closed ball")
        alpha = op.alpha
        C = frac_poisson_constant(alpha, d)
        dist = np.linalg.norm(X - Z, axis=1)
        val = C * ((R**2 - rx**2) / (rz**2 - R**2)) ** (alpha / 2.0) / dist**d
    else:
        raise UnsupportedKernelError("poisson_kernel supports laplacian and fractional")
    return float(val[0]) if scalar and np.size(val) == 1 else val


# ---------------------------------------------------------------------------
# jump kernel and killing density (fractional)
# ---------------------------------------------------------------------------

def jump_kernel(alpha: float, d: int, x, y):
    """Pointwise jump intensity c(alpha,d) |x-y|^(-d-alpha).

    This is the full singular-integral kernel; the symmetric jump *measure*
    on ordered pairs carries half of it (see module docstring).
    """
    X = _as_points(x, d)
    Y = _as_points(y, d)
    X, Y = np.broadcast_arrays(X, Y)
    dist = np.linalg.norm(X - Y, axis=1)
    if np.any(dist == 0.0):
        raise SupportError("jump kernel undefined on the diagonal x = y")
    val = frac_constant(alpha, d) * dist ** (-d - alpha)
    scalar = np.asarray(x, dtype=float).ndim <= 1 and np.asarray(y, dtype=float).ndim <= 1
    return float(val[0]) if scalar and np.size(val) == 1 else val


def killing_density(alpha: float, dom: Domain, x):
    """kappa_D(x) = c(alpha,d) Int_{D^c} |x-y|^(-d-alpha) dy for the fractional
    operator of index alpha.

    Interval: closed form (c/alpha) [(x-a)^(-alpha) + (b-x)^(-alpha)].
    Ball d in {2,3}: radial quadrature of the complement integral.
    """
    if dom.kind == "rectangle":
        raise UnsupportedKernelError("killing_density needs an interval or ball domain")
    d = dom.dim
    c = frac_constant(alpha, d)
    if d == 1:
        a, b = dom.bounding_box[0]
        xv = np.asarray(x, dtype=float).reshape(-1)
        if np.any((xv <= a) | (xv >= b)):
            raise SupportError("x must be interior")
        val = (c / alpha) * ((xv - a) ** (-alpha) + (b - xv) ** (-alpha))
        return float(val[0]) if np.size(val) == 1 else val

    R = dom.radius
    ctr = np.asarray(dom.center)
    pts = _as_points(x, d) - ctr
    rr = np.linalg.norm(pts, axis=1)
    if np.any(rr >= R):
        raise SupportError("x must be interior")

    # nodes at one radius share the complement integral: one quadrature per
    # distinct radius, all with the same angular rule
    radii, inverse = np.unique(rr, return_inverse=True)
    rule = _half_circle_rule() if d == 2 else None
    vals = np.array([c * _complement_integral(alpha, d, R, r, rule) for r in radii])
    out = vals[inverse]
    scalar = np.asarray(x, dtype=float).ndim <= 1
    return float(out[0]) if scalar and np.size(out) == 1 else out


def _half_circle_rule() -> tuple:
    """96-point Gauss-Legendre nodes and weights on the angle range [0, pi]."""
    theta, wt = np.polynomial.legendre.leggauss(96)
    return 0.5 * (theta + 1.0) * math.pi, wt * 0.5 * math.pi


def _complement_integral(alpha: float, d: int, R: float, r: float, rule) -> float:
    """Int_{|y| > R} |x - y|^(-d-alpha) dy for |x| = r < R, radial quadrature;
    d = 2 integrates the angle with ``rule`` (``_half_circle_rule``), the
    symmetric half of the circle."""
    if d == 2:
        theta, wt = rule

        def shell(s):
            q = (r**2 + s**2 - 2.0 * r * s * np.cos(theta)) ** (-(d + alpha) / 2.0)
            return 2.0 * s * float(np.dot(wt, q))
    elif d == 3:
        def shell(s):
            p = 1.0 + alpha
            return (2.0 * math.pi / (r * s * p)) * ((s - r) ** (-p) - (s + r) ** (-p)) * s**2 \
                if r > 0 else 4.0 * math.pi * s**2 * s ** (-(d + alpha))
    else:
        raise UnsupportedKernelError("killing_density ball supports d in {1,2,3}")
    val, _ = integrate.quad(shell, R, np.inf, limit=200)
    return val

