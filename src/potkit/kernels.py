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
  (both-sided pair counting):  kappa_D(x) = c(alpha,d) Int_{D^c} |x-y|^(-d-alpha) dy,
  in closed form on balls and intervals (``killing_density``).

Green functions: interval/ball for the Laplacian (Kelvin reflection), and
the classical radial formula for the fractional ball expressed through the
incomplete beta function, summed by its own series (``_incomplete_beta``).
scipy.special serves only closed forms that no benchmark pass reads, and is
imported inside the functions that call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

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

def _centred(ball: Domain, x, y):
    """The points x and y of ``ball`` relative to its centre, broadcast
    together."""
    c = np.asarray(ball.center)
    return np.broadcast_arrays(ball._check_points(x) - c, ball._check_points(y) - c)


def _green_laplace_interval(dom: Domain, x, y):
    a, b = dom.bounding_box[0]
    x = dom._check_points(x)[:, 0]
    y = dom._check_points(y)[:, 0]
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    return (lo - a) * (b - hi) / (b - a)


def _kelvin_distance(X, Y, R: float):
    """|y| |x - y*| / R for the Kelvin reflection y* = R^2 y / |y|^2, from
    centred x and y, via the identity
    |y|^2 |x-y*|^2 = |y|^2|x|^2 - 2 R^2 x.y + R^4, stable as y -> center."""
    ry = np.linalg.norm(Y, axis=1)
    rx2 = np.sum(X * X, axis=1)
    xy = np.sum(X * Y, axis=1)
    return np.sqrt(np.maximum(ry**2 * rx2 - 2.0 * R**2 * xy + R**4, 0.0)) / R


def laplace_fundamental(d: int, r, slope: bool = False):
    """The Laplacian's fundamental solution Phi(r) in d = 2 (-log(r) / 2 pi)
    and d = 3 (1 / 4 pi r); with ``slope``, its derivative
    Phi'(r) = -1 / (|S^(d-1)| r^(d-1))."""
    r = np.asarray(r, dtype=float)
    if slope:
        return -1.0 / (sphere_area(d) * r ** (d - 1))
    return -np.log(r) / (2.0 * math.pi) if d == 2 else 1.0 / (4.0 * math.pi * r)


def green_regular(dom: Domain, x, y):
    """G_D(x, y) - Phi(|x - y|) of the Laplacian on a 2-d or 3-d ball: the
    Kelvin term log(|y| |x - y*| / R) / 2 pi, or -R / (4 pi |y| |x - y*|),
    smooth in x and finite at x = y."""
    X, Y = _centred(dom, x, y)
    refl = _kelvin_distance(X, Y, dom.radius)
    if dom.dim == 2:
        return np.log(refl) / (2.0 * math.pi)
    return -1.0 / (4.0 * math.pi * refl)


def green_regular_gradient(dom: Domain, x, a):
    """grad_x of ``green_regular`` on a 2-d or 3-d ball, x of shape (m, d):
    the reflected pole A* = R^2 A / |A|^2 with its charge; None for a pole
    at the centre, where the reflected term is constant."""
    ctr = np.asarray(dom.center)
    R = dom.radius
    X = x - ctr
    A = np.atleast_1d(a).astype(float) - ctr
    a2 = float(np.sum(A * A))
    if not a2 > 0:
        return None
    dist2 = X - R**2 * A / a2
    if dom.dim == 2:
        return dist2 / (2.0 * math.pi * np.sum(dist2**2, axis=1)[:, None])
    q = R / math.sqrt(a2)
    r23 = np.sum(dist2**2, axis=1) ** 1.5
    return q * dist2 / (4.0 * math.pi * np.maximum(r23, 1e-300)[:, None])


def _green_laplace_ball(dom: Domain, x, y):
    d = dom.dim
    X, Y = _centred(dom, x, y)
    dist = np.linalg.norm(X - Y, axis=1)
    refl = _kelvin_distance(X, Y, dom.radius)
    with np.errstate(divide="ignore"):
        if d == 2:
            val = np.log(refl / dist) / (2.0 * math.pi)
        else:
            val = (1.0 / dist - 1.0 / refl) / (4.0 * math.pi)
    val = np.where(dist == 0.0, np.inf, val)
    return val


def _incomplete_beta(a: float, b: float, x) -> np.ndarray:
    """B_x(a, b) = Int_0^x t^(a-1) (1 - t)^(b-1) dt for a, b > 0 and x in
    [0, 1].  Up to 1/2 it is the series x^a Sum_k (1 - b)_k x^k / (k! (a + k))
    of DLMF 8.17.7.  Above, with y = 1 - x (exact there), it is B_{1/2}(a, b)
    plus the rest of the integral read in s = 1 - t (DLMF 8.17.4), the same
    series in s from y to 1/2.  Its k = 0 term ((1/2)^b - y^b) / b comes
    from expm1, and the rest at 1/2 and at y are at most 1 each, against
    a sum above B_{1/2}(a, b) > 1/3 (a < 1, b < 3/2, as the fractional
    Green function has them), so no digits are lost where
    B(a, b) - B_y(b, a) would lose them to B(a, b) ~ 1/b as b -> 0."""
    x = np.asarray(x, dtype=float)
    high = x > 0.5
    out = np.empty_like(x)
    t = x[~high]
    out[~high] = t ** a * (1.0 / a + t * _beta_tail(a, b, t))
    y = 1.0 - x[high]
    half = np.array([0.5])
    with np.errstate(divide="ignore"):                    # log 0 at x = 1
        head = -np.expm1(b * np.log(2.0 * y)) * 0.5 ** b / b
    out[high] = (0.5 ** a * (1.0 / a + 0.5 * _beta_tail(a, b, half)) + head
                 + 0.5 ** (b + 1.0) * _beta_tail(b, a, half) - y ** (b + 1.0) * _beta_tail(b, a, y))
    return out


def _beta_tail(p: float, q: float, t: np.ndarray) -> np.ndarray:
    """Sum_{k >= 1} (1 - q)_k t^(k-1) / (k! (p + k)) for t in [0, 1/2], by
    Horner's rule, through the first term that no longer moves the sum at
    the largest t, where the terms fall slowest (at ratio t or less).  For
    q < 2 its terms share one sign, so the sum is read to its own scale,
    not to that of 1 / p, which the caller may have taken out."""
    top = float(np.fmax.reduce(t, initial=0.0))          # NaN entries stay NaN
    coefs, c, total, k = [], 1.0, 0.0, 0
    while True:
        k += 1
        c *= (k - q) / k                                  # (1 - q)_k / k!
        coefs.append(c / (p + k))
        term = coefs[-1] * top ** (k - 1)
        total += term
        if abs(term) <= np.finfo(float).eps * abs(total):
            break
    out = np.full_like(t, coefs.pop())
    for coef in reversed(coefs):
        out = out * t + coef
    return out


def _green_frac_ball(op: OperatorSpec, dom: Domain, x, y):
    alpha, d = op.alpha, dom.dim
    R = dom.radius
    X, Y = _centred(dom, x, y)
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
        # Int_0^z s^(a-1) (1+s)^(-d/2) ds = B_{z/(1+z)}(a, b)
        inc = _incomplete_beta(a_par, b_par, z[nd] / (1.0 + z[nd]))
        out[nd] = kappa * dist[nd] ** (alpha - d) * inc
        out[diag] = np.inf
    else:
        # alpha >= d (d=1): hypergeometric closed form of the radial integral,
        # Int_0^z s^(a-1)(1+s)^(-d/2) ds = (z^a / a) 2F1(d/2, a; a+1; -z);
        # diverges as z -> inf (log for alpha = d), finite diagonal above
        from scipy import special
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
            val = _green_laplace_interval(dom, x, y)
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
    and the returned value is the hitting probability of z.  Scalar in,
    scalar out, as in ``green``: a float only when x and z are one point each.
    """
    if dom.kind == "rectangle":
        raise UnsupportedKernelError("poisson_kernel requires a ball or interval domain")
    dom_ball = dom.as_ball()
    d = dom_ball.dim
    R = dom_ball.radius
    X, Z = _centred(dom_ball, x, z)
    rx = np.linalg.norm(X, axis=1)
    rz = np.linalg.norm(Z, axis=1)
    if np.any(rx >= R):
        raise SupportError("x must be an interior point")
    scalar = np.asarray(x, dtype=float).ndim <= 1 and np.asarray(z, dtype=float).ndim <= 1

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
# killing density (fractional)
# ---------------------------------------------------------------------------

def killing_density(alpha: float, dom: Domain, x):
    """kappa_D(x) = c(alpha,d) Int_{D^c} |x-y|^(-d-alpha) dy for the fractional
    operator of index alpha.

    In polar coordinates about x the complement integral is
    (c/alpha) Int_{S^(d-1)} rho_x(theta)^(-alpha) dtheta, rho_x(theta) the
    distance from x to the boundary along theta.  On a ball of radius R,
    with r = |x - center| / R, that is the closed form (DLMF 15.6)

        kappa(x) = c |S^(d-1)| / alpha * R^(-alpha) (1 - r^2)^(-alpha)
                   * 2F1(-alpha/2, (d-alpha)/2; d/2; r^2).

    At d = 1, 2F1(a, a+1/2; 1/2; z^2) = ((1+z)^(-2a) + (1-z)^(-2a)) / 2
    reduces it to (c/alpha) [(x-a)^(-alpha) + (b-x)^(-alpha)] on (a, b).
    The interval branch evaluates that form from x - a and b - x, which
    keep their digits next to an endpoint, where 1 - r would not.  Scalar
    in, scalar out, as in ``green``.
    """
    if dom.kind == "rectangle":
        raise UnsupportedKernelError("killing_density needs an interval or ball domain")
    d = dom.dim
    c = frac_constant(alpha, d)
    if d == 1:
        a, b = dom.bounding_box[0]
        xv = dom._check_points(x)[:, 0]
        if np.any((xv <= a) | (xv >= b)):
            raise SupportError("x must be interior")
        val = (c / alpha) * ((xv - a) ** (-alpha) + (b - xv) ** (-alpha))
    else:
        R = dom.radius
        r = np.linalg.norm(dom._check_points(x) - np.asarray(dom.center), axis=1) / R
        if np.any(r >= 1.0):
            raise SupportError("x must be interior")
        # 1 - r^2 as (1 - r)(1 + r), which keeps its digits next to the sphere
        from scipy import special
        val = (c * sphere_area(d) / alpha * R ** (-alpha)
               * ((1.0 - r) * (1.0 + r)) ** (-alpha)
               * special.hyp2f1(-alpha / 2.0, (d - alpha) / 2.0, d / 2.0, r * r))
    scalar = np.asarray(x, dtype=float).ndim <= 1
    return float(val[0]) if scalar and np.size(val) == 1 else val
