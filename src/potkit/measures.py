"""Finite signed measures: atoms plus a density, and the diffuse/concentrated
split.

An atom is concentrated exactly when its singleton is polar for the operator,
detected by diagonal blow-up of the Green function: laplacian atoms are polar
for d >= 2, fractional atoms for alpha <= d.  Densities are always diffuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, SupportError
from .geometry import Domain, Grid
from .kernels import OperatorSpec, points_polar


@dataclass(frozen=True)
class Density:
    """Scalar density on the domain, given by a named preset.

    Presets: ``constant`` (level ``value``) and ``gaussian``
    (value * exp(-|x - center|^2 / (2 sigma^2))).  Both have closed-form
    masses (``abs_integral``), and ``solve.DensityPotential`` gives their
    potentials and gradients in closed form.
    """

    kind: str
    value: float = 0.0
    sigma: float = 0.25
    center: tuple = ()

    @staticmethod
    def constant(value: float) -> "Density":
        return Density(kind="constant", value=float(value))

    @staticmethod
    def gaussian(value: float, sigma: float, center) -> "Density":
        return Density(kind="gaussian", value=float(value), sigma=float(sigma),
                       center=tuple(float(c) for c in np.atleast_1d(center)))

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "constant":
            return np.full(pts.shape[0], self.value)
        c = np.asarray(self.center) if self.center else np.zeros(pts.shape[1])
        r2 = np.sum((pts - c) ** 2, axis=1)
        return self.value * np.exp(-r2 / (2.0 * self.sigma**2))

    def is_radial_about(self, center) -> bool:
        if self.kind == "constant":
            return True
        if self.kind == "gaussian":
            return np.allclose(self.center, np.atleast_1d(center))
        return False

    def abs_integral(self, dom: Domain) -> float:
        """Integral of |density| over the domain (total-variation part), in
        closed form.  A Gaussian's is |v| (2 pi sigma^2)^(d/2) times the
        probability that N(center, sigma^2 I) lands in the domain: the
        noncentral chi^2 law of |X - c|^2 / sigma^2 on a ball or interval of
        centre c, one erf difference per axis on a rectangle.  A masked
        rectangle raises SupportError."""
        if self.kind == "constant":
            return abs(self.value) * dom.volume()
        from scipy import special
        d, s = dom.dim, self.sigma
        c = np.asarray(self.center) if self.center else np.zeros(d)
        if dom.kind == "rectangle":
            if dom.mask is not None:
                raise SupportError("gaussian TV has no closed form on a masked rectangle")
            lo, hi = np.asarray(dom.bounds).T
            t = math.sqrt(2.0) * s
            prob = np.prod((special.erf((hi - c) / t) - special.erf((lo - c) / t)) / 2.0)
        else:
            ball = dom.as_ball()
            prob = special.chndtr(ball.radius**2 / s**2, d,
                                  np.sum((c - np.asarray(ball.center)) ** 2) / s**2)
        return float(abs(self.value) * (2.0 * math.pi * s**2) ** (d / 2.0) * prob)


@dataclass(frozen=True)
class MeasureData:
    """mu = sum of weighted atoms + density; total variation must be finite.

    ``make`` merges atoms given at one point into one atom of their summed
    weight, in first-appearance order, so no two atoms share a point, and
    drops the atoms whose weight is then 0.
    """

    atoms: tuple = ()                 # ((point tuple, weight), ...)
    density: Optional[Density] = None

    @staticmethod
    def make(atoms=(), density: Optional[Density] = None,
             dom: Optional[Domain] = None) -> "MeasureData":
        merged = {}
        for p, w in atoms:
            pt = tuple(float(c) for c in np.atleast_1d(p))
            if dom is not None and len(pt) != dom.dim:
                raise DimensionMismatchError(
                    f"atom at {pt} has dimension {len(pt)}, expected {dom.dim}")
            if dom is not None and not dom.contains(np.asarray(pt)):
                raise SupportError(f"atom at {pt} lies outside the open domain")
            merged[pt] = merged[pt] + float(w) if pt in merged else float(w)
        return MeasureData(atoms=tuple((p, w) for p, w in merged.items() if w != 0.0),
                           density=density)

    def atom_weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms], dtype=float)


@dataclass(frozen=True)
class Decomposition:
    """Unique split mu = diffuse + concentrated (atoms at polar points)."""

    diffuse: MeasureData
    concentrated: MeasureData

    def recombined(self) -> MeasureData:
        return MeasureData(atoms=self.concentrated.atoms + self.diffuse.atoms,
                           density=self.diffuse.density)


def decompose(mu: MeasureData, op: OperatorSpec, dom: Domain) -> Decomposition:
    """Split mu into diffuse and concentrated parts.

    Rule table (equivalent to the diagonal Green blow-up): laplacian d >= 2
    -> atoms concentrated; laplacian d = 1 -> atoms diffuse; fractional ->
    concentrated iff alpha <= d.  Densities are always diffuse, so the split
    reproduces the input exactly when recombined.
    """
    polar = points_polar(op, dom.dim)
    if polar:
        conc = MeasureData(atoms=mu.atoms, density=None)
        diff = MeasureData(atoms=(), density=mu.density)
    else:
        conc = MeasureData(atoms=(), density=None)
        diff = MeasureData(atoms=mu.atoms, density=mu.density)
    return Decomposition(diffuse=diff, concentrated=conc)


def total_variation(mu: MeasureData, dom: Domain) -> float:
    """||mu||_TV = sum |atom weights| + integral of |density|."""
    tv = float(np.sum(np.abs(mu.atom_weights()))) if mu.atoms else 0.0
    if mu.density is not None:
        tv += mu.density.abs_integral(dom)
    return tv


def deposit(mu: MeasureData, grid: Grid) -> np.ndarray:
    """Deposit mu on the grid as a density-units right-hand side (flat).

    Atoms on nodes become h^{-d}-scaled node masses; off-node atoms spread
    to the 2^d corners of their cell (``Grid.corners``) by multilinear
    weights.  Mass falling on non-interior corners is redistributed among
    the interior ones of positive weight, so the total deposited mass
    matches the atom weight exactly; an atom with no such corner raises
    SupportError.
    """
    rhs = np.zeros(grid.n_interior)
    inv_vol = 1.0 / grid.cell_volume()
    if mu.atoms:
        flat, wts = grid.corners([p for p, _ in mu.atoms])
        for (point, weight), f, w in zip(mu.atoms, flat, wts):
            good = (f >= 0) & (w > 0.0)
            if not good.any():
                raise SupportError(f"atom at {point} has no interior node nearby")
            rhs[f[good]] += weight * (w[good] * (1.0 / w[good].sum())) * inv_vol
    if mu.density is not None:
        rhs += mu.density(grid.interior_points())
    return rhs
