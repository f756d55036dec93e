"""Model domains and uniform lattice grids.

Domains are open sets (interval, ball, axis-aligned rectangle). Grids are
uniform lattices anchored at a fixed domain point, so that halving the mesh
width produces a refinement containing every coarse node. Each lattice node
is interior (inside the open domain), boundary (outside, but face-adjacent
to an interior node; homogeneous Dirichlet data lives there), or exterior
(neither).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError, GridSizeError, SupportError

DEFAULT_NODE_CAP = 10**7


@dataclass(frozen=True)
class Domain:
    """Open model domain: interval(a, b), ball(center, radius, dim) or
    rectangle(bounds) with an optional node-mask predicate."""

    kind: str
    dim: int
    a: float = 0.0
    b: float = 0.0
    center: tuple = ()
    radius: float = 0.0
    bounds: tuple = ()
    mask: Optional[Callable] = None

    @staticmethod
    def interval(a: float, b: float) -> "Domain":
        if not a < b:
            raise ValueError(f"interval requires a < b, got ({a}, {b})")
        return Domain(kind="interval", dim=1, a=float(a), b=float(b))

    @staticmethod
    def ball(center, radius: float, dim: int) -> "Domain":
        if radius <= 0:
            raise ValueError("ball requires radius > 0")
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if dim > 3:
            raise ValueError("dimensions above 3 are not supported")
        center = tuple(float(c) for c in np.atleast_1d(center))
        if len(center) != dim:
            raise DimensionMismatchError(
                f"center has dimension {len(center)}, expected {dim}")
        return Domain(kind="ball", dim=dim, center=center, radius=float(radius))

    @staticmethod
    def rectangle(bounds, mask: Optional[Callable] = None) -> "Domain":
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        for lo, hi in bounds:
            if not lo < hi:
                raise ValueError(f"rectangle requires lo < hi per axis, got {bounds}")
        dim = len(bounds)
        if dim < 1 or dim > 3:
            raise ValueError("rectangle dimension must be 1..3")
        return Domain(kind="rectangle", dim=dim, bounds=bounds, mask=mask)

    def as_ball(self) -> "Domain":
        """The domain as a ball: itself for a ball, the 1d ball with the same
        midpoint and half-length for an interval."""
        if self.kind == "interval":
            return Domain.ball(center=[(self.a + self.b) / 2.0],
                               radius=(self.b - self.a) / 2.0, dim=1)
        if self.kind != "ball":
            raise SupportError(f"a {self.kind} is not a ball or an interval")
        return self

    # -- geometry queries ---------------------------------------------------

    def _check_points(self, x) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if pts.shape[-1] != self.dim:
            if self.dim == 1 and pts.shape[0] == 1:
                pts = pts.reshape(-1, 1)
            else:
                raise DimensionMismatchError(
                    f"point dimension {pts.shape[-1]} != domain dimension {self.dim}")
        return pts

    def contains(self, x):
        """True where x lies in the open region (boundary excluded)."""
        pts = self._check_points(x)
        if self.kind == "interval":
            inside = (pts[:, 0] > self.a) & (pts[:, 0] < self.b)
        elif self.kind == "ball":
            c = np.asarray(self.center)
            inside = np.sum((pts - c) ** 2, axis=1) < self.radius**2
        else:
            inside = np.ones(pts.shape[0], dtype=bool)
            for k, (lo, hi) in enumerate(self.bounds):
                inside &= (pts[:, k] > lo) & (pts[:, k] < hi)
            if self.mask is not None:
                inside &= np.asarray(self.mask(pts), dtype=bool)
        if np.ndim(x) <= 1 and inside.shape[0] == 1:
            return bool(inside[0])
        return inside

    @property
    def diameter(self) -> float:
        if self.kind == "interval":
            return self.b - self.a
        if self.kind == "ball":
            return 2.0 * self.radius
        return math.sqrt(sum((hi - lo) ** 2 for lo, hi in self.bounds))

    @property
    def anchor(self) -> np.ndarray:
        """Lattice anchor: grids for all h pass through this point, which
        makes the h/2 lattice a superset of the h lattice."""
        if self.kind == "interval":
            return np.array([self.a])
        if self.kind == "ball":
            return np.asarray(self.center, dtype=float)
        return np.array([lo for lo, _ in self.bounds])

    @property
    def bounding_box(self):
        if self.kind == "interval":
            return [(self.a, self.b)]
        if self.kind == "ball":
            return [(c - self.radius, c + self.radius) for c in self.center]
        return list(self.bounds)

    def distance_to_boundary(self, x) -> np.ndarray:
        """Distance from interior points to the boundary: the radius of
        ``stable_exit``'s ball jumps.  A rectangle's mask is ignored."""
        pts = self._check_points(x)
        if self.kind == "interval":
            d = np.minimum(pts[:, 0] - self.a, self.b - pts[:, 0])
        elif self.kind == "ball":
            c = np.asarray(self.center)
            d = self.radius - np.linalg.norm(pts - c, axis=1)
        else:
            per_axis = [np.minimum(pts[:, k] - lo, hi - pts[:, k])
                        for k, (lo, hi) in enumerate(self.bounds)]
            d = np.min(per_axis, axis=0)
        return d

    def volume(self) -> float:
        if self.kind == "interval":
            return self.b - self.a
        if self.kind == "ball":
            d, r = self.dim, self.radius
            return math.pi ** (d / 2) / math.gamma(d / 2 + 1) * r**d
        v = 1.0
        for lo, hi in self.bounds:
            v *= hi - lo
        return v


@dataclass
class Grid:
    """Uniform lattice over a domain's bounding box (plus one ring).

    Nodes are interior, boundary or exterior (in neither mask); interior
    nodes are indexed flat (lexicographic lattice order) for sparse
    assembly. The lattice coordinate of multi-index ``idx`` along axis k is
    ``anchor[k] + (offset[k] + idx) * h``.
    """

    domain: Domain
    h: float
    shape: tuple
    offset: tuple
    interior_mask: np.ndarray      # bool lattice array
    boundary_mask: np.ndarray      # bool lattice array
    interior_index: np.ndarray = field(repr=False, default=None)  # int lattice array, -1 off-interior
    n_interior: int = 0
    # the V-cycle's next level (grid of width 2h, restriction onto it), or ()
    # at the coarsest grid; built by ``discrete`` on first use
    coarse: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.interior_index is None and self.interior_mask is not None:
            idx = -np.ones(self.shape, dtype=np.int64)
            idx[self.interior_mask] = np.arange(np.count_nonzero(self.interior_mask))
            self.interior_index = idx
            self.n_interior = int(np.count_nonzero(self.interior_mask))

    @property
    def dim(self) -> int:
        return self.domain.dim

    def axis_coords(self, k: int) -> np.ndarray:
        anchor = self.domain.anchor[k]
        return anchor + (self.offset[k] + np.arange(self.shape[k])) * self.h

    def node_points(self) -> np.ndarray:
        """All lattice node coordinates, shape (*shape, dim)."""
        axes = [self.axis_coords(k) for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def interior_points(self) -> np.ndarray:
        """Coordinates of interior nodes, shape (n_interior, dim), flat order."""
        return self.node_points()[self.interior_mask]

    def nearest_node(self, x) -> tuple:
        """Lattice multi-index of the node closest to x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        anchor = self.domain.anchor
        idx = np.rint((x - anchor) / self.h).astype(int) - np.asarray(self.offset)
        idx = np.clip(idx, 0, np.asarray(self.shape) - 1)
        return tuple(int(i) for i in idx)

    def corners(self, points) -> tuple:
        """The 2^d corners of each point's lattice cell and their multilinear
        weights, both of shape (n_points, 2^d): corner c steps one node up
        along axis k where bit k of c is set.  Corners are flat interior
        indices, -1 off the interior.  A point within 1e-12 cells below a
        node takes that node as its cell's lower corner, with weight 1 and
        a round-off of either sign on the others."""
        pts = self.domain._check_points(points)
        rel = (pts - self.domain.anchor) / self.h - np.asarray(self.offset)
        base = np.floor(rel + 1e-12).astype(int)
        frac = rel - base
        flat = np.full((pts.shape[0], 2**self.dim), -1, dtype=np.int64)
        weights = np.ones(flat.shape)
        for c in range(2**self.dim):
            bits = (c >> np.arange(self.dim)) & 1
            idx = base + bits
            on = np.all((idx >= 0) & (idx < np.asarray(self.shape)), axis=1)
            flat[on, c] = self.interior_index[tuple(idx[on].T)]
            for k in range(self.dim):
                weights[:, c] *= frac[:, k] if bits[k] else 1.0 - frac[:, k]
        return flat, weights

    def flat_of_lattice(self, lattice_idx: tuple) -> int:
        """Flat interior index of a lattice multi-index (-1 if not interior)."""
        return int(self.interior_index[lattice_idx])

    def cell_volume(self) -> float:
        return self.h**self.dim

    def new_field(self) -> np.ndarray:
        """A zero lattice-shaped float array."""
        return np.zeros(self.shape)


@dataclass
class GridField:
    """Scalar values on the full lattice; zero off the interior by convention."""

    grid: Grid
    values: np.ndarray   # lattice-shaped float array

    def interior_values(self) -> np.ndarray:
        return self.values[self.grid.interior_mask]

    def weighted_sum(self, weights_interior: np.ndarray) -> float:
        """sum over interior nodes of value * weight * cell volume."""
        return float(np.sum(self.interior_values() * weights_interior)
                     * self.grid.cell_volume())

    @staticmethod
    def from_interior(grid: Grid, flat_values: np.ndarray) -> "GridField":
        arr = grid.new_field()
        arr[grid.interior_mask] = flat_values
        return GridField(grid, arr)


def lattice_shifts(dim: int):
    """Yield (k, lead, trail) for each axis k: index tuples such that
    ``a[lead]`` and ``a[trail]`` pair every lattice node with the next node
    along axis k."""
    for k in range(dim):
        lead = [slice(None)] * dim
        trail = [slice(None)] * dim
        lead[k] = slice(1, None)
        trail[k] = slice(None, -1)
        yield k, tuple(lead), tuple(trail)


def build_grid(domain: Domain, h: float, node_cap: int = DEFAULT_NODE_CAP) -> Grid:
    """Build the uniform grid of mesh width h over the domain.

    Boundary nodes are lattice points failing ``contains`` that are
    face-adjacent to an interior node; they carry zero Dirichlet data.
    """
    if h <= 0:
        raise GridSizeError("mesh width h must be positive")
    if h > domain.diameter:
        raise GridSizeError(
            f"mesh width h={h} exceeds the domain diameter {domain.diameter}")

    anchor = domain.anchor
    box = domain.bounding_box
    offset, shape = [], []
    for k, (lo, hi) in enumerate(box):
        i_lo = math.floor((lo - anchor[k]) / h + 1e-12) - 1
        i_hi = math.ceil((hi - anchor[k]) / h - 1e-12) + 1
        offset.append(i_lo)
        shape.append(i_hi - i_lo + 1)
    n_nodes = int(np.prod(shape))
    if n_nodes > node_cap:
        raise GridSizeError(
            f"grid would have {n_nodes} nodes, above the cap {node_cap}")

    grid = Grid(domain=domain, h=h, shape=tuple(shape), offset=tuple(offset),
                interior_mask=None, boundary_mask=None)
    pts = grid.node_points().reshape(-1, domain.dim)
    interior = domain.contains(pts).reshape(shape)

    # boundary = non-interior nodes with at least one interior face-neighbor
    boundary = np.zeros(shape, dtype=bool)
    for _, lead, trail in lattice_shifts(domain.dim):
        boundary[lead] |= interior[trail]
        boundary[trail] |= interior[lead]
    boundary &= ~interior

    if not interior.any():
        raise GridSizeError("grid has no interior nodes; h too coarse")

    grid.interior_mask = interior
    grid.boundary_mask = boundary
    grid.interior_index = None
    grid.__post_init__()
    return grid
