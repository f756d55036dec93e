"""Smallest excessive majorants (reduite), the weighted norm built on them,
and tail functionals over truncation levels.

Discrete setting: for the sub-stochastic one-step kernel P of an assembled
operator, the reduite of an obstacle g >= 0 is the smallest fixed point of
w = max(g, P w), equivalently the value function of optimally stopping g
along the killed chain, equivalently the sup over node subsets V of the
harmonic extension of g from the complement of V.  Every operator gets it
the same way: exact policy iteration (one block solve per step, started
from the current iterate); a local start that misses the tolerance first
gets a short projected-SOR warm start, on colour rows of A pre-scaled by
omega / diag, whose relaxation omega rises from below the grid's
bounding-box optimum towards Young's optimum of the rows it iterates on,
estimated from the measured contraction.

Atom handling in tail functionals: when the measure carries concentrated
atoms, the obstacle (|u| - n)^+ is enriched at each atom's node, where the
level subtraction is waived (the obstacle keeps the full discrete potential
value there).  Rationale: the continuum majorant of (|u| - n)^+ across an
unbounded potential peak equals the potential itself, because the optimal
continuation dives into the singularity and any finite level shift vanishes
in the limit; matching the obstacle height to the discrete Green diagonal
is what makes the discrete envelope consistent (a plain one-cell cap leaves
an O(n / log(1/h)) deficit that no practical mesh can beat).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .discrete import DiscreteOperator, discrete_green
from .errors import ConvergenceError, SupportError
from .geometry import Grid, GridField, lattice_shifts
from .kernels import green
from .solve import Solution

_WARM_TOL = 1e-6            # last PSOR update that ends a local warm start
_MAX_SWEEPS = 10**6
_MAX_POLICY_STEPS = 500


@dataclass
class ReduiteResult:
    """Envelope field, continuation set, warm-start PSOR sweep count (0 for
    the fractional operator) and the relaxation omega of its last sweep
    (0.0 without sweeps), policy-iteration step count (both counts are
    0 when the start already meets ``tol``) and the max complementarity
    violation |min(w - g, A w / diag)|, which ``reduite`` brings to at most
    its ``tol`` or to the accuracy of its last block solve.

    The continuation set is where the envelope is P-harmonic within ``tol``
    (the optimal-continuation region); its complement inside the interior
    is the stopping set, where the envelope sits on the obstacle.
    For an excessive obstacle this is everything except the nodes carrying
    its defect (e.g. all interior nodes but the source, for a Green column).
    """

    envelope: GridField
    continuation: np.ndarray      # bool lattice mask
    iterations: int
    omega: float                  # relaxation of the last sweep, 0.0 without sweeps
    policy_steps: int
    residual: float


@dataclass
class TailCurve:
    levels: np.ndarray
    values: np.ndarray
    resolvable: np.ndarray        # bool per level
    sweeps: np.ndarray            # PSOR warm-start sweeps per level
    omega: np.ndarray             # relaxation of each level's last sweep (0.0 without)
    policy_steps: np.ndarray      # policy-iteration steps per level
    limit_estimate: float
    target: float                 # <R^D rho, |mu_c|> from the atoms' Green columns
    verdict: str                  # "diffuse-like" | "concentrated-like"


def _neighbour_max(values: np.ndarray, grid) -> np.ndarray:
    """Largest finite value at the interior face neighbours of each lattice
    node; -inf where there is none."""
    vals = np.where(grid.interior_mask & np.isfinite(values), values, -np.inf)
    nb_max = np.full(grid.shape, -np.inf)
    for _, lead, trail in lattice_shifts(grid.dim):
        nb_max[trail] = np.maximum(nb_max[trail], vals[lead])
        nb_max[lead] = np.maximum(nb_max[lead], vals[trail])
    return nb_max


def _cap_infinite(g: np.ndarray, grid) -> np.ndarray:
    """Replace non-finite obstacle nodes by the largest finite neighbor value
    (the obstacle's own value one cell away; 0 without one)."""
    if np.all(np.isfinite(g[grid.interior_mask])):
        return g
    g = g.copy()
    bad = ~np.isfinite(g) & grid.interior_mask
    nb_max = _neighbour_max(g, grid)[bad]
    g[bad] = np.where(np.isfinite(nb_max), nb_max, 0.0)
    return g


def omega_optimal(grid: Grid) -> float:
    """Near-optimal SOR relaxation for the 5-point stencil on this grid."""
    extent = min(hi - lo for lo, hi in grid.domain.bounding_box)
    s = np.sin(np.pi * grid.h / max(extent, grid.h * 2))
    return float(2.0 / (1.0 + s))


def _omega_start(grid: Grid) -> float:
    """The relaxation ``reduite`` starts its warm start from: Young's
    optimum of a box 4 times narrower than the grid's bounding box."""
    extent = min(hi - lo for lo, hi in grid.domain.bounding_box)
    return float(2.0 / (1.0 + np.sin(min(4.0 * np.pi * grid.h / extent, np.pi / 2))))


def _colour_rows(grid: Grid) -> tuple:
    """Flat interior indices in red-then-black order (lattice parity, each
    colour in increasing index order) and the red count."""
    parity = 0
    for k, n in enumerate(grid.shape):
        shape = [1] * grid.dim
        shape[k] = n
        parity = parity + np.arange(n).reshape(shape)
    odd = (parity % 2 == 1)[grid.interior_mask]
    return np.argsort(odd, kind="stable"), int(np.count_nonzero(~odd))


class _Sweeps(int):
    """A sweep count that carries the relaxation ``omega`` of its last sweep."""

    def __new__(cls, sweeps: int, omega: float):
        self = super().__new__(cls, sweeps)
        self.omega = omega
        return self


def _scaled_rows(rows: list, omega: float) -> list:
    """Each colour's (rows of A, their diagonal) as CSR rows scaled by
    omega / diag."""
    return [sp.csr_matrix((A_rows.data * np.repeat(omega / diag, np.diff(A_rows.indptr)),
                           A_rows.indices, A_rows.indptr), shape=A_rows.shape)
            for A_rows, diag in rows]


def _relax(dop: DiscreteOperator, g: np.ndarray, w: np.ndarray,
           omega: float, tol: float) -> int:
    """Projected red-black SOR w <- max(g, w - omega D^{-1} A w) on flat
    interior vectors of a local operator, in place, from the relaxation
    ``omega``: the red and black rows in turn, with the update tested every
    8 sweeps.  Returns the sweep count, an int whose ``omega`` is the
    relaxation of the last sweep.

    The relaxation rises towards Young's optimum of the rows it iterates
    on (adaptive SOR; Hageman & Young, *Applied Iterative Methods*, 1981,
    ch. 9), never above ``omega_optimal`` of the grid and never down.  Two
    tested updates d_prev > d at the same omega give the contraction
    lambda = (d / d_prev)^(1/8) of 8 sweeps; while lambda > omega - 1 it
    tells the Jacobi radius mu = (lambda + omega - 1) / (omega sqrt(lambda))
    of the red-black (consistently ordered) rows, and once two consecutive
    mu agree within 10 % in 1 - mu the relaxation moves up to
    2 / (1 + sqrt(1 - mu^2)) and the measurement starts again.  A start at
    ``omega_optimal`` is never raised: plain projected SOR.

    The sweeps run on a copy of w in red-then-black order, so each colour
    is one contiguous slice, and each colour's rows of A are scaled by
    omega / diag once per relaxation, so a half-sweep is one product and
    one ``maximum``.  Each row keeps its stored entry order with the
    columns renamed into that order, so every row sums the same terms in
    the same order as on the lattice numbering and the result is the same
    bit for bit.
    """
    cap = omega_optimal(dop.grid)
    order, n_red = _colour_rows(dop.grid)
    pos = np.empty(order.size, dtype=dop.A.indices.dtype)
    pos[order] = np.arange(order.size)
    parts = (slice(0, n_red), slice(n_red, None))
    rows = []
    for part in parts:
        A_rows = dop.A[order[part]]
        rows.append((sp.csr_matrix((A_rows.data, pos[A_rows.indices], A_rows.indptr),
                                   shape=A_rows.shape), dop.diag[order[part]]))
    blocks = _scaled_rows(rows, omega)
    wp, gp = w[order], g[order]
    update = np.inf
    d_prev = mu_prev = None
    for sweep in range(1, _MAX_SWEEPS + 1):
        track = sweep % 8 == 0
        if track:
            update = 0.0
        for part, A_rows in zip(parts, blocks):
            w_rows = wp[part]
            old = w_rows.copy() if track else None
            w_rows -= A_rows @ wp
            np.maximum(w_rows, gp[part], out=w_rows)
            if track:
                update = max(update, float(np.max(np.abs(w_rows - old), initial=0.0)))
        if not track:
            continue
        if update < tol:
            w[order] = wp
            return _Sweeps(sweep, float(omega))
        mu = None
        if d_prev is not None and update < d_prev:
            lam = (update / d_prev) ** 0.125
            if lam > omega - 1.0:         # below the optimum: lambda tells mu
                mu = min((lam + omega - 1.0) / (omega * np.sqrt(lam)), 1.0)
        if mu is not None and mu_prev is not None and abs(mu - mu_prev) <= 0.1 * (1.0 - mu):
            young = min(2.0 / (1.0 + np.sqrt(1.0 - mu * mu)), cap)
            if young > omega:
                omega = young
                blocks = _scaled_rows(rows, omega)
                d_prev = mu_prev = None
                continue
        d_prev, mu_prev = update, mu
    raise ConvergenceError(
        f"projected relaxation did not reach tol={tol} within {_MAX_SWEEPS} "
        f"sweeps (last update {update:.3e})")


def _complementarity(dop: DiscreteOperator, w: np.ndarray, g: np.ndarray) -> tuple:
    """(A w / d, max |min(w - g, A w / d)|), d = diag(A): the defect of w
    and its complementarity residual against the obstacle g, 0 without
    unknowns."""
    defect = dop.apply(w) / dop.diag
    return defect, float(np.max(np.abs(np.minimum(w - g, defect)), initial=0.0))


def _policy_iteration(dop: DiscreteOperator, g: np.ndarray, w: np.ndarray,
                      defect: np.ndarray, tol: float) -> tuple:
    """Exact envelope by Howard's algorithm (the primal-dual active-set
    method; Hintermüller, Ito & Kunisch, SIAM J. Optim. 13, 2003): take the
    stopping set S = {w - g <= A w / diag}, set w = g on S and solve A w = 0
    on the complement by one block solve, until the complementarity
    residual |min(w - g, A w / diag)| is at most ``tol`` or S no longer
    changes.  It starts from a w whose ``defect`` A w / diag is given and
    whose residual misses ``tol``.  Each block solve starts from the
    current iterate on the complement.  For an M-matrix the iterates
    increase to the envelope from the first solve on and the loop ends
    within n + 1 steps (Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal.
    47, 2009).  Returns (w, policy steps).
    """
    stop = (w - g) <= defect
    for step in range(1, _MAX_POLICY_STEPS + 1):
        c = np.flatnonzero(~stop)
        start = w[c]
        w = np.where(stop, g, 0.0)
        if c.size:
            # w vanishes on c: A[c, c] w_c = -A[c, S] g_S
            w[c] = dop.solve(-dop.apply(w)[c], on=c, x0=start)
        defect, residual = _complementarity(dop, w, g)
        new_stop = (w - g) <= defect
        if residual <= tol or np.array_equal(new_stop, stop):
            return w, step
        stop = new_stop
    raise ConvergenceError(
        f"policy iteration neither reached the complementarity residual "
        f"{tol:g} nor fixed its stopping set within {_MAX_POLICY_STEPS} steps")


def reduite(dop: DiscreteOperator, g, tol: float = 1e-10,
            w0: Optional[np.ndarray] = None) -> ReduiteResult:
    """Smallest excessive majorant of the obstacle g >= 0.

    Policy iteration finishes it for every operator, started from w0
    (default g; any w0 will do) once its residual is tested: a start that
    meets ``tol`` is returned as max(w0, g).  On a local operator any other
    start is first improved by projected red-black SOR until its last update
    falls below ``_WARM_TOL``, and tested again; the relaxation starts at
    ``_omega_start`` and ``_relax`` raises it towards the optimum of the
    rows it iterates on, at most to ``omega_optimal`` of the grid.  ``tol`` is the complementarity residual that the returned
    envelope must meet, and the continuation threshold on A w / diag
    (relative to the envelope's scale).  Non-finite obstacle values are
    capped at the obstacle's value one cell away.
    """
    grid = dop.grid
    g_lat = g.values if isinstance(g, GridField) else np.asarray(g, dtype=float)
    if g_lat.shape != grid.shape:
        raise SupportError("obstacle shape does not match the grid lattice")
    if w0 is not None and np.shape(w0) != grid.shape:
        raise SupportError("start w0 shape does not match the grid lattice")
    g_lat = np.where(grid.interior_mask, g_lat, 0.0)
    g_lat = _cap_infinite(g_lat, grid)
    if np.any(g_lat[grid.interior_mask] < 0):
        raise SupportError("reduite requires a nonnegative obstacle")

    g_flat = g_lat[grid.interior_mask]
    w_flat = g_flat.copy() if w0 is None else w0[grid.interior_mask]
    sweeps = steps = 0
    omega = 0.0
    defect, residual = _complementarity(dop, w_flat, g_flat)
    # an exact start on or above g is the envelope: keep its defect
    exact = residual <= tol and bool(np.all(w_flat >= g_flat))
    if residual > tol and dop.is_local:
        sweeps = _relax(dop, g_flat, w_flat, _omega_start(grid), _WARM_TOL)
        omega = sweeps.omega
        defect, residual = _complementarity(dop, w_flat, g_flat)
    if residual > tol:
        w_flat, steps = _policy_iteration(dop, g_flat, w_flat, defect, tol)
    w_flat = np.maximum(w_flat, g_flat)
    if not exact:
        defect, residual = _complementarity(dop, w_flat, g_flat)
    scale = float(np.max(np.abs(w_flat))) if w_flat.size else 1.0
    continuation = grid.new_field().astype(bool)
    continuation[grid.interior_mask] = defect <= tol * max(scale, 1.0)
    return ReduiteResult(envelope=GridField.from_interior(grid, w_flat),
                         continuation=continuation, iterations=int(sweeps),
                         omega=omega, policy_steps=steps, residual=residual)


def harmonic_extension(dop: DiscreteOperator, V, g) -> GridField:
    """Dirichlet extension on the node subset V with data g off V.

    Returns the field that is P-invariant on V and equal to g on the
    interior complement (zero on boundary/exterior).  V may be a boolean
    lattice mask or a flat interior mask, and g a ``GridField`` or an array
    of the lattice's shape; any other shape raises SupportError naming it.
    The values on V come from one block solve with A[V, V].
    """
    grid = dop.grid
    g_lat = g.values if isinstance(g, GridField) else np.asarray(g, dtype=float)
    if g_lat.shape != grid.shape:
        raise SupportError(f"g of shape {g_lat.shape} does not match the grid "
                           f"lattice {grid.shape}")
    V = np.asarray(V)
    if V.shape == grid.shape:
        V_flat = V[grid.interior_mask]
    elif V.shape == (grid.n_interior,):
        V_flat = V.astype(bool)
    else:
        raise SupportError(f"V of shape {V.shape} is neither the grid lattice "
                           f"{grid.shape} nor its {grid.n_interior} interior nodes")
    g_flat = g_lat[grid.interior_mask]
    out = g_flat.copy()
    if V_flat.any():
        idx = np.flatnonzero(V_flat)
        out[idx] = dop.solve(-dop.apply(np.where(V_flat, 0.0, g_flat))[idx], on=idx)
    return GridField.from_interior(grid, out)


def _rho_values(rho, grid) -> np.ndarray:
    """rho at the interior nodes, for rho a callable (a ``Density`` among
    them), a number or an array of interior values."""
    if callable(rho):
        return np.asarray(rho(grid.interior_points()), dtype=float)
    if isinstance(rho, (int, float)):
        return np.full(grid.n_interior, float(rho))
    return np.asarray(rho, dtype=float)


def d1_norm(dop: DiscreteOperator, u, rho, tol: float = 1e-10) -> float:
    """Weighted mass of the smallest excessive majorant of |u|:
    integral of e_{|u|} against rho dm, computed through the reduite."""
    grid = dop.grid
    u_lat = u.values if isinstance(u, GridField) else np.asarray(u, dtype=float)
    res = reduite(dop, np.abs(u_lat), tol=tol)
    w = _rho_values(rho, grid)
    return res.envelope.weighted_sum(w)


def envelope_field(solution: Solution, dop: DiscreteOperator) -> tuple:
    """Grid representation of |u| for envelope work.

    Nodes carry ``solution.evaluate`` (the closed form, or the grid field
    interpolated onto this grid).  For a closed form, each concentrated
    atom's own node instead carries the discrete Green diagonal for its
    self-contribution, the lattice-consistent height of the peak, plus the
    closed form of the rest of mu there; a grid field already holds the
    lattice's own value at the node.  Returns (lattice |u| array, atom
    lattice indices, the atoms' discrete Green columns).  Each column
    scaled to |u|(node_k) at its node is the single-node harmonic extension e_k(x) = |u|(node_k) * q_k(x), q_k the
    hitting probability of node_k: an exact lower bound for the envelope of
    any obstacle that dominates |u|(node_k) at the node.
    """
    grid = dop.grid
    conc = solution.decomposition.concentrated
    atom_nodes = [grid.nearest_node(np.asarray(p)) for p, _ in conc.atoms]

    vals = grid.new_field()
    vals[grid.interior_mask] = solution.evaluate(grid.interior_points())

    columns = []
    for (p, w), node in zip(conc.atoms, atom_nodes):
        col = discrete_green(dop, np.asarray(p))
        if solution.closed:
            other = 0.0
            for (q, wq) in solution.measure.atoms:
                if tuple(q) != tuple(p):
                    other += wq * green(solution.op, solution.dom, p, q)
            if solution.density_potential is not None:
                other += float(solution.density_potential(np.asarray(p).reshape(1, -1))[0])
            vals[node] = w * col.values[node] + other
        columns.append(col)
    return np.abs(vals), atom_nodes, columns


def tail_obstacle(u_abs: np.ndarray, atom_nodes, n: float, grid: Grid) -> np.ndarray:
    """The level-n tail obstacle (|u| - n)^+ on the lattice, enriched at the
    concentrated-atom nodes (full |u| there; see module docstring) and 0 off
    the interior."""
    g = np.maximum(u_abs - n, 0.0)
    for node in atom_nodes:
        g[node] = u_abs[node]
    return np.where(grid.interior_mask, g, 0.0)


def reduite_start(g: np.ndarray, field: tuple, prev: Optional[np.ndarray] = None):
    """Start of the reduite of a tail obstacle g, given ``envelope_field``'s
    output: the max of g, the envelope ``prev`` of a higher level and each
    atom's single-node extension |u|(node_k) q_k.  Each is a lower bound of
    the envelope, since g carries |u|(node_k) at each atom's node."""
    u_abs, atom_nodes, columns = field
    w0 = g if prev is None else np.maximum(g, prev)
    for node, col in zip(atom_nodes, columns):
        w0 = np.maximum(w0, u_abs[node] * col.values / col.values[node])
    return w0


def tail_curve(solution: Solution, dop: DiscreteOperator, rho,
               levels: Sequence[float], tol: float = 1e-10) -> TailCurve:
    """Tail functional T_n = d1_norm((|u| - n)^+) across increasing levels.

    Obstacles at concentrated-atom nodes are enriched (level subtraction
    waived; see module docstring).  Levels are solved from the top down so
    each solve warm-starts (``reduite_start``) from the previous envelope
    and the atoms' extensions.
    The verdict compares the extrapolated limit against both zero and
    <R^D rho, |mu_c|>, read off the atoms' Green columns, not the envelopes.
    """
    grid = dop.grid
    levels = np.asarray(sorted(float(n) for n in levels))
    if levels.size == 0:
        raise SupportError("levels must hold at least one level")
    if np.any(levels <= 0):
        raise SupportError("levels must be positive")
    rho_vals = _rho_values(rho, grid)

    field = envelope_field(solution, dop)
    u_abs, atom_nodes, columns = field

    # A is symmetric, so R^D rho at an atom's node is rho against its Green column
    conc = solution.decomposition.concentrated
    target = sum(abs(w) * col.weighted_sum(rho_vals)
                 for (_, w), col in zip(conc.atoms, columns))

    # resolvability: level must sit below the obstacle one cell off the atoms
    nb_max = _neighbour_max(u_abs, grid)
    u_near = max((nb_max[node] for node in atom_nodes), default=-np.inf)
    if u_near == -np.inf:         # no atom with an interior neighbour
        u_near = np.inf

    values = np.empty(levels.shape)
    resolvable = np.ones(levels.shape, dtype=bool)
    sweeps = np.zeros(levels.shape, dtype=int)
    omega = np.zeros(levels.shape)
    policy_steps = np.zeros(levels.shape, dtype=int)
    prev_w = None
    for i in range(len(levels) - 1, -1, -1):
        n = levels[i]
        g = tail_obstacle(u_abs, atom_nodes, n, grid)
        if n > u_near:
            resolvable[i] = False
            warnings.warn(
                f"level n={n} exceeds the obstacle value one cell off the atom "
                f"({u_near:.4g}); the window is below mesh resolution")
        res = reduite(dop, g, tol=tol, w0=reduite_start(g, field, prev_w))
        prev_w = res.envelope.values
        values[i] = res.envelope.weighted_sum(rho_vals)
        sweeps[i], omega[i], policy_steps[i] = res.iterations, res.omega, res.policy_steps

    limit_estimate = float(np.mean(values[-2:])) if len(values) > 1 else float(values[-1])
    if target > 0 and limit_estimate > 0.5 * target:
        verdict = "concentrated-like"
    else:
        verdict = "diffuse-like"
    return TailCurve(levels=levels, values=values, resolvable=resolvable,
                     sweeps=sweeps, omega=omega, policy_steps=policy_steps,
                     limit_estimate=limit_estimate, target=float(target),
                     verdict=verdict)
