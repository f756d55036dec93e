"""Smallest excessive majorants (reduite) by projected relaxation (local
operators) or exact policy iteration (the dense fractional operator), the
weighted norm built on them, tail functionals over truncation levels, and a
uniform-integrability diagnostic driven by convex test functions.

Discrete setting: for the sub-stochastic one-step kernel P of an assembled
operator, the reduite of an obstacle g >= 0 is the smallest fixed point of
w = max(g, P w), equivalently the value function of optimally stopping g
along the killed chain, equivalently the sup over node subsets V of the
harmonic extension of g from the complement of V.

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
from typing import Callable, Optional, Sequence

import numpy as np

from .discrete import DiscreteOperator, discrete_green
from .errors import ConvergenceError, SupportError
from .geometry import Grid, GridField, lattice_shifts
from .kernels import green
from .solve import Solution

_ACTIVE_TOL_FACTOR = 100.0
_MAX_SWEEPS = 10**6
_MAX_POLICY_STEPS = 500


@dataclass
class ReduiteResult:
    """Envelope field, continuation set, PSOR sweep count (local operators;
    0 for the fractional one), policy-iteration step count (the fractional
    operator; 0 for local ones) and the max complementarity violation
    min(w - g, A w / diag).  ``tol`` and ``omega`` of ``reduite`` govern
    only the local PSOR: the fractional envelope is exact.

    The continuation set is where the envelope is P-harmonic within
    tolerance (the optimal-continuation region); its complement inside the
    interior is the stopping set, where the envelope sits on the obstacle.
    For an excessive obstacle this is everything except the nodes carrying
    its defect (e.g. all interior nodes but the source, for a Green column).
    """

    envelope: GridField
    continuation: np.ndarray      # bool lattice mask
    iterations: int
    policy_steps: int
    residual: float


@dataclass
class TailCurve:
    levels: np.ndarray
    values: np.ndarray
    resolvable: np.ndarray        # bool per level
    limit_estimate: float
    target: float                 # <R^D rho, |mu_c|> from the atoms' Green columns
    verdict: str                  # "diffuse-like" | "concentrated-like"


def _cap_infinite(g: np.ndarray, grid) -> np.ndarray:
    """Replace non-finite obstacle nodes by the largest finite neighbor value
    (the obstacle's own value one cell away)."""
    if np.all(np.isfinite(g[grid.interior_mask])):
        return g
    g = g.copy()
    bad = ~np.isfinite(g) & grid.interior_mask
    nb_max = np.full(grid.shape, -np.inf)
    finite = np.where(np.isfinite(g), g, -np.inf)
    for _, lead, trail in lattice_shifts(grid.dim):
        nb_max[trail] = np.maximum(nb_max[trail], finite[lead])
        nb_max[lead] = np.maximum(nb_max[lead], finite[trail])
    g[bad] = np.where(np.isfinite(nb_max[bad]), nb_max[bad], 0.0)
    return g


def omega_optimal(grid: Grid) -> float:
    """Near-optimal SOR relaxation for the 5-point stencil on this grid."""
    extent = min(hi - lo for lo, hi in grid.domain.bounding_box)
    s = np.sin(np.pi * grid.h / max(extent, grid.h * 2))
    return float(2.0 / (1.0 + s))


def _colour_rows(grid: Grid) -> tuple:
    """Flat interior indices of the red and black nodes (lattice parity)."""
    parity = 0
    for k, n in enumerate(grid.shape):
        shape = [1] * grid.dim
        shape[k] = n
        parity = parity + np.arange(n).reshape(shape)
    odd = (parity % 2 == 1)[grid.interior_mask]
    return np.flatnonzero(~odd), np.flatnonzero(odd)


def _relax(dop: DiscreteOperator, g: np.ndarray, w: np.ndarray,
           omega: float, tol: float) -> int:
    """Projected red-black SOR w <- max(g, w - omega D^{-1} A w) on flat
    interior vectors of a local operator, in place: the red and black rows
    in turn, with the update tested every 8 sweeps.  Returns the sweep
    count.
    """
    blocks = [(rows, dop.A[rows], dop.diag[rows]) for rows in _colour_rows(dop.grid)]
    update = np.inf
    for sweep in range(1, _MAX_SWEEPS + 1):
        track = sweep % 8 == 0
        if track:
            update = 0.0
        for rows, A_rows, d_rows in blocks:
            cand = w[rows] - omega * (A_rows @ w) / d_rows
            np.maximum(cand, g[rows], out=cand)
            if track:
                update = max(update, float(np.max(np.abs(cand - w[rows]), initial=0.0)))
            w[rows] = cand
        if track and update < tol:
            return sweep
    raise ConvergenceError(
        f"projected relaxation did not reach tol={tol} within {_MAX_SWEEPS} "
        f"sweeps (last update {update:.3e})")


def _policy_iteration(dop: DiscreteOperator, g: np.ndarray,
                      w: np.ndarray) -> tuple:
    """Exact envelope of a dense non-local operator by Howard's algorithm
    (the primal-dual active-set method): take the stopping set
    S = {w - g <= A w / diag}, set w = g on S and solve A w = 0 on the
    complement, until S no longer changes.  For an M-matrix the iterates
    increase to the envelope from the first solve on and the loop ends
    within n + 1 steps (Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal.
    47, 2009).  Returns (w, policy steps), with w >= g bit for bit.

    Nodes where the two policy values agree to rounding (e.g. everywhere
    off the source, for an excessive obstacle) may change sides from one
    step to the next without moving w, so a complementarity residual
    within the rounding error of a length-n row product ends the loop too.
    """
    A, d = dop.dense_view(), dop.diag
    tie = dop.n * np.finfo(float).eps * float(np.max(g, initial=0.0))
    stop = (w - g) <= (A @ w) / d
    for step in range(1, _MAX_POLICY_STEPS + 1):
        w = np.where(stop, g, 0.0)
        c = np.flatnonzero(~stop)
        if c.size:
            # w vanishes on c: A[c, c] w_c = -A[c, S] g_S
            w[c] = dop.solve(-(A @ w)[c], on=c)
        defect = (A @ w) / d
        new_stop = (w - g) <= defect
        if (np.array_equal(new_stop, stop)
                or np.max(np.abs(np.minimum(w - g, defect)), initial=0.0) <= tie):
            np.maximum(w, g, out=w)
            return w, step
        stop = new_stop
    raise ConvergenceError(
        f"policy iteration did not fix its stopping set within "
        f"{_MAX_POLICY_STEPS} steps")


def reduite(dop: DiscreteOperator, g, tol: float = 1e-10, omega="auto",
            w0: Optional[np.ndarray] = None) -> ReduiteResult:
    """Smallest excessive majorant of the obstacle g >= 0.

    Local operators run projected red-black SOR from w0 = g toward the
    smallest fixed point of w = max(g, P w); any supplied warm start must
    sit below the envelope.  ``tol`` (the stopping update and, times
    ``_ACTIVE_TOL_FACTOR``, the continuation threshold) and ``omega`` (a
    number, or the default ``"auto"``: ``omega_optimal`` of the grid)
    govern only this local PSOR.  The dense fractional operator is solved
    exactly by policy iteration, started from the stopping set of w0 (any
    w0 will do).
    Non-finite obstacle values are capped at the obstacle's value one cell
    away.
    """
    grid = dop.grid
    g_lat = g.values if isinstance(g, GridField) else np.asarray(g, dtype=float)
    if g_lat.shape != grid.shape:
        raise SupportError("obstacle shape does not match the grid lattice")
    g_lat = np.where(grid.interior_mask, g_lat, 0.0)
    g_lat = _cap_infinite(g_lat, grid)
    if np.any(g_lat[grid.interior_mask] < 0):
        raise SupportError("reduite requires a nonnegative obstacle")
    if omega == "auto":
        omega = omega_optimal(grid)

    g_flat = g_lat[grid.interior_mask]
    w_flat = g_flat.copy() if w0 is None else w0[grid.interior_mask]
    if dop.is_local:
        sweeps, steps = _relax(dop, g_flat, w_flat, omega, tol), 0
        active_tol = max(_ACTIVE_TOL_FACTOR * tol, 1e-14)
    else:
        w_flat, steps = _policy_iteration(dop, g_flat, w_flat)
        sweeps, active_tol = 0, 1e-14
    defect = (dop.A @ w_flat) / dop.diag
    ncp = np.minimum(w_flat - g_flat, defect)
    residual = float(np.max(np.abs(ncp))) if ncp.size else 0.0
    scale = float(np.max(np.abs(w_flat))) if w_flat.size else 1.0
    continuation = grid.new_field().astype(bool)
    continuation[grid.interior_mask] = defect <= active_tol * max(scale, 1.0)
    return ReduiteResult(envelope=GridField.from_interior(grid, w_flat),
                         continuation=continuation, iterations=sweeps,
                         policy_steps=steps, residual=residual)


def harmonic_extension(dop: DiscreteOperator, V, g) -> GridField:
    """Dirichlet extension on the node subset V with data g off V.

    Returns the field that is P-invariant on V and equal to g on the
    interior complement (zero on boundary/exterior).  V may be a boolean
    lattice mask or a flat interior mask; the values on V come from one
    block solve with A[V, V].
    """
    grid = dop.grid
    g_lat = g.values if isinstance(g, GridField) else np.asarray(g, dtype=float)
    V = np.asarray(V)
    if V.shape == grid.shape:
        V_flat = V[grid.interior_mask]
    else:
        V_flat = V.astype(bool)
    g_flat = g_lat[grid.interior_mask]
    out = g_flat.copy()
    if V_flat.any():
        idx = np.flatnonzero(V_flat)
        out[idx] = dop.solve(-(dop.A @ np.where(V_flat, 0.0, g_flat))[idx], on=idx)
    return GridField.from_interior(grid, out)


def _rho_values(rho, grid) -> np.ndarray:
    """rho at the interior nodes, for rho a callable (a ``Density`` among
    them), a number or an array of interior values."""
    if callable(rho):
        return np.asarray(rho(grid.interior_points()), dtype=float)
    if isinstance(rho, (int, float)):
        return np.full(grid.n_interior, float(rho))
    return np.asarray(rho, dtype=float)


def d1_norm(dop: DiscreteOperator, u, rho, tol: float = 1e-10,
            omega: float = 1.5) -> float:
    """Weighted mass of the smallest excessive majorant of |u|:
    integral of e_{|u|} against rho dm, computed through the reduite."""
    grid = dop.grid
    u_lat = u.values if isinstance(u, GridField) else np.asarray(u, dtype=float)
    res = reduite(dop, np.abs(u_lat), tol=tol, omega=omega)
    w = _rho_values(rho, grid)
    return res.envelope.weighted_sum(w)


def envelope_field(solution: Solution, dop: DiscreteOperator) -> tuple:
    """Grid representation of |u| for envelope work.

    Off-atom nodes carry the best pointwise values available (closed form
    when the solution has one, otherwise the discrete field); each
    concentrated atom's own node carries the discrete Green diagonal for its
    self-contribution, which is the lattice-consistent height of the peak.
    Returns (lattice |u| array, atom lattice indices, the atoms' discrete
    Green columns).  Each column scaled to |u|(node_k) at its node is the
    single-node harmonic extension e_k(x) = |u|(node_k) * q_k(x), q_k the
    hitting probability of node_k: an exact lower bound for the envelope of
    any obstacle that dominates |u|(node_k) at the node.
    """
    grid = dop.grid
    conc = solution.decomposition.concentrated
    atom_nodes = [grid.nearest_node(np.asarray(p)) for p, _ in conc.atoms]

    if solution.closed:
        vals = grid.new_field()
        pts = grid.interior_points()
        vals[grid.interior_mask] = solution.evaluate(pts)
    else:
        vals = solution.grid_field.values.copy()

    columns = []
    for (p, w), node in zip(conc.atoms, atom_nodes):
        col = discrete_green(dop, np.asarray(p))
        self_val = w * col.values[node]
        other = 0.0
        for (q, wq) in solution.measure.atoms:
            if tuple(q) != tuple(p):
                other += wq * green(solution.op, solution.dom, p, q)
        if solution.closed and solution.density_potential is not None:
            other += float(solution.density_potential(np.asarray(p).reshape(1, -1))[0])
        vals[node] = self_val + other
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


def tail_curve(solution: Solution, dop: DiscreteOperator, rho,
               levels: Sequence[float], tol: float = 1e-10,
               omega="auto") -> TailCurve:
    """Tail functional T_n = d1_norm((|u| - n)^+) across increasing levels.

    Obstacles at concentrated-atom nodes are enriched (level subtraction
    waived; see module docstring).  Levels are solved from the top down so
    each solve warm-starts from the previous envelope, which is a valid
    from-below start by monotonicity of the reduite in the obstacle.
    The verdict compares the extrapolated limit against both zero and
    <R^D rho, |mu_c|>, read off the atoms' Green columns, not the envelopes.
    """
    grid = dop.grid
    levels = np.asarray(sorted(float(n) for n in levels))
    if np.any(levels <= 0):
        raise SupportError("levels must be positive")
    rho_vals = _rho_values(rho, grid)

    u_abs, atom_nodes, columns = envelope_field(solution, dop)
    extensions = [u_abs[node] * col.values / col.values[node]
                  for node, col in zip(atom_nodes, columns)]

    # A is symmetric, so R^D rho at an atom's node is rho against its Green column
    conc = solution.decomposition.concentrated
    target = sum(abs(w) * col.weighted_sum(rho_vals)
                 for (_, w), col in zip(conc.atoms, columns))

    # resolvability: level must sit below the obstacle one cell off the atom
    if atom_nodes:
        near_vals = []
        for node in atom_nodes:
            for k in range(grid.dim):
                for step in (-1, 1):
                    nb = list(node)
                    nb[k] += step
                    nb = tuple(nb)
                    if grid.interior_mask[nb]:
                        near_vals.append(u_abs[nb])
        u_near = max(near_vals) if near_vals else np.inf
    else:
        u_near = np.inf

    values = np.empty(levels.shape)
    resolvable = np.ones(levels.shape, dtype=bool)
    prev_w = None
    for i in range(len(levels) - 1, -1, -1):
        n = levels[i]
        g = tail_obstacle(u_abs, atom_nodes, n, grid)
        if atom_nodes and n > u_near:
            resolvable[i] = False
            warnings.warn(
                f"level n={n} exceeds the obstacle value one cell off the atom "
                f"({u_near:.4g}); the window is below mesh resolution")
        w0 = g if prev_w is None else np.maximum(g, prev_w)
        for ext in extensions:
            # single-node harmonic extensions are exact lower envelope bounds
            w0 = np.maximum(w0, ext)
        w0 = np.where(grid.interior_mask, w0, 0.0)
        res = reduite(dop, g, tol=tol, omega=omega, w0=w0)
        prev_w = res.envelope.values
        values[i] = res.envelope.weighted_sum(rho_vals)

    limit_estimate = float(np.mean(values[-2:])) if len(values) > 1 else float(values[-1])
    if target > 0 and limit_estimate > 0.5 * target:
        verdict = "concentrated-like"
    else:
        verdict = "diffuse-like"
    return TailCurve(levels=levels, values=values, resolvable=resolvable,
                     limit_estimate=limit_estimate, target=float(target),
                     verdict=verdict)


@dataclass
class FvpResult:
    caps: np.ndarray
    values: np.ndarray
    growth_ratios: np.ndarray
    verdict: str                  # "finite" | "diverging"


def fvp_diagnostic(dop: DiscreteOperator, u, rho, phi: Callable,
                   caps: Optional[Sequence[float]] = None,
                   tol: float = 1e-10, omega="auto") -> FvpResult:
    """d1_norm of phi(|u|) under level caps, with the growth trend across caps.

    phi must be increasing convex with phi(0) = 0 and superlinear growth.
    Bounded values across growing caps evidence membership (the weighted
    envelope norm of phi(|u|) is finite); growth tracking phi(k)/k evidences
    the opposite.  The existential quantifier over all such phi cannot be
    decided numerically; this reports evidence for the supplied one.

    ``u`` may be a Solution, a GridField or a lattice array.  Solutions with
    concentrated atoms evaluate the obstacle from the unbounded closed form,
    so the cap value phi(k) is attained at the atom nodes for every k (the
    sub-cell level set collapses to the node); that is what lets the capped
    family probe arbitrarily high levels on a fixed mesh.
    """
    grid = dop.grid
    if isinstance(u, Solution):
        u_lat = grid.new_field()
        u_lat[grid.interior_mask] = np.abs(u.evaluate(grid.interior_points()))
        u_lat[~np.isfinite(u_lat)] = np.inf
    else:
        u_lat = np.abs(u.values if isinstance(u, GridField)
                       else np.asarray(u, float))
    u_lat = np.where(grid.interior_mask, u_lat, 0.0)
    finite_mask = np.isfinite(u_lat)
    u_max = float(np.max(u_lat[finite_mask & grid.interior_mask]))
    if caps is None:
        caps = u_max * np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    caps = np.asarray(sorted(float(k) for k in caps))
    rho_vals = _rho_values(rho, grid)

    values = np.empty(caps.shape)
    for i, k in enumerate(caps):
        g = phi(np.minimum(u_lat, k))
        g = np.where(grid.interior_mask, g, 0.0)
        res = reduite(dop, g, tol=tol, omega=omega)
        values[i] = res.envelope.weighted_sum(rho_vals)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = values[1:] / np.where(values[:-1] > 0, values[:-1], np.nan)
    tail_ratios = ratios[-2:][np.isfinite(ratios[-2:])]
    diverging = tail_ratios.size > 0 and bool(np.all(tail_ratios > 1.05))
    return FvpResult(caps=caps, values=values, growth_ratios=ratios,
                     verdict="diverging" if diverging else "finite")


FVP_FAMILY = {
    "xlog": lambda x: x * np.log1p(x),
    "power_1_2": lambda x: np.power(x, 1.2),
}
