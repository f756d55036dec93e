"""Grid discretizations of the model operators.

Local operators use the standard 3/5/7-point stencil (second order on the
lattice; curved boundaries enter through the staircase boundary-node set).
The fractional operator in 1d uses exact per-cell integrals of the jump
kernel against a piecewise-constant ansatz, with everything outside the
interior cell union folded into the killing term, so the assembled matrix
is a symmetric M-matrix and the one-step kernel P = I - D^{-1} A is
sub-stochastic exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve, toeplitz

from .errors import AssemblyError, ConvergenceError, GridSizeError, SupportError
from .geometry import Grid, GridField, build_grid, lattice_shifts
from .kernels import OperatorSpec, frac_constant, killing_density

_CG_RTOL = 1e-12
_CG_MAX_ITERS = 1_000
_COARSE_MAX = 4_000        # V-cycle levels stop at this many unknowns
_JACOBI_OMEGA = 0.8
_SMOOTH_SWEEPS = 2         # damped-Jacobi sweeps before and after each coarse correction
_FRACTIONAL_DENSE_MAX = 6_000


@dataclass
class DiscreteOperator:
    """Approximation A of -L on interior nodes, with its diagonal.

    ``A`` is a CSR matrix for every operator: a sparse stencil for local
    operators, and every entry stored for the dense fractional operator.  It
    is symmetric positive definite; the associated one-step transition
    kernel is P = I - D^{-1} A with D = diag(A).  Row sums of P are <= 1,
    strictly so wherever mass leaks to boundary nodes (local operators) or
    through jumps/killing (fractional).
    """

    grid: Grid
    op: OperatorSpec
    A: sp.csr_matrix
    diag: np.ndarray                      # flat interior diagonal of A

    @property
    def is_local(self) -> bool:
        return self.op.is_local

    @property
    def n(self) -> int:
        return self.grid.n_interior

    def dense_view(self) -> np.ndarray:
        """``A`` as an (n, n) array that shares the CSR data, for an
        operator that stores every entry row by row in column order (the
        dense fractional one); raises for any other storage."""
        n = self.n
        if self.A.nnz != n * n or not self.A.has_sorted_indices:
            raise AssemblyError("operator does not store every entry of A")
        return self.A.data.reshape(n, n)

    def transition_matrix(self) -> sp.csr_matrix:
        """P = I - D^{-1} A (off-diagonal part of A, sign-flipped and scaled)."""
        Dinv = sp.diags(1.0 / self.diag)
        P = sp.eye(self.n, format="csr") - (Dinv @ self.A).tocsr()
        P.data[P.data < 0] = np.where(np.abs(P.data[P.data < 0]) < 1e-15, 0.0,
                                      P.data[P.data < 0])
        return P

    def p_row_sums(self) -> np.ndarray:
        row_sums_A = np.asarray(self.A.sum(axis=1)).ravel()
        return 1.0 - row_sums_A / self.diag

    def p_apply(self, flat: np.ndarray) -> np.ndarray:
        return flat - (self.A @ flat) / self.diag

    def solve(self, rhs_flat: np.ndarray, on: np.ndarray | None = None) -> np.ndarray:
        """Deterministic linear solve A x = rhs, local and fractional alike.

        CG to relative residual ``_CG_RTOL``, preconditioned by one symmetric
        geometric V-cycle on the grids of mesh width 2h, 4h, ... with a direct
        factorization at the bottom (built per solve and freed on return):
        sparse LU for local operators, dense Cholesky for the fully dense
        non-local ones.  A grid of at most ``_COARSE_MAX`` unknowns has no
        coarser level, so its solve is that factorization alone.

        With ``on`` (flat interior indices c) it solves the principal block
        A[c, c] x = rhs instead, by one direct factorization of a fresh copy
        of the block: the Dirichlet problem on c with zero data off c.
        """
        if on is not None:
            block = self.A[on][:, on] if self.is_local else self.dense_view()[np.ix_(on, on)]
            return _factor(block)(rhs_flat)
        levels, bottom = _hierarchy(self.grid, self.A, self.is_local)
        if not levels:
            return bottom(rhs_flat)
        n = self.n
        M = spla.LinearOperator((n, n), matvec=partial(_vcycle, levels, bottom),
                                dtype=float)
        x, info = spla.cg(self.A, rhs_flat, rtol=_CG_RTOL, atol=0.0,
                          maxiter=_CG_MAX_ITERS, M=M)
        if info != 0:
            raise ConvergenceError(
                f"CG did not reach relative residual {_CG_RTOL:g} within "
                f"{_CG_MAX_ITERS} iterations (info={info})")
        return x


def _factor(M):
    """Solver x = M^{-1} b for a symmetric positive definite M that the
    caller hands over: SuperLU for a sparse M, otherwise a Cholesky in place
    of the dense array (its transpose is the same matrix in the Fortran
    order that LAPACK factors without a copy).  The right-hand side is
    never overwritten."""
    if sp.issparse(M):
        return spla.factorized(M.tocsc())
    return partial(cho_solve, cho_factor(M.T, overwrite_a=True))


# ---------------------------------------------------------------------------
# geometric multigrid (CG preconditioner, direct solve at the bottom)
# ---------------------------------------------------------------------------

def _prolongation(fine: Grid, coarse: Grid) -> sp.csr_matrix:
    """Tensor-product linear interpolation from the coarse interior to the
    fine interior (coarse mesh width 2h on the same anchored lattice), with
    zero Dirichlet values off the coarse interior."""
    # fine lattice multi-index of every coarse interior node
    centre = [2 * (coarse.offset[k] + c) - fine.offset[k]
              for k, c in enumerate(np.nonzero(coarse.interior_mask))]
    cols = np.arange(coarse.n_interior)
    rows_all, cols_all, vals_all = [], [], []
    for shift in itertools.product((-1, 0, 1), repeat=fine.dim):
        rows = fine.interior_index[tuple(c + s for c, s in zip(centre, shift))]
        keep = rows >= 0
        rows_all.append(rows[keep])
        cols_all.append(cols[keep])
        vals_all.append(np.full(rows_all[-1].size, 0.5 ** np.count_nonzero(shift)))
    return sp.csr_matrix(
        (np.concatenate(vals_all), (np.concatenate(rows_all), np.concatenate(cols_all))),
        shape=(fine.n_interior, coarse.n_interior))


def _hierarchy(grid: Grid, A: sp.csr_matrix, is_local: bool):
    """V-cycle levels ``(A, omega / diag(A), P)`` from the finest down, with
    Galerkin coarse operators P^T A P, and the factorized bottom operator:
    SuperLU for a local stencil, Cholesky of the dense array for a non-local
    operator, whose every entry is stored."""
    levels = []
    while A.shape[0] > _COARSE_MAX:
        try:
            coarse = build_grid(grid.domain, 2.0 * grid.h)
        except GridSizeError:
            break
        P = _prolongation(grid, coarse)
        levels.append((A, _JACOBI_OMEGA / A.diagonal(), P))
        A = (P.T @ A @ P).tocsr()
        grid = coarse
    return levels, _factor(A if is_local else A.toarray())


def _vcycle(levels, bottom, r: np.ndarray, k: int = 0) -> np.ndarray:
    """One symmetric V-cycle for A_k x = r from x = 0: damped-Jacobi
    smoothing, restriction by P^T, the coarse correction, prolongation by P,
    and the same smoothing again."""
    if k == len(levels):
        return bottom(r)
    A, jac, P = levels[k]
    x = jac * r
    for _ in range(_SMOOTH_SWEEPS - 1):
        x += jac * (r - A @ x)
    x += P @ _vcycle(levels, bottom, P.T @ (r - A @ x), k + 1)
    for _ in range(_SMOOTH_SWEEPS):
        x += jac * (r - A @ x)
    return x


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def assemble(op: OperatorSpec, grid: Grid) -> DiscreteOperator:
    """Assemble the discrete -L on the grid's interior nodes."""
    if op.is_local:
        return _assemble_local(op, grid)
    if op.kind == "fractional":
        return _assemble_fractional(op, grid)
    raise AssemblyError(f"unknown operator kind {op.kind!r}")


def _assemble_local(op: OperatorSpec, grid: Grid) -> DiscreteOperator:
    """Stencil of -div(a grad .), with a = 1 for the Laplacian and each
    edge weighted by the mean of ``op.coeff_at`` at its two ends."""
    dim, h = grid.dim, grid.h
    shape = grid.shape
    inv_h2 = 1.0 / h**2
    idx = grid.interior_index
    interior = grid.interior_mask
    coeff = op.coeff

    if coeff is not None:
        pts = grid.node_points().reshape(-1, dim)
        relevant = (interior | grid.boundary_mask).reshape(-1)
        vals_check = np.asarray(coeff(pts[relevant]), dtype=float)
        if np.any(vals_check < op.lam - 1e-12) or np.any(vals_check > op.Lam + 1e-12):
            bad = pts[relevant][np.argmax((vals_check < op.lam) | (vals_check > op.Lam))]
            raise AssemblyError(
                f"coefficient outside [{op.lam}, {op.Lam}] near node {bad}")

    diag_lat = np.zeros(shape)
    rows, cols, vals = [], [], []
    node_pts = grid.node_points()

    for k, lead, trail in lattice_shifts(dim):
        if coeff is None:
            edge = np.full(tuple(s - (1 if i == k else 0) for i, s in enumerate(shape)),
                           inv_h2)
        else:
            p_lo = node_pts[trail].reshape(-1, dim)
            p_hi = node_pts[lead].reshape(-1, dim)
            a_lo = op.coeff_at(p_lo, k)
            a_hi = op.coeff_at(p_hi, k)
            edge = (0.5 * (a_lo + a_hi) * inv_h2).reshape(node_pts[trail].shape[:-1])

        # edges with at least one interior endpoint enter the diagonal;
        # interior-interior edges also produce the off-diagonal entries
        lo_int = interior[trail]
        hi_int = interior[lead]
        diag_lat[trail] += np.where(lo_int, edge, 0.0)
        diag_lat[lead] += np.where(hi_int, edge, 0.0)

        both = lo_int & hi_int
        r = idx[trail][both]
        c = idx[lead][both]
        e = edge[both]
        rows.extend((r, c))
        cols.extend((c, r))
        vals.extend((-e, -e))

    n = grid.n_interior
    diag_flat = diag_lat[interior]
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag_flat)
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    return DiscreteOperator(grid=grid, op=op, A=A, diag=diag_flat)


def _assemble_fractional(op: OperatorSpec, grid: Grid) -> DiscreteOperator:
    alpha = op.alpha
    dim, h = grid.dim, grid.h
    n = grid.n_interior
    if n > _FRACTIONAL_DENSE_MAX:
        raise AssemblyError(
            f"fractional assembly is dense; {n} interior nodes exceeds the cap "
            f"{_FRACTIONAL_DENSE_MAX}")
    pts = grid.interior_points()
    c = frac_constant(alpha, dim)

    if dim == 1:
        # the 1-d interior is one run of consecutive lattice nodes in flat
        # order, so nodes i and j sit |i - j| cells apart and W is Toeplitz;
        # exact cell integrals of the kernel: w_k = (c/alpha)[((k-1/2)h)^-a - ((k+1/2)h)^-a]
        x = pts[:, 0]
        k = np.arange(1.0, n)
        w = np.zeros(n)
        w[1:] = (c / alpha) * (((k - 0.5) * h) ** (-alpha) - ((k + 0.5) * h) ** (-alpha))
        W = toeplitz(w)
        # killing: everything outside the interior cell union, exactly
        x_lo = x[0] - 0.5 * h
        x_hi = x[-1] + 0.5 * h
        kill = (c / alpha) * ((x - x_lo) ** (-alpha) + (x_hi - x) ** (-alpha))
    else:
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        with np.errstate(divide="ignore"):
            W = c * h**dim * d2 ** (-(dim + alpha) / 2.0)
        np.fill_diagonal(W, 0.0)
        kill = killing_density(alpha, grid.domain, pts)
        kill = np.atleast_1d(kill)

    diag = W.sum(axis=1) + kill
    A_dense = np.negative(W, out=W)
    np.fill_diagonal(A_dense, diag)
    # every entry is stored: fill the CSR arrays from the dense block directly
    A = sp.csr_matrix((A_dense.ravel(), np.tile(np.arange(n, dtype=np.int32), n),
                       np.arange(0, n * n + 1, n, dtype=np.int32)), shape=(n, n))
    return DiscreteOperator(grid=grid, op=op, A=A, diag=diag)


# ---------------------------------------------------------------------------
# discrete Green function
# ---------------------------------------------------------------------------

def discrete_green(dop: DiscreteOperator, y) -> GridField:
    """Green column: solve A g = h^{-d} e_y (unit mass deposited at node y).

    Values approximate the continuum kernel G(., y); the solve is exact up
    to linear-solver tolerance, g >= 0 (inverse M-matrix), and symmetric in
    (x, y) because A is symmetric.
    """
    grid = dop.grid
    flat = grid.flat_of_lattice(grid.nearest_node(y))
    if flat < 0:
        raise SupportError("y must be an interior node")
    rhs = np.zeros(dop.n)
    rhs[flat] = grid.cell_volume() ** -1
    sol = dop.solve(rhs)
    return GridField.from_interior(grid, sol)
