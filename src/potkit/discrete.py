"""Grid discretizations of the model operators.

Local operators use the standard 3/5/7-point stencil (second order on the
lattice; curved boundaries enter through the staircase boundary-node set).
The fractional operator is one lattice rule in every dimension: the jump
weight of a lattice offset k is the kernel's integral over the cell
k h + [-h/2, h/2]^d, and the diagonal is one constant, the kernel's mass
outside one cell.  A row then leaks the mass outside the interior cell
union, so A is a symmetric M-matrix, the one-step kernel P = I - D^{-1} A
is sub-stochastic exactly, and A is the section on the interior of the
box circulant of its one offset table T, which applies and solves it
matrix-free by FFT.

Every linear solve is preconditioned conjugate gradients (``_pcg``), and
nothing is factored: local systems by a geometric V-cycle down to the
coarsest grid, with damped Jacobi at its bottom, small local blocks by
Jacobi alone, and fractional ones by the box circulant's inverse.  CG, its
products with A and its stop on the true residual run in float64; the
V-cycle, which only has to be accurate to a few digits, runs in float32.
Each solve leaves a ``SolveRecord`` on its operator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np
import scipy.sparse as sp
from numpy.fft import irfftn, rfftn

from .errors import AssemblyError, ConvergenceError, GridSizeError, SupportError
from .geometry import Grid, GridField, build_grid, lattice_shifts
from .kernels import OperatorSpec, frac_constant

_CG_RTOL = 1e-12
_FRACTIONAL_RTOL = 1e-14   # fractional solves: the policy iteration's residual rests on them
_CG_MAX_ITERS = 1_000
_COARSE_MAX = 4_000        # local blocks up to this size (d >= 2) run Jacobi-PCG on their own rows
_JACOBI_OMEGA = 0.8
_SMOOTH_SWEEPS = 2         # damped-Jacobi sweeps before and after each coarse correction


@dataclass
class LatticeKernel:
    """The jump kernel of a fractional operator as a lattice convolution.

    The offset ``table`` T holds the jump weight of every lattice offset on
    a box of the first power of two at or above twice the interior's extent
    per axis, in FFT order (offset o at index o mod box), so the box
    circulant of T applied to interior values is the exact
    sum_j T[i - j] x_j.  T is the only stored form of the jump weights.
    Kept with it: the flat box index of each interior node (``at``), and the
    ``symbol`` diag - rfft(T) of the box circulant C, whose section on the
    interior is A, with its inverse ``c_inv``, the unscaled preconditioner.
    """

    table: np.ndarray
    at: np.ndarray
    symbol: np.ndarray
    c_inv: np.ndarray


@dataclass(frozen=True)
class SolveRecord:
    """One linear solve: its preconditioner (``vcycle``, ``jacobi`` or
    ``circulant``), its unknowns |c|, its CG iterations and the relative
    residual ||b - A x|| / ||b|| of the x it returned."""

    method: str
    unknowns: int
    iterations: int
    residual: float


@dataclass
class DiscreteOperator:
    """Approximation A of -L on interior nodes, with its diagonal.

    A is symmetric positive definite; the associated one-step transition
    kernel is P = I - D^{-1} A with D = diag(A).  Row sums of P are <= 1,
    strictly so wherever mass leaks to boundary nodes (local operators) or
    through jumps/killing (fractional).

    A local operator stores its sparse ``stencil``; the fractional operator
    its ``kernel``, whose box circulant, read on the interior, is A by FFT.
    Every ``solve`` appends its ``SolveRecord`` to ``solves``.
    """

    grid: Grid
    op: OperatorSpec
    stencil: sp.csr_matrix | None         # local operators only
    diag: np.ndarray                      # flat interior diagonal of A
    kernel: LatticeKernel | None = field(default=None, repr=False)
    solves: list = field(default_factory=list, repr=False)

    @property
    def is_local(self) -> bool:
        return self.op.is_local

    @property
    def n(self) -> int:
        return self.grid.n_interior

    @property
    def A(self) -> sp.csr_matrix:
        """A as a CSR matrix: the stencil of a local operator; for the
        fractional operator, gathered from the offset table T (W[i, j] =
        T[offset from i to j]) on every read, all n^2 entries, not kept.
        The gather runs in blocks of about 2^22 entries straight into the
        CSR data, so it holds 12 bytes per entry (16 once n^2 needs 64-bit
        indices)."""
        if self.kernel is None:
            return self.stencil
        table, n = self.kernel.table, self.n
        ix = np.unravel_index(self.kernel.at, table.shape)
        data = np.empty((n, n))
        step = max(1, (1 << 22) // n)
        for r in range(0, n, step):
            np.negative(table[tuple((i[r:r + step, None] - i) % L for i, L in zip(ix, table.shape))],
                        out=data[r:r + step])
        np.fill_diagonal(data, self.diag)
        index = np.int32 if n * n < 2**31 else np.int64
        return sp.csr_matrix((data.reshape(-1), np.tile(np.arange(n, dtype=index), n),
                              np.arange(0, n * n + 1, n, dtype=index)), shape=(n, n))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for a flat interior vector x; by the box circulant for the
        fractional operator."""
        if self.kernel is None:
            return self.A @ x
        return _box_convolve(self.kernel.table.shape, self.kernel.at, self.kernel.symbol, x)

    def solve(self, rhs_flat: np.ndarray, on: np.ndarray | None = None,
              x0: np.ndarray | None = None) -> np.ndarray:
        """Deterministic linear solve A x = rhs, local and fractional alike;
        with ``on`` (flat interior indices c, increasing and distinct), of
        the principal block A[c, c] x = rhs instead: the Dirichlet problem
        on c with zero data off c.  CG starts from ``x0`` (on c; default 0).
        A malformed ``on``, or a right-hand side or ``x0`` whose length is
        not |c|, raises ``SupportError``.  Each solve appends its
        ``SolveRecord`` to ``solves``.

        A fractional system or block runs CG (``_pcg``) to relative residual
        ``_FRACTIONAL_RTOL``, matrix-free: A[c, c] x is the box circulant C
        applied to x placed on c, read on c, and the preconditioner is C^{-1}
        restricted to c in the same way (Chan & Ng, SIAM Review 38, 1996).
        A is the section of C on the interior, so C needs no scaling.

        A local block of at most ``_COARSE_MAX`` unknowns on a lattice of
        d >= 2 runs CG on its own rows A[c, c], preconditioned by Jacobi (a
        V-cycle with no coarse level).  (On a 1-d lattice every block is a
        chain, where Jacobi-CG needs about as many iterations as the chain
        has nodes.)  Everything else runs CG preconditioned by one V-cycle
        (``_hierarchy``, down to the coarsest grid) of the matrix it solves:
        A for a full system, and for a larger block the embedded
        K A K + diag(1_S diag A), K = diag(1_c) and S the nodes off c, with
        the right-hand side and the start zero on S: it is SPD and block
        diagonal, so x is zero on S and A[c, c]^{-1} rhs on c.  The V-cycle
        runs in float32 under the float64 CG: r is scaled to unit size by a
        power of two and cast to float32 on entry, and z cast back and
        unscaled on exit, here and nowhere else, while CG's products with A
        and its stop on the true residual stay float64.  Every local
        solve stops at relative residual ``_CG_RTOL``.  No solve calls
        BLAS, so no result depends on the size of the BLAS thread pool.
        """
        n = self.n
        c = np.arange(n) if on is None else np.asarray(on)
        if c.ndim != 1 or (c.size and (c.dtype.kind not in "iu" or c[0] < 0 or c[-1] >= n
                                       or np.any(np.diff(c) <= 0))):
            raise SupportError("on must be increasing, distinct flat interior indices")
        if np.shape(rhs_flat) != (c.size,):
            raise SupportError(f"right-hand side of shape {np.shape(rhs_flat)} for a "
                               f"system of {c.size} unknowns")
        if x0 is not None and np.shape(x0) != (c.size,):
            raise SupportError(f"start x0 of shape {np.shape(x0)} for a "
                               f"system of {c.size} unknowns")
        b, rtol = rhs_flat, _CG_RTOL
        if not self.is_local:
            kern = self.kernel
            box, at = kern.table.shape, kern.at[c]
            method, matvec = "circulant", partial(_box_convolve, box, at, kern.symbol)
            precond, rtol = partial(_box_convolve, box, at, kern.c_inv), _FRACTIONAL_RTOL
        elif on is not None and c.size <= _COARSE_MAX and self.grid.dim > 1:
            A = self.A[c][:, c]
            method, matvec = "jacobi", A.dot
            precond = partial(_vcycle, [], _JACOBI_OMEGA / A.diagonal())
        else:
            A = self.A
            if on is not None:
                # K A K + diag(1_S diag A): the stored entries of A inside c and
                # on the diagonal, in A's order
                inside = np.zeros(n, dtype=bool)
                inside[c] = True
                rows = np.repeat(np.arange(n), np.diff(A.indptr))
                kept = (inside[rows] & inside[A.indices]) | (rows == A.indices)
                indptr = np.zeros(kept.size + 1, dtype=A.indptr.dtype)
                np.cumsum(kept, out=indptr[1:])
                A = sp.csr_matrix((A.data[kept], A.indices[kept], indptr[A.indptr]),
                                  shape=A.shape)
                b = np.zeros(n)
                b[c] = rhs_flat
                if x0 is not None:
                    x0_c, x0 = x0, np.zeros(n)
                    x0[c] = x0_c
            levels, bottom = _hierarchy(self.grid, A)
            method, matvec = "vcycle", A.dot

            def precond(r):
                # r scaled to unit size by a power of two, which is exact, so
                # the float32 V-cycle neither underflows nor overflows
                e = np.frexp(max(r.max(), -r.min()))[1]
                z = _vcycle(levels, bottom, np.ldexp(r, -e).astype(np.float32)).astype(float)
                return np.ldexp(z, e, out=z)
        x, its, res = _pcg(matvec, b, precond, rtol, x0=x0)
        self.solves.append(SolveRecord(method, c.size, its, float(res)))
        return x if x.size == c.size else x[c]


def _box_convolve(box: tuple, at: np.ndarray, symbol: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The circulant of ``symbol`` on the box applied to x placed at the
    flat box indices ``at`` (zero elsewhere), read back at ``at``."""
    v = np.zeros(box)
    v.reshape(-1)[at] = x
    axes = tuple(range(len(box)))
    return irfftn(rfftn(v) * symbol, s=box, axes=axes).reshape(-1)[at]


def _pcg(matvec, b: np.ndarray, precond, rtol: float = _CG_RTOL,
         x0: np.ndarray | None = None) -> tuple:
    """Preconditioned conjugate gradients for the SPD system A x = b from
    x0 (default 0), with ``matvec(p)`` applying A and ``precond(r)`` the SPD
    preconditioner, until the true residual r = b - A x has ||r|| <= ``rtol``
    ||b||.  The recurrence's r drifts from b - A x, so once it meets the
    bound r is recomputed; if that misses, CG restarts once from the true r,
    which removes the drift, and a second miss is the rounding floor of
    b - A x, where it stops.  A zero b returns x = 0 at 0 iterations,
    whatever x0.  Returns (x, iterations, ||r|| / ||b|| of the true r);
    raises ``ConvergenceError`` after ``_CG_MAX_ITERS`` iterations.  Inner
    products run in einsum's own loop, not BLAS, so neither x nor the cost
    depends on the BLAS thread pool."""
    b_norm = np.sqrt(np.einsum("i,i", b, b))
    bound = rtol * b_norm
    if x0 is None or not bound:
        x, r = np.zeros_like(b), b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - matvec(x)
    p = rz_prev = None
    restarted = False
    for it in range(_CG_MAX_ITERS + 1):
        r_norm = np.sqrt(np.einsum("i,i", r, r))
        if r_norm <= bound and p is not None:
            r = b - matvec(x)
            r_norm = np.sqrt(np.einsum("i,i", r, r))
            if r_norm <= bound or restarted:
                return x, it, r_norm / b_norm
            restarted, p = True, None
        elif r_norm <= bound:
            return x, it, r_norm / b_norm if b_norm else 0.0
        if it == _CG_MAX_ITERS:
            break
        z = precond(r)
        rz = np.einsum("i,i", r, z)
        p = z if p is None else z + (rz / rz_prev) * p
        q = matvec(p)
        alpha = rz / np.einsum("i,i", p, q)
        x += alpha * p
        r -= alpha * q
        rz_prev = rz
    raise ConvergenceError(f"CG did not reach relative residual {rtol:g} "
                           f"within {_CG_MAX_ITERS} iterations")


# ---------------------------------------------------------------------------
# geometric multigrid in float32 (CG preconditioner, damped Jacobi at the bottom)
# ---------------------------------------------------------------------------

def _restriction(fine: Grid, coarse: Grid) -> sp.csr_matrix:
    """R = P^T in float32 for P the tensor-product linear interpolation
    from the coarse interior to the fine interior (coarse mesh width 2h on
    the same anchored lattice), with zero Dirichlet values off the coarse
    interior: row j holds the weights 2^-|s|_0, exact in float32, of the
    fine nodes at the 3^d shifts s of coarse node j, whose flat indices
    increase in ``itertools.product`` order."""
    # fine lattice multi-index of every coarse interior node
    centre = [2 * (coarse.offset[k] + c) - fine.offset[k]
              for k, c in enumerate(np.nonzero(coarse.interior_mask))]
    shifts = list(itertools.product((-1, 0, 1), repeat=fine.dim))
    cols = np.stack([fine.interior_index[tuple(c + s for c, s in zip(centre, shift))]
                     for shift in shifts]).astype(np.int32)
    vals = np.array([[0.5 ** np.count_nonzero(shift)] for shift in shifts], dtype=np.float32)
    return _slot_csr(cols, np.broadcast_to(vals, cols.shape), fine.n_interior)


def _slot_csr(cols: np.ndarray, vals: np.ndarray, n_cols: int) -> sp.csr_matrix:
    """The CSR matrix whose row i holds vals[s, i] at column cols[s, i] for
    each slot s in turn, a column of -1 marking no entry."""
    keep = cols >= 0
    indptr = np.zeros(cols.shape[1] + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=0), out=indptr[1:])
    return sp.csr_matrix((vals.T[keep.T], cols.T[keep.T], indptr),
                         shape=(cols.shape[1], n_cols))


def _coarsen(grid: Grid):
    """(grid of width 2h, restriction R onto it), or None at the coarsest
    grid: built on the first V-cycle that needs it and kept on the fine
    grid, so every solve on one grid shares one coarse chain."""
    if grid.coarse is None:
        try:
            coarse = build_grid(grid.domain, 2.0 * grid.h)
        except GridSizeError:
            grid.coarse = ()
        else:
            grid.coarse = (coarse, _restriction(grid, coarse))
    return grid.coarse or None


def _hierarchy(grid: Grid, A: sp.csr_matrix):
    """float32 V-cycle levels ``(A, omega / diag(A), P)`` from the finest
    down, with Galerkin coarse operators P^T A P (P kept as the CSC view
    R.T of the float32 restriction R = P^T, from ``_coarsen``), down to the
    coarsest grid or the first coarse grid that is not smaller, and the
    damped-Jacobi weights omega / diag of the bottom operator.  A's data is
    cast to float32 once, sharing A's indices and indptr, and every product
    runs in float32.  The matrices are built per call and freed with it.
    Only sparse local matrices get here, each symmetric bit for bit: a
    stencil A, or the embedded matrix of a block (Kornhuber's truncated
    coarse operators).  The product runs as M = R (M P) on the transpose M
    of each level's matrix, so every coarse entry sums the terms of
    ``(P.T @ A32 @ P).tocsr()`` in its order; a coarse operator of a
    divergence-form A is then symmetric to float32 rounding."""
    A = sp.csr_matrix((A.data.astype(np.float32), A.indices, A.indptr), shape=A.shape)
    levels, M = [], A
    while (step := _coarsen(grid)) is not None and step[0].n_interior < A.shape[0]:
        coarse, R = step
        levels.append((A, _JACOBI_OMEGA / A.diagonal(), R.T))
        M = R @ (M @ R.T.tocsr())
        M.sort_indices()
        A = M.T.tocsr()
        grid = coarse
    return levels, _JACOBI_OMEGA / A.diagonal()


def _vcycle(levels, bottom: np.ndarray, r: np.ndarray, k: int = 0) -> np.ndarray:
    """One symmetric V-cycle for A_k x = r from x = 0: damped-Jacobi
    smoothing, restriction by P^T, the coarse correction, prolongation by P,
    and the same smoothing again; at the bottom, one damped-Jacobi step with
    the weights ``bottom``.  It runs in the precision of its arguments:
    float32 for ``_hierarchy``'s levels, float64 for the Jacobi weights of
    a small block (no levels)."""
    if k == len(levels):
        return bottom * r
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
        node_pts = grid.node_points()
        pts = node_pts.reshape(-1, dim)
        relevant = (interior | grid.boundary_mask).reshape(-1)
        vals_check = np.asarray(coeff(pts[relevant]), dtype=float)
        if np.any(vals_check < op.lam - 1e-12) or np.any(vals_check > op.Lam + 1e-12):
            bad = pts[relevant][np.argmax((vals_check < op.lam) | (vals_check > op.Lam))]
            raise AssemblyError(
                f"coefficient outside [{op.lam}, {op.Lam}] near node {bad}")

    # one slot per stencil entry in CSR column order: -e_0 .. -e_{d-1}, the
    # node itself, +e_{d-1} .. +e_0, on the interior rows only: each slot is
    # filled on one reused lattice buffer and gathered from it, a column of
    # -1 marking a missing neighbour
    diag_lat = np.zeros(shape)
    cols = np.empty((2 * dim + 1, grid.n_interior), dtype=np.int32)
    vals = np.empty(cols.shape)
    col_lat, val_lat = np.empty(shape, dtype=np.int32), np.empty(shape)

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
        diag_lat[trail] += np.where(interior[trail], edge, 0.0)
        diag_lat[lead] += np.where(interior[lead], edge, 0.0)
        for slot, at, nbr in ((2 * dim - k, trail, lead), (k, lead, trail)):
            col_lat.fill(-1)
            col_lat[at] = idx[nbr]
            np.negative(edge, out=val_lat[at])
            cols[slot], vals[slot] = col_lat[interior], val_lat[interior]

    diag_flat = diag_lat[interior]
    cols[dim], vals[dim] = idx[interior], diag_flat
    del diag_lat, col_lat, val_lat     # out of the CSR build, which holds the peak
    A = _slot_csr(cols, vals, grid.n_interior)
    return DiscreteOperator(grid=grid, op=op, stencil=A, diag=diag_flat)


def _assemble_fractional(op: OperatorSpec, grid: Grid) -> DiscreteOperator:
    """The fractional operator from its interior mask, alpha and h alone:
    the table T[k] = c h^-alpha tau_d(k) of cell integrals
    tau_d(k) = Int_{k + [-1/2, 1/2]^d} |y|^(-d-alpha) dy, and the constant
    diagonal c h^-alpha E_d(alpha), E_d the kernel's mass outside one cell:
    E_d(alpha) = (d / alpha) Int_{[-1/2, 1/2]^(d-1)} (1/4 + |z|^2)^(-(d+alpha)/2) dz,
    (2 / alpha) 2^alpha in 1-d.  A row of A then leaks the kernel's mass
    outside the interior cell union: kappa = diag - T * 1_D, never stored."""
    alpha, dim, h = op.alpha, grid.dim, grid.h
    c = frac_constant(alpha, dim)
    lattice = np.nonzero(grid.interior_mask)          # interior multi-indices, flat order
    box = tuple(1 << int(2 * (ix.max() - ix.min()) + 1).bit_length() for ix in lattice)
    # the signed lattice offset of every box index, per axis, in FFT order
    offsets = np.meshgrid(*[(np.arange(L) + L // 2) % L - L // 2 for L in box],
                          indexing="ij", sparse=True)
    if dim == 1:
        k = np.maximum(np.abs(offsets[0]), 1).astype(float)
        table = (c / alpha) * (((k - 0.5) * h) ** (-alpha) - ((k + 0.5) * h) ** (-alpha))
    else:
        # tau_d read at |k| on the octant, so T[k] and T[-k] are the same bits
        table = c * h ** (-alpha) * _cell_integrals(alpha, box)[tuple(np.abs(o) for o in offsets)]
    table[(0,) * dim] = 0.0
    # E_d: the face integral by the finest rule, its first axis pinned at 1/2
    x, w = _gauss(_GAUSS_NODES[1])
    face = _tensor_gauss([np.full((1, 1), 0.25)] + [x[None, :] ** 2] * (dim - 1),
                         [np.ones(1)] + [w] * (dim - 1), -(dim + alpha) / 2.0)
    diag = c * h ** (-alpha) * (dim / alpha) * float(face[0])
    at = np.ravel_multi_index(tuple(ix - ix.min() for ix in lattice), box)
    return DiscreteOperator(grid=grid, op=op, stencil=None, diag=np.full(grid.n_interior, diag),
                            kernel=_lattice_kernel(table, at, diag))


# Gauss-Legendre nodes per axis on the cells at |k|_inf = 0, 1, 2, ..., the last
# entry for every cell beyond: the tensor rule integrates tau_d to 3e-12 relative
# or better (against 32 nodes per axis, alpha 0.1 to 1.99, d = 2 and 3)
_GAUSS_NODES = (24, 24, 12) + (8,) * 4 + (6,) * 3 + (5,) * 6 + (4,)


@cache
def _gauss(g: int) -> tuple:
    """The g-point Gauss-Legendre nodes and weights on [-1/2, 1/2]."""
    x, w = np.polynomial.legendre.leggauss(g)
    return x / 2, w / 2


def _tensor_gauss(sq: list, w: list, e: float) -> np.ndarray:
    """Per row, the sum over a tensor Gauss rule of prod_i w_i (sum_i sq_i)^e,
    sq_i (m, g_i) the squared coordinates on axis i at its nodes, w_i their
    weights; first-axis nodes go one at a time (temporaries m x g_2 ... g_d)."""
    rest, w_rest = np.zeros((len(sq[0]), 1)), np.ones(1)
    for s, wi in zip(sq[1:], w[1:]):
        rest = (rest[:, :, None] + s[:, None, :]).reshape(len(s), rest.shape[1] * s.shape[1])
        w_rest = np.outer(w_rest, wi).ravel()
    return sum(wj * np.einsum("ij,j->i", (sq[0][:, j, None] + rest) ** e, w_rest)
               for j, wj in enumerate(w[0]))


def _cell_integrals(alpha: float, box: tuple) -> np.ndarray:
    """tau_d(k) on the octant k = 0 .. L/2 per axis of the box, by the tensor
    rules of ``_GAUSS_NODES``; the value at k = 0 (not integrable) is unused."""
    dim = len(box)
    octant = np.meshgrid(*[np.arange(L // 2 + 1) for L in box], indexing="ij")
    nodes = np.array(_GAUSS_NODES)[np.minimum(np.maximum.reduce(octant), len(_GAUSS_NODES) - 1)]
    tau = np.zeros(nodes.shape)
    for g in set(_GAUSS_NODES):
        x, w = _gauss(g)
        cells = nodes == g
        tau[cells] = _tensor_gauss([(o[cells][:, None] + x) ** 2 for o in octant],
                                   [w] * dim, -(dim + alpha) / 2.0)
    return tau


def _lattice_kernel(table: np.ndarray, at: np.ndarray, diag: float) -> LatticeKernel:
    """The kernel of an offset table on its box, with the box circulant of
    symbol diag - rfft(table); a symbol that is not positive raises
    ``AssemblyError``."""
    symbol = diag - rfftn(table).real
    if not np.min(symbol) > 0.0:
        raise AssemblyError(
            f"circulant symbol is not positive (min {np.min(symbol):.3e}): "
            f"the jump weights on the box outweigh the diagonal {diag:.3e}")
    return LatticeKernel(table=table, at=at, symbol=symbol, c_inv=1.0 / symbol)


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
