import gc
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve

from potkit import (Domain, OperatorSpec, assemble, build_grid, discrete_green, green,
                    harmonic_extension, reduite)
from potkit import discrete
from potkit.errors import AssemblyError, ConvergenceError, SupportError
from potkit.geometry import GridField, lattice_shifts
from potkit.kernels import frac_constant

LAP = OperatorSpec.laplacian()


def test_laplacian_1d_transition_weights(interval_dop):
    # P = I - D^{-1} A
    P = sp.eye(interval_dop.n) - sp.diags(1.0 / interval_dop.diag) @ interval_dop.A
    # interior rows: one half to each neighbor
    row = P.getrow(interval_dop.n // 2).toarray().ravel()
    nz = row[row > 0]
    assert np.allclose(nz, 0.5)


def test_p_row_sums_substochastic(interval_dop, disk_dop_small):
    for dop in (interval_dop, disk_dop_small):
        rs = 1.0 - np.asarray(dop.A.sum(axis=1)).ravel() / dop.diag
        assert np.all(rs <= 1.0 + 1e-12)
        assert np.all(rs >= -1e-12)
        assert rs.min() < 1.0 - 1e-9        # killing next to the boundary
        assert np.any(np.isclose(rs, 1.0))  # interior rows conserve mass


def test_matrix_symmetric_spd(disk_dop_small):
    A = disk_dop_small.A
    assert abs(A - A.T).max() < 1e-12
    small = assemble(LAP, build_grid(Domain.ball([0, 0], 1.0, 2), 0.34))
    w = np.linalg.eigvalsh(small.A.toarray())
    assert w.min() > 0


def test_green_column_identity(interval_dop):
    g = discrete_green(interval_dop, np.array([0.5]))
    flat = g.interior_values()
    rhs = interval_dop.A @ flat
    h = interval_dop.grid.h
    expect = np.zeros_like(rhs)
    expect[interval_dop.grid.flat_of_lattice(
        interval_dop.grid.nearest_node(0.5))] = 1.0 / h
    assert np.max(np.abs(rhs - expect)) < 1e-8 / h


def test_green_column_nonneg_symmetric(disk_dop_small):
    grid = disk_dop_small.grid
    ga = discrete_green(disk_dop_small, np.array([0.25, 0.0]))
    gb = discrete_green(disk_dop_small, np.array([-0.25, 0.25]))
    assert np.all(ga.values >= -1e-14)
    va = ga.values[grid.nearest_node([-0.25, 0.25])]
    vb = gb.values[grid.nearest_node([0.25, 0.0])]
    assert va == pytest.approx(vb, rel=1e-10)


def test_disk_green_grid_converges():
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    exact = green(LAP, dom, [0.25, 0.0], [-0.25, 0.25])
    errs = []
    for h in (2.0**-4, 2.0**-5, 2.0**-6):
        grid = build_grid(dom, h)
        dop = assemble(LAP, grid)
        g = discrete_green(dop, np.array([-0.25, 0.25]))
        errs.append(abs(g.values[grid.nearest_node([0.25, 0.0])] - exact))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 5e-3


def test_divergence_assembly():
    coeff = lambda pts: 1.0 + 0.5 * np.sin(np.pi * np.atleast_2d(pts)[:, 0])
    op = OperatorSpec.divergence(coeff, lam=0.5, Lam=1.5)
    grid = build_grid(Domain.interval(0.0, 1.0), 1.0 / 64)
    dop = assemble(op, grid)
    A = dop.A
    assert abs(A - A.T).max() < 1e-12
    rs = 1.0 - np.asarray(dop.A.sum(axis=1)).ravel() / dop.diag
    assert np.all(rs <= 1.0 + 1e-12)
    # potential of the unit density solves the two-point problem; compare
    # against a dense solve assembled independently by midpoint coefficients
    x = grid.interior_points().ravel()
    h = grid.h
    n = x.size
    a_half_hi = 1.0 + 0.5 * np.sin(np.pi * (x + h / 2.0))
    a_half_lo = 1.0 + 0.5 * np.sin(np.pi * (x - h / 2.0))
    main = (a_half_hi + a_half_lo) / h**2
    Ad = np.diag(main) - np.diag(a_half_hi[:-1] / h**2, 1) \
        - np.diag(a_half_lo[1:] / h**2, -1)
    u_ref = np.linalg.solve(Ad, np.ones(n))
    u = dop.solve(np.ones(n))
    # edge coefficients differ (arithmetic node mean vs midpoint), both
    # second order; agree to O(h^2)
    assert np.max(np.abs(u - u_ref)) < 5e-4


def test_divergence_coefficient_violation():
    coeff = lambda pts: np.full(np.atleast_2d(pts).shape[0], 0.05)
    op = OperatorSpec.divergence(coeff, lam=0.5, Lam=1.5)
    grid = build_grid(Domain.interval(0.0, 1.0), 0.125)
    with pytest.raises(AssemblyError):
        assemble(op, grid)


def test_fractional_assembly_1d():
    op = OperatorSpec.fractional(0.5)
    dom = Domain.interval(-1.0, 1.0)
    grid = build_grid(dom, 2.0**-6)
    dop = assemble(op, grid)
    assert abs(dop.A - dop.A.T).max() < 1e-12
    rs = 1.0 - np.asarray(dop.A.sum(axis=1)).ravel() / dop.diag
    assert np.all(rs < 1.0)          # jumps leak everywhere
    assert np.all(rs > 0.0)


@pytest.mark.parametrize("alpha, dom, h", [
    (0.5, Domain.interval(-1.0, 1.0), 2.0**-6),
    (1.3, Domain.interval(-0.3, 2.1), 0.013),
    (0.8, Domain.interval(0.0, 1.0), 2.0**-9),
    (1.9, Domain.interval(-1.0, 1.0), 1.0),      # n = 1
    (0.5, Domain.interval(0.0, 1.0), 0.25),      # n = 3
    (1.2, Domain.interval(-1.0, 1.0), 0.25),     # n = 7
    (1.7, Domain.interval(-1.0, 1.0), 0.013),    # n = 153
])
def test_fractional_assembly_matches_pairwise_formula(alpha, dom, h):
    """The assembly equals the cell-integral formula evaluated on every pair
    of nodes: every off-diagonal entry bit for bit, and the diagonal, the
    kernel's mass outside one cell, is one value within 4e-15 of
    (2c / alpha) (h/2)^-alpha."""
    grid = build_grid(dom, h)
    dop = assemble(OperatorSpec.fractional(alpha), grid)
    x = grid.interior_points()[:, 0]
    c = frac_constant(alpha, 1)
    k = np.maximum(np.rint(np.abs(x[:, None] - x[None, :]) / h), 1.0)
    W = (c / alpha) * (((k - 0.5) * h) ** (-alpha) - ((k + 0.5) * h) ** (-alpha))
    A = -W
    np.fill_diagonal(A, dop.diag)
    diag = (2.0 * c / alpha) * (h / 2.0) ** (-alpha)
    assert np.all(dop.diag == dop.diag[0])
    assert abs(dop.diag[0] - diag) <= 4e-15 * diag
    assert np.array_equal(dop.A.toarray(), A)
    assert dop.A.nnz == dop.n**2


@pytest.mark.parametrize("alpha, dom, h", [
    (0.5, Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-3),
    (1.5, Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-3),
    (0.8, Domain.ball([0.0, 0.0, 0.0], 1.0, 3), 0.25),
])
def test_fractional_assembly_ball(alpha, dom, h):
    """The cell-integral assembly of d >= 2: a symmetric CSR matrix with
    every entry stored, nonpositive off the diagonal, and positive row sums
    (the killing of the jumps that leave the interior cell union)."""
    dop = assemble(OperatorSpec.fractional(alpha), build_grid(dom, h))
    A = dop.A
    assert A.format == "csr" and A.nnz == dop.n**2
    assert (A != A.T).nnz == 0
    dense = A.toarray()
    assert np.all(dense[~np.eye(dop.n, dtype=bool)] <= 0.0)
    assert np.array_equal(np.diag(dense), dop.diag)
    assert np.all(np.asarray(A.sum(axis=1)).ravel() > 0.0)


def test_fractional_operator_reads_only_the_lattice():
    """The h = 2^-4 disk assembled as a ball and as a rectangle on its
    bounding box masked to the disk: the same interior lattice gives the
    same operator, bit for bit."""
    op = OperatorSpec.fractional(1.2)
    ball = assemble(op, build_grid(Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-4))
    masked = assemble(op, build_grid(Domain.rectangle(
        [(-1.0, 1.0), (-1.0, 1.0)], mask=lambda p: p[:, 0] ** 2 + p[:, 1] ** 2 < 1.0), 2.0**-4))
    assert np.array_equal(ball.grid.interior_points(), masked.grid.interior_points())
    assert np.array_equal(ball.diag, masked.diag)
    for name in ("table", "at", "symbol", "c_inv"):
        assert np.array_equal(getattr(ball.kernel, name), getattr(masked.kernel, name))


@pytest.mark.parametrize("dom", [
    Domain.rectangle([(0.0, 1.0), (0.0, 1.0)]),
    Domain.rectangle([(0.0, 1.0), (0.0, 1.0)],
                     mask=lambda p: ~((p[:, 0] > 0.5) & (p[:, 1] > 0.5))),
], ids=["square", "L-shape"])
def test_fractional_operator_on_rectangles(dom):
    """Rectangles and masked rectangles assemble at h = 2^-5: A is
    symmetric, leaks mass at every node (A 1 > 0), and the Green column
    from (0.25, 0.25) solves to relative residual 1e-12."""
    dop = assemble(OperatorSpec.fractional(1.2), build_grid(dom, 2.0**-5))
    A = dop.A
    assert (A != A.T).nnz == 0
    assert np.all(dop.apply(np.ones(dop.n)) > 0.0)
    g = discrete_green(dop, np.array([0.25, 0.25])).interior_values()
    b = np.zeros(dop.n)
    b[dop.grid.flat_of_lattice(dop.grid.nearest_node([0.25, 0.25]))] = 2.0**10
    assert np.linalg.norm(A @ g - b) <= 1e-12 * np.linalg.norm(b)


def _frac_interval():
    """The fractional operator on the h = 2^-8 interval (n = 511)."""
    return assemble(OperatorSpec.fractional(0.5),
                    build_grid(Domain.interval(-1.0, 1.0), 2.0**-8))


def _off(dop, S):
    """The flat interior indices off S, in increasing order."""
    return np.setdiff1d(np.arange(dop.n), S)


def test_fractional_solve_matches_spsolve(cg_calls):
    """A full fractional solve is one matrix-free CG solve, to 1e-12 of a
    sparse direct solve, and factors nothing."""
    dop = _frac_interval()
    rhs = np.random.default_rng(5).standard_normal(dop.n)
    ref = spla.spsolve(dop.A.tocsc(), rhs)
    x = dop.solve(rhs)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    assert len(cg_calls) == 1 and cg_calls[0] <= 20


@pytest.mark.parametrize("S", [[200], [0, 255, 510]])
def test_fractional_block_solve(cg_calls, S):
    """A block that leaves |S| = 1 or 3 nodes out is one matrix-free CG
    solve, to 1e-12 of a Cholesky of A[c, c], leaving A and the right-hand
    side as they were."""
    dop = _frac_interval()
    c = _off(dop, S)
    rhs = np.random.default_rng(6).standard_normal(c.size)
    A_data, rhs_before = dop.A.data.copy(), rhs.copy()
    x = dop.solve(rhs, on=c)
    assert len(cg_calls) == 1
    ref = cho_solve(cho_factor(dop.A.toarray()[np.ix_(c, c)]), rhs)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.array_equal(dop.A.data, A_data)
    assert np.array_equal(rhs, rhs_before)


FRAC_KERNEL_CASES = {
    "interval-0.5": (0.5, Domain.interval(-1.0, 1.0), 2.0**-10),
    "interval-1.9": (1.9, Domain.interval(-0.3, 2.1), 0.013),
    "disk-0.5": (0.5, Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-4),
    "disk-1.5": (1.5, Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-4),
    "ball3-0.8": (0.8, Domain.ball([0.0, 0.0, 0.0], 1.0, 3), 0.25),
}


@pytest.mark.parametrize("case", FRAC_KERNEL_CASES)
def test_kernel_convolution_matches_a(case):
    """The box circulant's FFT convolution is A within 1e-14, on every
    node and on a principal block, and the circulant symbol is positive."""
    alpha, dom, h = FRAC_KERNEL_CASES[case]
    dop = assemble(OperatorSpec.fractional(alpha), build_grid(dom, h))
    rng = np.random.default_rng(9)
    x = rng.standard_normal(dop.n)
    ref = dop.A @ x
    assert np.linalg.norm(dop.apply(x) - ref) <= 1e-14 * np.linalg.norm(ref)
    c = np.flatnonzero(rng.random(dop.n) < 0.5)
    kern = dop.kernel
    ref = dop.A[c][:, c] @ x[c]
    got = discrete._box_convolve(kern.table.shape, kern.at[c], kern.symbol, x[c])
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
    assert np.all(kern.symbol > 0.0)


@pytest.mark.parametrize("case", FRAC_KERNEL_CASES)
def test_applied_operator_leaks_exactly_its_killing(case):
    """A 1 = kappa within 3 roundings of the diagonal: the FFT convolution
    leaks exactly the killing kappa_i = diag_i - sum_{j != i} T[i - j],
    summed pairwise in long double over the entries of A."""
    alpha, dom, h = FRAC_KERNEL_CASES[case]
    dop = assemble(OperatorSpec.fractional(alpha), build_grid(dom, h))
    kill = dop.A.toarray().astype(np.longdouble).sum(axis=1)
    leak = np.abs(dop.apply(np.ones(dop.n)) - kill)
    assert np.all(leak <= 3 * np.finfo(float).eps * dop.diag)


def test_nonpositive_symbol_raises():
    """A diagonal too small for the box's jump weights leaves the circulant
    without a positive symbol, which is refused by name."""
    dop = _frac_interval()
    kern = dop.kernel
    with pytest.raises(AssemblyError, match="symbol is not positive"):
        discrete._lattice_kernel(kern.table, kern.at, 0.5 * dop.diag[0])


def _jacobi_iterations(dop, b):
    """CG iterations with the Jacobi preconditioner instead of the
    circulant; the budget if it is not enough."""
    kern = dop.kernel
    try:
        return discrete._pcg(partial(discrete._box_convolve, kern.table.shape, kern.at,
                                     kern.symbol), b,
                             lambda r: r / dop.diag, discrete._FRACTIONAL_RTOL)[1]
    except ConvergenceError:
        return discrete._CG_MAX_ITERS


@lru_cache(maxsize=1)
def _interval_lu(alpha):
    """The n = 2,047 interval operator at alpha, its CSR A, A in long double
    and the LU factors of A; one alpha at a time is kept."""
    dop = assemble(OperatorSpec.fractional(alpha), build_grid(Domain.interval(-1.0, 1.0),
                                                               2.0**-10))
    A = dop.A
    dense = A.toarray()
    return dop, A, dense.astype(np.longdouble), lu_factor(dense)


def _rounded_solution(A_long, lu, b):
    """A^{-1} b correctly rounded: dense LU refined once with a long-double
    residual."""
    x = lu_solve(lu, b)
    r = b.astype(np.longdouble) - A_long @ x.astype(np.longdouble)
    return x + lu_solve(lu, r.astype(float))


# seed 10 keeps each alpha's historical id
INTERVAL_SOLVE_CASES = [pytest.param(alpha, seed, id=f"{alpha}" if seed == 10 else
                                     f"{alpha}-seed{seed}")
                        for alpha in (0.5, 1.0, 1.5, 1.9) for seed in range(10, 22)]


@pytest.mark.parametrize("alpha, seed", INTERVAL_SOLVE_CASES)
def test_interval_solve_iterations_are_bounded(cg_calls, alpha, seed):
    """On the n = 2,047 interval the circulant-preconditioned CG takes at
    most 20 iterations for every alpha (8-12); Jacobi needs more than 20
    (75 at alpha 0.5, over the 1,000-iteration budget at 1.9).  The CG
    solution's residual through the CSR A is at most 8 times that of the
    correctly rounded solution, whose own residual is the floor of the
    gathered matrix in double (up to 7e-13 at alpha 1.9): over seeds 10-21
    the ratio reads 1.0-4.3, and the fixed 1e-12 it replaces failed at
    seeds 15, 20 and 21."""
    dop, A, A_long, lu = _interval_lu(alpha)
    assert dop.n == 2_047
    b = np.random.default_rng(seed).standard_normal(dop.n)
    x = dop.solve(b)
    assert cg_calls[0] <= 20
    floor = np.linalg.norm(A @ _rounded_solution(A_long, lu, b) - b)
    assert np.linalg.norm(A @ x - b) <= 8.0 * floor
    assert _jacobi_iterations(dop, b) > 20


DISK = Domain.ball([0.0, 0.0], 1.0, 2)
BALL3 = Domain.ball([0.0, 0.0, 0.0], 1.0, 3)


@pytest.mark.parametrize("dom, h, alpha", [
    (DISK, 2.0**-5, 0.5), (DISK, 2.0**-5, 1.5), (DISK, 2.0**-5, 1.9),
    (DISK, 2.0**-6, 0.5), (DISK, 2.0**-6, 1.5), (DISK, 2.0**-6, 1.9),
    (BALL3, 2.0**-3, 0.8), (BALL3, 2.0**-3, 1.5),
], ids=["0.5", "1.5", "1.9", "h6-0.5", "h6-1.5", "h6-1.9", "ball3-0.8", "ball3-1.5"])
def test_disk_solve_iterations_are_bounded(cg_calls, dom, h, alpha):
    """On the h = 2^-5 and 2^-6 disks (3,205 and 12,849 unknowns) and the
    h = 1/8 3-ball, the box circulant keeps CG within 40 iterations on a
    constant, a random and a Green-column right-hand side.  The constant
    one on the 2^-5 disk takes 9 and 16 at alpha 0.5 and 1.5; the
    Jacobi-scaled circulant of point weights took 18 and 57 there, and
    213 on the Green column at alpha 1.9 and h = 2^-6."""
    dop = assemble(OperatorSpec.fractional(alpha), build_grid(dom, h))
    green_rhs = np.zeros(dop.n)
    green_rhs[dop.grid.flat_of_lattice(dop.grid.nearest_node([0.3, 0.1, 0.0][:dom.dim]))] = 1.0
    for b in (np.ones(dop.n), np.random.default_rng(11).standard_normal(dop.n), green_rhs):
        x = dop.solve(b)
        assert np.linalg.norm(dop.apply(x) - b) <= 1e-12 * np.linalg.norm(b)
    assert len(cg_calls) == 3 and max(cg_calls) <= 40


def test_dropped_fractional_operator_is_freed():
    """An operator that has solved, block-solved and run a reduite holds no
    reference cycle: dropping it frees it at once, kernel and all."""
    gc.collect()
    gc.disable()
    try:
        dop = _frac_interval()
        x = dop.grid.interior_points()[:, 0]
        dop.solve(np.ones(dop.n))
        dop.solve(np.ones(dop.n - 1), on=_off(dop, [100]))
        assert reduite(dop, GridField.from_interior(dop.grid, np.maximum(0.3 - x * x, 0.0))
                       ).policy_steps >= 1
        kernel = weakref.ref(dop.kernel)
        dropped = weakref.ref(dop)
        del dop
        assert dropped() is None and kernel() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_fractional_green_consistency():
    op = OperatorSpec.fractional(0.5)
    dom = Domain.interval(-1.0, 1.0)
    exact = green(op, dom, 0.25, -0.3)
    errs = []
    for h in (2.0**-5, 2.0**-6, 2.0**-7):
        grid = build_grid(dom, h)
        dop = assemble(op, grid)
        g = discrete_green(dop, np.array([-0.3]))
        errs.append(abs(g.values[grid.nearest_node(0.25)] - exact))
    assert errs[-1] < errs[0]
    assert errs[-1] / exact < 0.05


def test_fractional_assembles_and_solves_19999_nodes():
    """n = 19,999 and 99,999 interior nodes assemble; the Green column
    solves to 1e-14 through the kernel, and the diagonal is one value,
    (2c / alpha) (h/2)^-alpha within 4e-15."""
    alpha = 0.5
    for h, n in ((1e-4, 19_999), (2e-5, 99_999)):
        grid = build_grid(Domain.interval(-1.0, 1.0), h)
        dop = assemble(OperatorSpec.fractional(alpha), grid)
        assert dop.n == n
        g = discrete_green(dop, np.array([0.0])).interior_values()
        b = np.zeros(n)
        b[grid.flat_of_lattice(grid.nearest_node(np.array([0.0])))] = 1.0 / h
        assert np.linalg.norm(dop.apply(g) - b) <= 1e-14 * np.linalg.norm(b)
        diag = (2.0 * frac_constant(alpha, 1) / alpha) * (h / 2.0) ** (-alpha)
        assert np.all(dop.diag == dop.diag[0])
        assert abs(dop.diag[0] - diag) <= 4e-15 * diag


def test_fractional_assembly_stores_no_dense_matrix():
    """Assembling the n = 2,047 interval or the h = 2^-5 disk (n = 3,205)
    allocates no n x n array (one would be 33.5 or 82 MB) and peaks under
    2 MB."""
    op = OperatorSpec.fractional(0.5)
    for dom, h in ((Domain.interval(-1.0, 1.0), 2.0**-10),
                   (Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-5)):
        tracemalloc.start()
        try:
            assemble(op, build_grid(dom, h))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


def test_discrete_green_needs_interior():
    op = OperatorSpec.laplacian()
    grid = build_grid(Domain.interval(0.0, 1.0), 0.25)
    dop = assemble(op, grid)
    with pytest.raises(SupportError):
        discrete_green(dop, np.array([0.0]))


# -- CG with the V-cycle preconditioner (LU only at the bottom level) --------

def _smooth_coeff(pts):
    return 1.0 + 0.5 * np.sin(np.pi * np.atleast_2d(pts)[:, 0])


def _l_shape(pts):
    return ~((pts[:, 0] > 0.5) & (pts[:, 1] > 0.5))


CG_CASES = {
    "disk": (LAP, Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-6),
    "ball3d": (LAP, Domain.ball([0.0, 0.0, 0.0], 1.0, 3), 0.1),
    "divergence-disk": (OperatorSpec.divergence(_smooth_coeff, lam=0.5, Lam=1.5),
                        Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-6),
    "l-shape": (LAP, Domain.rectangle([(0.0, 1.0), (0.0, 1.0)], mask=_l_shape), 2.0**-7),
    "interval": (LAP, Domain.interval(0.0, 1.0), 2.0**-10),
}


BLOCK_CASES = {"laplacian-disk": CG_CASES["disk"],
               "laplacian-disk-coarse": (LAP, Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-5),
               "divergence-disk": CG_CASES["divergence-disk"],
               "fractional-interval": (OperatorSpec.fractional(0.5),
                                       Domain.interval(-1.0, 1.0), 2.0**-8)}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_principal_block_solve(monkeypatch, case):
    """solve(rhs, on=c) solves A[c, c] x = rhs by one CG solve, whatever the
    block's size (1,940 nodes on the coarse disk, 7,691 on the fine one):
    CG returns the true relative residual, which meets _CG_RTOL
    (_FRACTIONAL_RTOL for the fractional operator) and is the one read here
    through the CSR block; A and the caller's right-hand side stay as they
    were."""
    op, dom, h = BLOCK_CASES[case]
    dop = assemble(op, build_grid(dom, h))
    rng = np.random.default_rng(8)
    c = np.flatnonzero(rng.random(dop.n) < 0.6)
    rhs = rng.standard_normal(c.size)
    assert rhs.flags.f_contiguous
    A_data, rhs_before = dop.A.data.copy(), rhs.copy()
    runs, pcg = [], discrete._pcg

    def spy(*args, **kwargs):
        runs.append(pcg(*args, **kwargs))
        return runs[-1]
    monkeypatch.setattr(discrete, "_pcg", spy)
    x = dop.solve(rhs, on=c)
    rtol = discrete._CG_RTOL if op.is_local else discrete._FRACTIONAL_RTOL
    (_, _, residual), = runs
    true = np.linalg.norm(dop.A[c][:, c] @ x - rhs) / np.linalg.norm(rhs)
    assert residual <= rtol and true <= rtol
    if op.is_local:
        assert true == pytest.approx(residual, rel=1e-6)
    assert np.array_equal(dop.A.data, A_data)
    assert np.array_equal(rhs, rhs_before)


@pytest.mark.parametrize("op", [LAP, OperatorSpec.fractional(0.5)], ids=["local", "fractional"])
@pytest.mark.parametrize("on, size", [
    pytest.param([3, 2, 5], 3, id="unsorted"),
    pytest.param([2, 3, 3], 3, id="duplicated"),
    pytest.param([-1, 0, 1], 3, id="below-range"),
    pytest.param([0, 1, 63], 3, id="above-range"),      # n = 63
    pytest.param([0.0, 1.0], 2, id="not-integer"),
    pytest.param([[0, 1]], 2, id="not-flat"),
    pytest.param([0, 1, 2], 2, id="rhs-shorter-than-c"),
    pytest.param(None, 62, id="rhs-shorter-than-n"),
])
def test_malformed_block_raises(op, on, size):
    """Every operator rejects an index set that is not increasing, distinct
    flat interior indices, and a right-hand side whose length is not |c|."""
    dop = assemble(op, build_grid(Domain.interval(0.0, 1.0), 2.0**-6))
    assert dop.n == 63
    with pytest.raises(SupportError):
        dop.solve(np.ones(size), on=None if on is None else np.array(on))


def test_block_solve_factors_no_large_local_matrix(monkeypatch):
    """Nothing is factored.  On the h = 2^-6 disk, the full grid (12,849
    nodes) and a 7,691-node block are solved by CG with the V-cycle of
    their own 12,849-row matrix, whose bottom is the one-node coarsest
    grid; a block of at most _COARSE_MAX nodes (3,205) runs CG on its own
    rows with Jacobi, a V-cycle with no coarse level, and builds no
    hierarchy.  Each solve records its method and its unknowns."""
    seen, hierarchy = [], discrete._hierarchy

    def spy(grid, A):
        levels, bottom = hierarchy(grid, A)
        seen.append((A.shape[0], len(levels), bottom.size))
        return levels, bottom
    monkeypatch.setattr(discrete, "_hierarchy", spy)
    dop = assemble(LAP, build_grid(Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-6))
    pts = dop.grid.interior_points()
    for V in (np.ones(dop.n, dtype=bool), np.random.default_rng(8).random(dop.n) < 0.6,
              np.hypot(pts[:, 0], pts[:, 1]) < 0.5):
        del seen[:], dop.solves[:]
        harmonic_extension(dop, V, np.ones(dop.grid.shape))
        (record,) = dop.solves
        assert record.unknowns == V.sum()
        if V.sum() > discrete._COARSE_MAX:
            assert seen == [(dop.n, 6, 1)] and record.method == "vcycle"
        else:
            assert seen == [] and record.method == "jacobi"


@pytest.fixture
def cg_calls(monkeypatch):
    """Record the iterations of every CG call, as the loop returns them."""
    counts = []
    pcg = discrete._pcg

    def counting_pcg(*args, **kwargs):
        out = pcg(*args, **kwargs)
        counts.append(out[1])
        return out
    monkeypatch.setattr(discrete, "_pcg", counting_pcg)
    return counts


@pytest.mark.parametrize("case", CG_CASES)
def test_cg_matches_direct_solve(case, cg_calls):
    op, dom, h = CG_CASES[case]
    dop = assemble(op, build_grid(dom, h))
    rhs = np.random.default_rng(3).standard_normal(dop.n)
    x = dop.solve(rhs)
    ref = spla.spsolve(dop.A.tocsc(), rhs)
    assert cg_calls, "the CG branch was not taken"
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_cg_iterations_do_not_grow_with_h(cg_calls):
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    for h in (2.0**-6, 2.0**-7):
        discrete_green(assemble(LAP, build_grid(dom, h)), np.array([0.25, 0.0]))
    assert len(cg_calls) == 2
    assert max(cg_calls) <= 25


def test_cg_solve_leaves_no_reference_cycles(cg_calls):
    dop = assemble(LAP, build_grid(Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-6))
    rhs = np.ones(dop.n)
    gc.collect()
    gc.disable()
    try:
        dop.solve(rhs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cg_budget_raises(monkeypatch, cg_calls):
    monkeypatch.setattr(discrete, "_CG_MAX_ITERS", 1)
    dop = assemble(LAP, build_grid(Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-6))
    with pytest.raises(ConvergenceError, match="within 1 iterations"):
        dop.solve(np.ones(dop.n))


def test_cg_budget_raise_leaves_no_reference_cycles(monkeypatch):
    monkeypatch.setattr(discrete, "_CG_MAX_ITERS", 3)
    dop = assemble(LAP, build_grid(Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-6))
    rhs = np.ones(dop.n)
    gc.collect()
    gc.disable()
    try:
        try:
            dop.solve(rhs)
        except ConvergenceError as exc:
            assert "within 3 iterations" in str(exc)
        else:
            raise AssertionError("the CG budget did not raise")
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- CSR-native builders against the COO assembly they replaced -------------

def _coo_stencil(op, grid):
    """The local stencil as it was assembled through COO lists and
    ``tocsr``: both entries of every interior-interior edge, then the
    diagonal."""
    dim, shape, inv_h2 = grid.dim, grid.shape, 1.0 / grid.h**2
    idx, interior = grid.interior_index, grid.interior_mask
    node_pts = grid.node_points()
    diag_lat = np.zeros(shape)
    rows, cols, vals = [], [], []
    for k, lead, trail in lattice_shifts(dim):
        if op.coeff is None:
            edge = np.full(tuple(s - (1 if i == k else 0) for i, s in enumerate(shape)), inv_h2)
        else:
            a_lo = op.coeff_at(node_pts[trail].reshape(-1, dim), k)
            a_hi = op.coeff_at(node_pts[lead].reshape(-1, dim), k)
            edge = (0.5 * (a_lo + a_hi) * inv_h2).reshape(node_pts[trail].shape[:-1])
        diag_lat[trail] += np.where(interior[trail], edge, 0.0)
        diag_lat[lead] += np.where(interior[lead], edge, 0.0)
        both = interior[trail] & interior[lead]
        r, c, e = idx[trail][both], idx[lead][both], edge[both]
        rows.extend((r, c))
        cols.extend((c, r))
        vals.extend((-e, -e))
    n = grid.n_interior
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag_lat[interior])
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


def _coo_prolongation(fine, coarse):
    """Linear interpolation P from the coarse to the fine interior, built
    through COO lists, one per 3^d shift, and ``tocsr``."""
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


def _same_csr(M, ref):
    return (M.format == "csr" and M.has_sorted_indices and M.dtype == ref.dtype
            and np.array_equal(M.data, ref.data) and np.array_equal(M.indices, ref.indices)
            and np.array_equal(M.indptr, ref.indptr))


BUILDER_DOMAINS = {
    "interval": (Domain.interval(-1.0, 1.0), 2.0**-7),
    "disk": (Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-6),
    "ball3d": (Domain.ball([0.0, 0.0, 0.0], 1.0, 3), 2.0**-3),
    "l-shape": (Domain.rectangle([(0.0, 1.0), (0.0, 1.0)], mask=_l_shape), 2.0**-6),
}
BUILDER_OPS = {"laplacian": LAP,
               "divergence": OperatorSpec.divergence(_smooth_coeff, lam=0.5, Lam=1.5)}


@pytest.mark.parametrize("op", BUILDER_OPS)
@pytest.mark.parametrize("dom", BUILDER_DOMAINS)
def test_csr_builders_match_coo_assembly(op, dom):
    """The float64 stencil built straight into CSR and the float32
    restriction R = P^T have the arrays of the COO-assembled stencil and
    prolongation, bit for bit, with sorted indices (the weights 2^-k of P
    are exact in float32); P is kept as the CSC view R.T."""
    domain, h = BUILDER_DOMAINS[dom]
    grid, coarse = build_grid(domain, h), build_grid(domain, 2.0 * h)
    assert _same_csr(assemble(BUILDER_OPS[op], grid).A, _coo_stencil(BUILDER_OPS[op], grid))
    P = _coo_prolongation(grid, coarse).astype(np.float32)
    R = discrete._restriction(grid, coarse)
    assert _same_csr(R, P.T.tocsr()) and _same_csr(R.T.tocsr(), P)


@pytest.mark.parametrize("op", BUILDER_OPS)
@pytest.mark.parametrize("h", [2.0**-6, 2.0**-7], ids=["h=2^-6", "h=2^-7"])
def test_vcycle_matches_reference_hierarchy(op, h):
    """The float32 hierarchy of the disk (6 and 7 levels above the one-node
    coarsest grid, whose own coarse grid, one node again, is not smaller)
    and its V-cycle equal, bit for bit, those of a reference built from A
    cast to float32, with the COO prolongation in float32 and
    ``(P.T @ A32 @ P).tocsr()`` down to the same grid, with the same
    damped-Jacobi bottom.  The finest level shares A's index arrays, every
    level is symmetric to float32 rounding, and A stays float64."""
    grid = build_grid(Domain.ball([0.0, 0.0], 1.0, 2), h)
    A = assemble(BUILDER_OPS[op], grid).A
    levels, bottom = discrete._hierarchy(grid, A)
    ref, fine, M = [], grid, A.astype(np.float32)
    while (coarse := build_grid(fine.domain, 2.0 * fine.h)).n_interior < M.shape[0]:
        P = _coo_prolongation(fine, coarse).astype(np.float32)
        ref.append((M, discrete._JACOBI_OMEGA / M.diagonal(), P))
        M, fine = (P.T @ M @ P).tocsr(), coarse
    assert len(levels) == len(ref) == {2.0**-6: 6, 2.0**-7: 7}[h] and M.shape == (1, 1)
    for (A_k, jac, P), (A_ref, jac_ref, P_ref) in zip(levels, ref):
        assert _same_csr(A_k, A_ref) and _same_csr(P.tocsr(), P_ref)
        assert abs(A_k - A_k.T).max() <= 1e-6 * abs(A_k).max()
        assert jac.dtype == np.float32 and np.array_equal(jac, jac_ref)
    assert np.shares_memory(levels[0][0].indices, A.indices)
    assert np.shares_memory(levels[0][0].indptr, A.indptr)
    assert A.dtype == np.float64
    assert bottom.dtype == np.float32
    assert np.array_equal(bottom, discrete._JACOBI_OMEGA / M.diagonal())
    r = np.random.default_rng(4).standard_normal(A.shape[0]).astype(np.float32)
    z = discrete._vcycle(levels, bottom, r)
    assert z.dtype == np.float32 and np.array_equal(z, discrete._vcycle(ref, bottom, r))


def _float64_hierarchy(grid, A):
    """The levels of ``discrete._hierarchy`` kept in float64 throughout: the
    reference V-cycle the float32 one is held to."""
    levels, M = [], A
    while (step := discrete._coarsen(grid)) is not None and step[0].n_interior < A.shape[0]:
        coarse, R = step
        R = R.astype(np.float64)
        levels.append((A, discrete._JACOBI_OMEGA / A.diagonal(), R.T))
        M = R @ (M @ R.T.tocsr())
        M.sort_indices()
        A, grid = M.T.tocsr(), coarse
    return levels, discrete._JACOBI_OMEGA / A.diagonal()


FLOAT32_CASES = {
    "divergence-disk-2^-8": (OperatorSpec.divergence(_smooth_coeff, lam=0.5, Lam=1.5),
                             Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-8),
    "laplacian-disk-2^-7": (LAP, Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-7),
    "unit-cube-2^-5": (LAP, Domain.rectangle([(0.0, 1.0)] * 3), 2.0**-5),
    "ball3d-2^-5": (LAP, Domain.ball([0.0, 0.0, 0.0], 1.0, 3), 2.0**-5),
    "thin-rectangle-2^-9": (LAP, Domain.rectangle([(0.0, 8.0), (0.0, 0.05)]), 2.0**-9),
}


@pytest.mark.parametrize("block", [False, True], ids=["full", "70%-block"])
@pytest.mark.parametrize("case", FLOAT32_CASES)
def test_float32_vcycle_costs_no_iterations(monkeypatch, case, block):
    """The float32 V-cycle under the float64 CG takes at most the
    iterations of the same V-cycle kept in float64, on full systems and on
    a random 70 % block (its embedded matrix), and meets _CG_RTOL on the
    true residual, which the record carries and which is read here again
    through A."""
    op, dom, h = FLOAT32_CASES[case]
    dop = assemble(op, build_grid(dom, h))
    c = (np.flatnonzero(np.random.default_rng(8).random(dop.n) < 0.7) if block
         else np.arange(dop.n))
    assert c.size > discrete._COARSE_MAX
    seen, hierarchy = [], discrete._hierarchy
    monkeypatch.setattr(discrete, "_hierarchy",
                        lambda grid, A: (seen.append((grid, A)), hierarchy(grid, A))[1])
    rhs = np.random.default_rng(3).standard_normal(c.size)
    x = dop.solve(rhs, on=c if block else None)
    (record,) = dop.solves
    b = np.zeros(dop.n)
    b[c] = rhs
    (grid, A), = seen
    _, iterations, _ = discrete._pcg(A.dot, b,
                                     partial(discrete._vcycle, *_float64_hierarchy(grid, A)))
    assert (record.method, record.unknowns) == ("vcycle", c.size)
    assert record.iterations <= iterations
    assert record.residual <= discrete._CG_RTOL
    true = np.linalg.norm(dop.A[c][:, c] @ x - rhs) / np.linalg.norm(rhs)
    assert true == pytest.approx(record.residual, rel=1e-6)


def test_green_column_records_its_solve():
    """The h = 2^-8 disk's Green column (the ``disk-dirac-cg`` solve) is
    one float32 V-cycle CG solve of 205,857 unknowns in 9 iterations, and
    its record carries the true relative residual; a fractional solve
    records the circulant."""
    dop = assemble(LAP, build_grid(DISK, 2.0**-8))
    discrete_green(dop, np.array([0.0, 0.0]))
    (record,) = dop.solves
    assert (record.method, record.unknowns, record.iterations) == ("vcycle", 205_857, 9)
    assert record.residual <= 1e-12
    frac = assemble(OperatorSpec.fractional(0.5), build_grid(Domain.interval(-1.0, 1.0), 2.0**-6))
    frac.solve(np.ones(frac.n))
    assert [(r.method, r.unknowns) for r in frac.solves] == [("circulant", frac.n)]
    assert frac.solves[0].residual <= discrete._FRACTIONAL_RTOL


@pytest.mark.parametrize("k", [-120, 120])
def test_vcycle_solve_scales_by_powers_of_two(k):
    """The float32 V-cycle sees r scaled to unit size by a power of two, so
    a right-hand side scaled by 2^k (about 1e-36 or 1e36, where float32
    without the scaling underflows or overflows) takes the same iterations
    and gives the solution scaled by 2^k, bit for bit."""
    dop = assemble(LAP, build_grid(DISK, 2.0**-6))
    b = np.random.default_rng(3).standard_normal(dop.n)
    x = dop.solve(b)
    assert np.array_equal(dop.solve(np.ldexp(b, k)), np.ldexp(x, k))
    assert dop.solves[0].iterations == dop.solves[1].iterations == 9


def test_assembly_and_green_column_working_set():
    """On the h = 2^-7 disk (51,429 unknowns), assembling the Laplacian
    peaks (tracemalloc) at no more than 2.6 times the arrays it returns
    (2.05 measured; 3.40 when every slot was filled on the whole lattice),
    and the Green column, its coarse chain included, at no more than 160
    bytes per unknown above the operator (153 measured with the float32
    V-cycle; 170 with the float64 one)."""
    grid = build_grid(DISK, 2.0**-7)
    tracemalloc.start()
    try:
        dop = assemble(LAP, grid)
        assembly_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        discrete_green(dop, np.array([0.0, 0.0]))
        green_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    A = dop.A
    returned = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes + dop.diag.nbytes
    assert assembly_peak <= 2.6 * returned
    assert green_peak <= 160 * dop.n


def test_vcycle_geometry_is_built_once_per_grid(monkeypatch):
    """Every V-cycle on one fine grid shares one chain of coarse grids and
    restrictions: two full solves and a block solve on the h = 2^-6 disk
    build each coarse grid once, the second full solve repeats the first
    bit for bit, and the chain is freed with the fine grid."""
    dop = assemble(LAP, build_grid(DISK, 2.0**-6))
    built = []
    monkeypatch.setattr(discrete, "build_grid",
                        lambda dom, h: (built.append(h), build_grid(dom, h))[1])
    b = np.ones(dop.n)
    x = dop.solve(b)
    c = np.arange(10, dop.n)
    dop.solve(b[c], on=c)
    assert np.array_equal(dop.solve(b), x)
    assert built == [2.0**-5, 2.0**-4, 2.0**-3, 2.0**-2, 2.0**-1, 1.0, 2.0]
    chain = weakref.ref(dop.grid.coarse[0])
    del dop
    assert chain() is None


@pytest.mark.parametrize("op", BUILDER_OPS)
def test_embedded_block_matrix_matches_diagonal_products(monkeypatch, op):
    """The embedded matrix of a block, masked from A's stored entries, has
    the arrays of (K A K + diag(1_S diag A)).tocsr(), K = diag(1_c), bit for
    bit, with sorted indices."""
    dop = assemble(BUILDER_OPS[op], build_grid(Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-6))
    c = np.flatnonzero(np.random.default_rng(8).random(dop.n) < 0.6)
    assert c.size > discrete._COARSE_MAX
    seen, hierarchy = [], discrete._hierarchy
    monkeypatch.setattr(discrete, "_hierarchy", lambda grid, A: (seen.append(A), hierarchy(grid, A))[1])
    dop.solve(np.ones(c.size), on=c)
    keep = np.zeros(dop.n)
    keep[c] = 1.0
    K = sp.diags(keep)
    assert _same_csr(seen[0], (K @ dop.A @ K + sp.diags((1.0 - keep) * dop.diag)).tocsr())


# -- CG from a start x0 ------------------------------------------------------

@pytest.mark.parametrize("op", [LAP, OperatorSpec.fractional(0.5)], ids=["local", "fractional"])
@pytest.mark.parametrize("on", [None, [0, 5, 9]], ids=["system", "block"])
@pytest.mark.parametrize("x0_shape", [lambda m: (m - 1,), lambda m: (m + 1,), lambda m: (m, 1),
                                      lambda m: (1, m)], ids=["short", "long", "column", "row"])
def test_malformed_start_raises_before_any_work(monkeypatch, op, on, x0_shape):
    """A start whose shape is not (|c|,) raises SupportError before any
    CG iteration, on the local and the fractional operator alike."""
    dop = assemble(op, build_grid(Domain.interval(0.0, 1.0), 2.0**-6))
    assert dop.n == 63

    def no_work(*args, **kwargs):
        raise AssertionError("a solve ran")
    monkeypatch.setattr(discrete, "_pcg", no_work)
    size = dop.n if on is None else len(on)
    with pytest.raises(SupportError, match="start x0"):
        dop.solve(np.ones(size), on=None if on is None else np.array(on),
                  x0=np.ones(x0_shape(size)))


START_CASES = {"local": (LAP, Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-6),
               "fractional": (OperatorSpec.fractional(0.5), Domain.interval(-1.0, 1.0), 2.0**-8)}


@pytest.mark.parametrize("case", START_CASES)
def test_solve_from_a_start(cg_calls, case):
    """solve(rhs, on=c, x0=...) meets the residual bound of a solve from
    zero, and a zero right-hand side returns zeros at 0 iterations from a
    nonzero start."""
    op, dom, h = START_CASES[case]
    dop = assemble(op, build_grid(dom, h))
    rng = np.random.default_rng(8)
    c = np.flatnonzero(rng.random(dop.n) < 0.6)
    if op.is_local:
        assert c.size > discrete._COARSE_MAX        # the CG path, not a direct solve
    rhs = rng.standard_normal(c.size)
    rtol = discrete._CG_RTOL if op.is_local else discrete._FRACTIONAL_RTOL
    x0 = dop.solve(rhs, on=c) + 1e-3 * rng.standard_normal(c.size)
    x = dop.solve(rhs, on=c, x0=x0)
    block = dop.A[c][:, c]
    assert np.linalg.norm(block @ x - rhs) <= rtol * np.linalg.norm(rhs)
    assert len(cg_calls) == 2 and 0 < cg_calls[1]
    zero = dop.solve(np.zeros(c.size), on=c, x0=x0)
    assert cg_calls[2] == 0 and not np.any(zero)


def test_policy_block_starts_from_the_iterate(monkeypatch, cg_calls):
    """On the h = 2^-6 tail obstacle of a Dirac plus a density, the policy
    step after the PSOR warm start starts its block CG from the iterate and
    takes fewer iterations than from zero, to the same envelope within
    1e-12 relative."""
    from potkit.envelope import (_WARM_TOL, _complementarity, _policy_iteration, _relax,
                                 envelope_field, omega_optimal, reduite_start, tail_obstacle)
    from potkit.measures import Density, MeasureData
    from potkit.solve import integral_solution
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    dop = assemble(LAP, build_grid(dom, 2.0**-6))
    mu = MeasureData.make(atoms=[([0.0, 0.0], 1.0)], density=Density.constant(4.0), dom=dom)
    field = envelope_field(integral_solution(LAP, dom, mu), dop)
    g = tail_obstacle(field[0], field[1], 0.5, dop.grid)
    mask = dop.grid.interior_mask
    g_flat, w = g[mask], reduite_start(g, field)[mask]
    _relax(dop, g_flat, w, omega_optimal(dop.grid), _WARM_TOL)
    defect, _ = _complementarity(dop, w, g_flat)
    del cg_calls[:]
    warm, _ = _policy_iteration(dop, g_flat, w, defect, 1e-10)
    warm_its = cg_calls[:]
    solve = discrete.DiscreteOperator.solve
    monkeypatch.setattr(discrete.DiscreteOperator, "solve",
                        lambda self, rhs, on=None, x0=None: solve(self, rhs, on=on))
    del cg_calls[:]
    cold, _ = _policy_iteration(dop, g_flat, w, defect, 1e-10)
    assert len(warm_its) == len(cg_calls) >= 1 and sum(warm_its) < sum(cg_calls)
    assert np.max(np.abs(warm - cold)) <= 1e-12 * np.max(np.abs(cold))


_THREADS_PROBE = """
import hashlib
from potkit import Domain, OperatorSpec, assemble, build_grid, reduite
from potkit.envelope import envelope_field, tail_obstacle
from potkit.measures import MeasureData
from potkit.solve import integral_solution
dom = Domain.ball([0.0, 0.0], 1.0, 2)
op = OperatorSpec.laplacian()
dop = assemble(op, build_grid(dom, 2.0**-6))
sol = integral_solution(op, dom, MeasureData.make(atoms=[([0.0, 0.0], 1.0)], dom=dom))
u_abs, nodes, columns = envelope_field(sol, dop)
res = reduite(dop, tail_obstacle(u_abs, nodes, 0.5, dop.grid), tol=1e-9)
digest = hashlib.sha256(columns[0].values.tobytes())
digest.update(res.envelope.values.tobytes())
print(dop.n, res.iterations, res.policy_steps, digest.hexdigest())
"""


def _probe_at_threads(probe):
    """The probe's output in a fresh interpreter at 1 and at 2 BLAS and
    OpenMP threads."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    lines = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        lines.append(subprocess.run([sys.executable, "-c", probe], env=env,
                                    capture_output=True, text=True, check=True).stdout)
    return lines


def test_grid_outputs_do_not_depend_on_blas_threads():
    """A disk Dirac at h = 2^-6 (12,849 unknowns, above the coarsest level):
    its Green column (one V-cycle-preconditioned CG solve) and the cold
    reduite of its n = 0.5 tail obstacle (PSOR, then a policy step whose
    block solve is CG again) have the same bytes at 1 and 2 BLAS threads.
    The fractional path has its own gate below."""
    lines = _probe_at_threads(_THREADS_PROBE)
    n, sweeps, steps, _ = lines[0].split()
    assert int(n) == 12_849 and int(sweeps) > 0 and int(steps) >= 1
    assert lines[0] == lines[1]


_FRACTIONAL_THREADS_PROBE = """
import hashlib
import numpy as np
from potkit import Domain, OperatorSpec, assemble, build_grid, discrete_green, reduite
from potkit.geometry import GridField
dop = assemble(OperatorSpec.fractional(0.5), build_grid(Domain.interval(-1.0, 1.0), 2.0**-8))
column = discrete_green(dop, np.array([0.3]))
x = dop.grid.interior_points()[:, 0]
g = np.maximum(0.2 - (x - 0.4) ** 2, 0.0)
g[dop.n // 4] = 0.35
res = reduite(dop, GridField.from_interior(dop.grid, g))
digest = hashlib.sha256(column.values.tobytes())
digest.update(res.envelope.values.tobytes())
from potkit import config
from potkit.presets import get_preset
from potkit.reconstruct import reconstruct_mu_c
cfg = get_preset("reconstruct-nonlocal-interval")
dom, op, mu = config.build_problem(cfg)
rep = reconstruct_mu_c(config.build_solution(cfg, dom, op, mu), config.build_eta(cfg, dom),
                       cfg["levels"])
traces = np.array([v for trace in rep.traces for v in trace])
print(dop.n, res.policy_steps, digest.hexdigest(), traces.size,
      hashlib.sha256(traces.tobytes()).hexdigest())
"""


def test_fractional_outputs_do_not_depend_on_blas_threads():
    """The fractional interval at h = 2^-8 (n = 511): its Green column and
    the reduite of a bump with an isolated peak (policy steps whose block
    solves are matrix-free CG as well) have the same bytes at 1 and 2 BLAS
    threads.  Dense Cholesky solves gave different bytes.  So do the
    refinement traces of the nonlocal reconstruction on
    ``reconstruct-nonlocal-interval``: two lattices for the levels 1-8 and
    three for 16."""
    lines = _probe_at_threads(_FRACTIONAL_THREADS_PROBE)
    n, steps, _, traces, _ = lines[0].split()
    assert int(n) == 511 and int(steps) >= 1 and int(traces) == 11
    assert lines[0] == lines[1]


def _disk_blocks(pts):
    r = np.hypot(pts[:, 0], pts[:, 1])
    return {"r<0.8": r < 0.8, "r>0.2": r > 0.2, "x<0.3": pts[:, 0] < 0.3,
            "random-60%": np.random.default_rng(8).random(len(pts)) < 0.6}


@pytest.mark.parametrize("block", ["r<0.8", "r>0.2", "random-60%", "x<0.3"])
def test_block_cg_uses_the_blocks_own_vcycle(cg_calls, block):
    """A block of the h = 2^-6 disk above _COARSE_MAX nodes is one CG solve
    preconditioned by the V-cycle of its embedded matrix, so it needs about
    as few iterations as the full system (the V-cycle of the full A,
    restricted to the block, needed 28, 16, 142 and 24)."""
    dop = assemble(LAP, build_grid(Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-6))
    c = np.flatnonzero(_disk_blocks(dop.grid.interior_points())[block])
    assert c.size > discrete._COARSE_MAX
    rhs = np.ones(c.size)
    x = dop.solve(rhs, on=c)
    assert len(cg_calls) == 1 and cg_calls[0] <= 15
    assert np.linalg.norm(dop.A[c][:, c] @ x - rhs) <= discrete._CG_RTOL * np.linalg.norm(rhs)


def test_thin_rectangle_vcycle_ends_on_jacobi(monkeypatch, cg_calls):
    """The [0, 8] x [0, 0.05] rectangle at h = 2^-9: coarsening ends where
    the strip has one row left, at 255 nodes, which damped Jacobi at the
    bottom serves: the full solve takes at most 12 V-cycle CG iterations."""
    dop = assemble(LAP, build_grid(Domain.rectangle([(0.0, 8.0), (0.0, 0.05)]), 2.0**-9))
    bottoms, hierarchy = [], discrete._hierarchy

    def spy(grid, A):
        levels, bottom = hierarchy(grid, A)
        bottoms.append(bottom.size)
        return levels, bottom
    monkeypatch.setattr(discrete, "_hierarchy", spy)
    rhs = np.ones(dop.n)
    x = dop.solve(rhs)
    assert bottoms == [255] and cg_calls[0] <= 12
    assert np.linalg.norm(dop.A @ x - rhs) <= discrete._CG_RTOL * np.linalg.norm(rhs)


def test_default_disk_solve_runs_cg(cg_calls):
    """The one solve path: a 12,849-unknown disk grid is above the coarsest
    level, so its solve is V-cycle-preconditioned CG, not a direct LU."""
    dop = assemble(LAP, build_grid(Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-6))
    assert dop.n == 12_849
    rhs = np.ones(dop.n)
    x = dop.solve(rhs)
    assert len(cg_calls) == 1
    assert np.linalg.norm(dop.A @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)


@pytest.mark.parametrize("op", [LAP, OperatorSpec.divergence(_smooth_coeff, lam=0.5, Lam=1.5),
                                OperatorSpec.fractional(0.5)],
                         ids=["laplacian", "divergence", "fractional"])
def test_operator_matrix_is_csr(op):
    """Every operator reads A as CSR, the fractional one (built from its
    offset table) included: the benchmark's matrix-vector probe reads
    A.data, A.indices and A.indptr."""
    dop = assemble(op, build_grid(Domain.interval(-1.0, 1.0), 2.0**-5))
    assert sp.issparse(dop.A)
    assert dop.A.format == "csr"


@pytest.mark.parametrize("module", ["reconstruct.py", "kernels.py", "solve.py",
                                    "measures.py"])
def test_closed_forms_and_jump_quadrature_call_no_blas(module):
    """The jump quadrature takes every product with np.einsum and no
    ``optimize``, and the closed-form kernels, density potentials and masses
    take none, so no product reaches BLAS and no bit moves with the thread
    pool."""
    blas = re.compile(r" @ |np\.dot|np\.vdot|np\.matmul|tensordot|optimize=")
    path = Path(discrete.__file__).parent / module
    found = [f"{path.name}:{i}" for i, line in enumerate(path.read_text().splitlines(), 1)
             if blas.search(line)]
    assert found == []


def test_only_reconstruct_integrates_numerically():
    """Kernels, density potentials and masses are closed forms: scipy.integrate
    serves only the reconstruction's kink oracle."""
    found = [path.name for path in sorted(Path(discrete.__file__).parent.glob("*.py"))
             if "scipy.integrate" in path.read_text()]
    assert found == ["reconstruct.py"]


def test_no_module_factors_a():
    """One linear-solver interface: every solve with A or a block A[c, c]
    is CG through DiscreteOperator.solve, so no module, discrete.py
    included, factors a matrix or imports a dense or sparse solver."""
    solver = re.compile(r"spsolve|factorized|splu|cho_factor|cho_solve|lu_factor|"
                        r"scipy\.linalg|scipy\.sparse\.linalg|sparse import linalg")
    found = [f"{path.name}:{i}"
             for path in sorted(Path(discrete.__file__).parent.glob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if solver.search(line)]
    assert found == []
