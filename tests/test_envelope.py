import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

import potkit.discrete as discrete_mod
import potkit.envelope as envelope_mod
from potkit import (Domain, OperatorSpec, assemble, build_grid, d1_norm,
                    discrete_green, harmonic_extension, reduite, tail_curve)
from potkit.envelope import envelope_field
from potkit.config import _coeff_presets
from potkit.discrete import DiscreteOperator
from potkit.errors import ConvergenceError, SupportError
from potkit.geometry import GridField
from potkit.measures import Density, MeasureData
from potkit.solve import grid_solution, integral_solution

LAP = OperatorSpec.laplacian()


def brute_force_envelope(dop, g_flat, iters=400_000, tol=1e-14):
    """Independent oracle: plain value iteration w <- max(g, P w), with
    P w = w - A w / diag."""
    w = g_flat.copy()
    for _ in range(iters):
        w_new = np.maximum(g_flat, w - dop.A @ w / dop.diag)
        if np.max(np.abs(w_new - w)) < tol:
            return w_new
        w = w_new
    return w


def reference_psor(dop, g_flat, omega, tol, check_every=8):
    """Red-black projected SOR in the loop shape of the former lattice
    engine: full-vector colour masks and cand = (1 - omega) w + omega N w / D
    with N = D - A.  Returns (w, sweeps)."""
    grid = dop.grid
    parity = np.indices(grid.shape).sum(axis=0)[grid.interior_mask] % 2
    masks = (parity == 0, parity == 1)
    D = dop.diag
    N = sp.diags(D) - dop.A
    w = g_flat.copy()
    for sweep in range(1, 10**6):
        update = 0.0
        track = sweep % check_every == 0
        for mask in masks:
            cand = (1.0 - omega) * w + omega * (N @ w) / D
            np.maximum(cand, g_flat, out=cand)
            if track:
                update = max(update, float(np.max(np.abs(cand[mask] - w[mask]))))
            w[mask] = cand[mask]
        if track and update < tol:
            return w, sweep
    raise AssertionError("reference PSOR did not converge")


def gather_scatter_psor(dop, g_flat, w, omega, tol):
    """Projected red-black SOR on the lattice numbering, without the
    colour-contiguous storage: each half-sweep gathers w[rows] and g[rows],
    subtracts the colour's rows of A scaled by omega / diag and scatters
    back to w[rows].  Updates w in place; returns the sweep count."""
    grid = dop.grid
    parity = np.indices(grid.shape).sum(axis=0)[grid.interior_mask] % 2
    blocks = [(rows, (sp.diags(omega / dop.diag[rows]) @ dop.A[rows]).sorted_indices())
              for rows in (np.flatnonzero(parity == 0), np.flatnonzero(parity == 1))]
    for sweep in range(1, 10**6):
        track = sweep % 8 == 0
        update = 0.0
        for rows, A_rows in blocks:
            cand = w[rows] - A_rows @ w
            np.maximum(cand, g_flat[rows], out=cand)
            if track:
                update = max(update, float(np.max(np.abs(cand - w[rows]), initial=0.0)))
            w[rows] = cand
        if track and update < tol:
            return sweep
    raise AssertionError("gather/scatter PSOR did not converge")


def _bump_obstacle(grid):
    pts = grid.interior_points()
    return np.maximum(0.3 - np.sum(pts**2, axis=1), 0.0) + 0.2 * (np.abs(pts[:, 0]) < 0.2)


RELAX_CASES = ["laplacian-disk", "smooth-disk", "laplacian-ball3d", "laplacian-interval"]


def _relax_case(case):
    """(operator, obstacle) of a small projected-SOR problem."""
    if case == "laplacian-ball3d":
        grid = build_grid(Domain.ball([0.0, 0.0, 0.0], 1.0, 3), 2.0**-3)
    elif case == "laplacian-interval":
        grid = build_grid(Domain.interval(-1.0, 1.0), 2.0**-7)
    else:
        grid = build_grid(Domain.ball([0.0, 0.0], 1.0, 2), 2.0**-5)
    if case == "smooth-disk":
        coeff, lam, Lam = _coeff_presets()["smooth"]
        op = OperatorSpec.divergence(coeff, lam, Lam)
    else:
        op = LAP
    return assemble(op, grid), _bump_obstacle(grid)


@pytest.mark.parametrize("case", RELAX_CASES)
def test_relaxation_matches_lattice_reference(case):
    dop, g_flat = _relax_case(case)
    omega = envelope_mod.omega_optimal(dop.grid)
    got = g_flat.copy()
    sweeps = envelope_mod._relax(dop, g_flat, got, omega, 1e-10)
    w_ref, sweeps_ref = reference_psor(dop, g_flat, omega, 1e-10)
    assert sweeps == sweeps_ref
    assert np.max(np.abs(got - w_ref)) <= 1e-12 * np.max(np.abs(w_ref))


@pytest.mark.parametrize("case", RELAX_CASES)
def test_relaxation_matches_gather_scatter_bit_for_bit(case):
    dop, g_flat = _relax_case(case)
    omega = envelope_mod.omega_optimal(dop.grid)
    got, ref = g_flat.copy(), g_flat.copy()
    sweeps = envelope_mod._relax(dop, g_flat, got, omega, 1e-10)
    assert sweeps == gather_scatter_psor(dop, g_flat, ref, omega, 1e-10)
    assert np.array_equal(got, ref)


def _recorded_relaxations(monkeypatch):
    """The relaxation of every segment ``_relax`` sweeps at, in order."""
    seen = []
    scaled_rows = envelope_mod._scaled_rows

    def recording(rows, omega):
        seen.append(omega)
        return scaled_rows(rows, omega)

    monkeypatch.setattr(envelope_mod, "_scaled_rows", recording)
    return seen


@pytest.mark.parametrize("case", ["laplacian-disk", "laplacian-ball3d", "laplacian-interval"])
def test_relaxation_finds_young_omega_on_a_linear_problem(monkeypatch, case):
    """With an obstacle that never binds, projected SOR is plain SOR for
    A w = 0; started from Gauss-Seidel (omega = 1) its relaxation settles
    within 10 % in 2 - omega of Young's 2 / (1 + sqrt(1 - mu^2)), mu the
    Jacobi radius 1 - lambda_min(D^-1/2 A D^-1/2) of the red-black rows
    (5.9 %, 0.4 % and 0.0 % on these cases)."""
    from scipy.sparse.linalg import eigsh
    dop, g_flat = _relax_case(case)
    d = sp.diags(dop.diag ** -0.5)
    mu = 1.0 - eigsh(d @ dop.A @ d, k=1, sigma=0, which="LM")[0][0]
    young = 2.0 / (1.0 + math.sqrt(1.0 - mu * mu))
    seen = _recorded_relaxations(monkeypatch)
    sweeps = envelope_mod._relax(dop, np.full(dop.n, -1e300), g_flat.copy(), 1.0, 1e-10)
    assert seen[0] == 1.0 and sweeps.omega == seen[-1] > 1.0
    assert abs(sweeps.omega - young) <= 0.1 * (2.0 - young)


@pytest.mark.parametrize("case", RELAX_CASES)
@pytest.mark.parametrize("start", ["gauss-seidel", "reduite", "cap"])
def test_relaxation_rises_to_at_most_the_cap(monkeypatch, case, start):
    """The relaxation starts where it is told, never decreases and never
    exceeds ``omega_optimal`` of the grid; a start at the cap is never
    raised, so it sweeps at one relaxation throughout."""
    dop, g_flat = _relax_case(case)
    cap = envelope_mod.omega_optimal(dop.grid)
    omega = {"gauss-seidel": 1.0, "reduite": envelope_mod._omega_start(dop.grid),
             "cap": cap}[start]
    seen = _recorded_relaxations(monkeypatch)
    sweeps = envelope_mod._relax(dop, g_flat, g_flat.copy(), omega, 1e-10)
    assert seen[0] == omega and sweeps.omega == seen[-1]
    assert all(a < b for a, b in zip(seen, seen[1:])) and seen[-1] <= cap
    if start == "cap":
        assert seen == [cap]


def test_tail_disk_mixed_sweeps_are_bounded():
    """tail-disk-mixed at h = 2^-6: the warm starts of its three levels take
    at most 240 sweeps in all (200 with the rising relaxation; 400 at the
    bounding-box omega_optimal throughout)."""
    from potkit.config import build_problem, build_rho
    from potkit.presets import get_preset
    cfg = get_preset("tail-disk-mixed")
    dom, op, mu = build_problem(cfg)
    dop = assemble(op, build_grid(dom, 2.0**-6))
    tc = tail_curve(integral_solution(op, dom, mu), dop, build_rho(cfg, dom), cfg["levels"])
    assert tc.sweeps.sum() <= 240
    assert np.all((tc.omega > 1.0) == (tc.sweeps > 0))
    assert np.all(tc.omega <= envelope_mod.omega_optimal(dop.grid))


def test_disk_mixed_pass_records_its_solves():
    """The ``disk-mixed-psor`` pass (tail-disk-mixed at h = 2^-7, tol 1e-9)
    solves its Green column and its two policy blocks by V-cycle CG in 9,
    7 and 7 iterations, each to _CG_RTOL on the true residual."""
    from potkit.config import build_problem, build_rho, grid_widths
    from potkit.presets import get_preset
    cfg = get_preset("tail-disk-mixed")
    dom, op, mu = build_problem(cfg)
    dop = assemble(op, build_grid(dom, grid_widths(cfg)[0]))
    tail_curve(integral_solution(op, dom, mu), dop, build_rho(cfg, dom), cfg["levels"], tol=1e-9)
    assert [(r.method, r.iterations) for r in dop.solves] == [("vcycle", 9), ("vcycle", 7),
                                                               ("vcycle", 7)]
    assert dop.solves[0].unknowns == dop.n
    assert max(r.residual for r in dop.solves) <= discrete_mod._CG_RTOL


def test_mc_exit_d1_block_records_jacobi():
    """The ``mc-exit`` d1 norm (mc-maximal-bounded) solves one block of
    1,484 of the 12,849 nodes by Jacobi-PCG on its own rows in 35
    iterations."""
    from potkit.config import build_problem, build_rho, grid_widths
    from potkit.presets import get_preset
    cfg = get_preset("mc-maximal-bounded")
    dom, op, mu = build_problem(cfg)
    dop = assemble(op, build_grid(dom, grid_widths(cfg)[0]))
    u_abs, _, _ = envelope_field(integral_solution(op, dom, mu), dop)
    d1_norm(dop, u_abs, build_rho(cfg, dom)(dop.grid.interior_points()))
    assert dop.n == 12_849
    (record,) = dop.solves
    assert (record.method, record.unknowns, record.iterations) == ("jacobi", 1_484, 35)
    assert record.residual <= discrete_mod._CG_RTOL


def test_reduite_leaves_operator_matrix_untouched():
    dop, g_flat = _relax_case("smooth-disk")
    A = dop.A
    assert A.has_sorted_indices
    before = [A.data.tobytes(), A.indices.tobytes(), A.indptr.tobytes()]
    res = reduite(dop, GridField.from_interior(dop.grid, g_flat))
    assert res.iterations > 0
    assert dop.A is A
    assert [A.data.tobytes(), A.indices.tobytes(), A.indptr.tobytes()] == before
    assert A.has_sorted_indices


def test_local_reduite_is_exact(disk_dop_small):
    """The PSOR warm start is finished by policy iteration: the local
    envelope is the value-iteration fixed point up to rounding."""
    grid = disk_dop_small.grid
    g_flat = _bump_obstacle(grid)
    res = reduite(disk_dop_small, GridField.from_interior(grid, g_flat))
    w = res.envelope.interior_values()
    # value iteration contracts slowly here: its last update must be tiny
    oracle = brute_force_envelope(disk_dop_small, g_flat, tol=1e-16)
    assert np.max(np.abs(w - oracle)) <= 1e-12
    assert res.residual <= 1e-13
    assert res.iterations > 0 and res.policy_steps >= 1


FRAC = OperatorSpec.fractional(0.8)


@pytest.fixture(scope="module")
def frac_dop():
    return assemble(FRAC, build_grid(Domain.interval(0.0, 1.0), 2.0**-6))


def test_fractional_reduite_is_exact(frac_dop):
    grid = frac_dop.grid
    g_flat = np.maximum(0.2 - (grid.interior_points()[:, 0] - 0.4) ** 2, 0.0)
    g_flat[grid.n_interior // 4] = 0.35          # an isolated peak off the bump
    res = reduite(frac_dop, GridField.from_interior(grid, g_flat))
    w = res.envelope.interior_values()
    oracle = brute_force_envelope(frac_dop, g_flat, tol=1e-14)
    assert np.max(np.abs(w - oracle)) <= 1e-12
    assert res.residual <= 1e-13
    assert np.all(w >= g_flat)
    assert res.iterations == 0
    assert res.policy_steps >= 1


def _dense_cholesky_block_solve(dop, rhs, on=None, x0=None):
    """Reference for the continuation solve of the fractional policy
    iteration: one dense Cholesky of A[c, c], factored in place through its
    Fortran-ordered transpose; the start x0 is not read."""
    factor = cho_factor(dop.A.toarray()[np.ix_(on, on)].T, overwrite_a=True)
    return cho_solve(factor, rhs.copy(), overwrite_b=True)


def test_fractional_reduite_matches_dense_cholesky_solve(monkeypatch, frac_dop):
    """Policy iteration with matrix-free CG block solves takes the steps
    that dense Cholesky block solves take (4), and lands within 1e-14 of
    their envelope (1.1e-16 apart, on an envelope of height 0.35)."""
    grid = frac_dop.grid
    g_flat = np.maximum(0.2 - (grid.interior_points()[:, 0] - 0.4) ** 2, 0.0)
    g_flat[grid.n_interior // 4] = 0.35          # an isolated peak off the bump
    g = GridField.from_interior(grid, g_flat)
    res = reduite(frac_dop, g)
    assert res.policy_steps == 4
    monkeypatch.setattr(DiscreteOperator, "solve", _dense_cholesky_block_solve)
    ref = reduite(frac_dop, g)
    assert ref.policy_steps == res.policy_steps
    scale = np.max(np.abs(ref.envelope.values))
    assert np.max(np.abs(res.envelope.values - ref.envelope.values)) <= 1e-14 * scale


@pytest.mark.parametrize("kind", ["fractional", "local"])
def test_inexact_start_is_tested_once(monkeypatch, frac_dop, kind):
    """reduite tests a start once for every operator: one complementarity
    pass for the start, one after the local PSOR warm start, one per policy
    step and one for max(w, g)."""
    dop = frac_dop if kind == "fractional" else assemble(LAP, frac_dop.grid)
    grid = dop.grid
    g_flat = np.maximum(0.2 - (grid.interior_points()[:, 0] - 0.4) ** 2, 0.0)
    g_flat[grid.n_interior // 4] = 0.35          # an isolated peak off the bump
    complementarity = envelope_mod._complementarity
    counted = []

    def counting(*args):
        counted.append(args)
        return complementarity(*args)

    monkeypatch.setattr(envelope_mod, "_complementarity", counting)
    res = reduite(dop, GridField.from_interior(grid, g_flat))
    assert res.policy_steps >= 1 and (res.iterations > 0) == (kind == "local")
    assert len(counted) == res.policy_steps + (3 if kind == "local" else 2)


def test_fractional_zero_obstacle(frac_dop):
    res = reduite(frac_dop, frac_dop.grid.new_field())
    assert np.all(res.envelope.values == 0.0)
    assert res.residual == 0.0
    assert res.policy_steps == 0          # the start g = 0 is already exact


def test_fractional_excessive_obstacle_fixed(frac_dop):
    # a Green column of the fractional operator is its own envelope, with
    # every interior node but the source in the continuation set
    g = discrete_green(frac_dop, np.array([0.3]))
    res = reduite(frac_dop, g.values)
    inside = frac_dop.grid.interior_mask
    assert np.max(np.abs(res.envelope.values - g.values)) <= 1e-12 * np.max(g.values)
    assert np.all(res.envelope.values[inside] >= g.values[inside])
    assert res.residual <= 1e-13 * np.max(g.values)
    src = frac_dop.grid.nearest_node(0.3)
    assert not res.continuation[src]
    assert res.continuation.sum() == frac_dop.n - 1


def test_policy_budget_raises(monkeypatch, frac_dop):
    # the bump with an isolated peak needs two or more policy steps
    grid = frac_dop.grid
    g_flat = np.maximum(0.2 - (grid.interior_points()[:, 0] - 0.4) ** 2, 0.0)
    g_flat[grid.n_interior // 4] = 0.35
    monkeypatch.setattr(envelope_mod, "_MAX_POLICY_STEPS", 1)
    with pytest.raises(ConvergenceError, match="policy iteration"):
        reduite(frac_dop, GridField.from_interior(grid, g_flat))


def test_fractional_harmonic_extension_matches_spsolve(frac_dop):
    import scipy.sparse.linalg as spla
    grid = frac_dop.grid
    x = grid.interior_points()[:, 0]
    g = GridField.from_interior(grid, np.cos(3.0 * x) + x)
    V = (x > 0.2) & (x < 0.7)
    got = harmonic_extension(frac_dop, V, g).interior_values()
    idx, comp = np.flatnonzero(V), np.flatnonzero(~V)
    expect = g.interior_values().copy()
    expect[idx] = spla.spsolve(frac_dop.A[idx][:, idx].tocsc(),
                               -frac_dop.A[idx][:, comp] @ expect[comp])
    assert np.max(np.abs(got - expect)) <= 1e-12
    assert np.array_equal(got[comp], g.interior_values()[comp])


def test_sweep_budget_raises(monkeypatch, disk_dop_small):
    monkeypatch.setattr(envelope_mod, "_MAX_SWEEPS", 8)
    g = _bump_obstacle(disk_dop_small.grid)
    with pytest.raises(ConvergenceError):
        reduite(disk_dop_small, GridField.from_interior(disk_dop_small.grid, g),
                tol=1e-12)


def test_zero_obstacle(interval_dop):
    res = reduite(interval_dop, interval_dop.grid.new_field())
    assert np.all(res.envelope.values == 0.0)
    assert res.residual <= 1e-12


def test_excessive_obstacle_fixed(interval_dop):
    # a Green column is excessive: it is its own envelope, and the
    # continuation set is everything except the source node
    g = discrete_green(interval_dop, np.array([0.5]))
    res = reduite(interval_dop, g.values, tol=1e-12)
    assert np.max(np.abs(res.envelope.values - g.values)) < 1e-9
    src = interval_dop.grid.nearest_node(0.5)
    cont = res.continuation
    assert not cont[src]
    assert cont.sum() == interval_dop.n - 1


def test_gamblers_ruin_and_brute_force():
    N, j = 48, 17
    grid = build_grid(Domain.interval(0.0, 1.0), 1.0 / N)
    dop = assemble(LAP, grid)
    g = grid.new_field()
    g[grid.nearest_node(j / N)] = 1.0
    res = reduite(dop, g, tol=1e-13)
    i = np.arange(1, N)
    expect = np.minimum(i / j, (N - i) / (N - j))
    got = res.envelope.interior_values()
    assert np.max(np.abs(got - expect)) < 1e-10
    oracle = brute_force_envelope(dop, g[grid.interior_mask])
    assert np.max(np.abs(got - oracle)) < 1e-9


def test_envelope_monotone_in_obstacle(disk_dop_small):
    grid = disk_dop_small.grid
    pts = grid.interior_points()
    g1 = GridField.from_interior(grid, np.maximum(0.2 - pts[:, 0] ** 2, 0.0))
    g2 = GridField.from_interior(grid, np.maximum(0.2 - pts[:, 0] ** 2, 0.0) + 0.1)
    e1 = reduite(disk_dop_small, g1.values).envelope.values
    e2 = reduite(disk_dop_small, g2.values).envelope.values
    assert np.all(e2 >= e1 - 1e-12)


def test_envelope_excessive_and_complementary(disk_dop_small):
    grid = disk_dop_small.grid
    pts = grid.interior_points()
    g = GridField.from_interior(
        grid, np.maximum(0.3 - np.sum(pts**2, axis=1), 0.0))
    res = reduite(disk_dop_small, g.values, tol=1e-12)
    w = res.envelope.interior_values()
    pw = w - disk_dop_small.A @ w / disk_dop_small.diag
    assert np.all(w >= pw - 1e-9)                     # discrete excessivity
    assert np.all(w >= g.interior_values() - 1e-12)   # majorant
    assert res.residual < 1e-10                       # complementarity


def test_negative_obstacle_rejected(interval_dop):
    g = interval_dop.grid.new_field()
    g[interval_dop.grid.nearest_node(0.5)] = -1.0
    with pytest.raises(SupportError):
        reduite(interval_dop, g)


@pytest.mark.parametrize("shape", ["flat", "short"])
def test_start_of_wrong_shape_rejected(interval_dop, shape):
    """A start w0 off the grid lattice is refused by name, as the obstacle
    is, instead of failing on a mask of another shape."""
    grid = interval_dop.grid
    g = grid.new_field()
    g[grid.nearest_node(0.5)] = 1.0
    w0 = g[grid.interior_mask] if shape == "flat" else g[:-1]
    with pytest.raises(SupportError, match="start w0 shape"):
        reduite(interval_dop, g, w0=w0)


def test_infinite_obstacle_capped(interval_dop):
    g = interval_dop.grid.new_field()
    node = interval_dop.grid.nearest_node(0.5)
    g[node] = np.inf
    nb = list(node)
    nb[0] += 1
    g[tuple(nb)] = 0.7
    res = reduite(interval_dop, g)
    assert np.isfinite(res.envelope.values).all()
    assert res.envelope.values[node] == pytest.approx(0.7, abs=1e-9)


def test_d1_norm_of_potential(interval_dop):
    # potentials are their own envelopes: d1 = integral of u against rho,
    # and the trapezoid sum of the interval Green column is exactly 1/8
    g = discrete_green(interval_dop, np.array([0.5]))
    rho = np.ones(interval_dop.n)
    val = d1_norm(interval_dop, g, rho, tol=1e-12)
    assert val == pytest.approx(0.125, abs=1e-10)
    l1 = np.sum(np.abs(g.interior_values())) * interval_dop.grid.h
    assert l1 <= val + 1e-12


def test_d1_norm_axioms(disk_dop_small):
    grid = disk_dop_small.grid
    pts = grid.interior_points()
    u = GridField.from_interior(grid, np.sin(3 * pts[:, 0]) * 0.2)
    v = GridField.from_interior(grid, np.maximum(0.1 - pts[:, 1] ** 2, 0.0))
    rho = np.full(disk_dop_small.n, 1.0 / math.pi)
    tol = 1e-11
    # absolute homogeneity
    du = d1_norm(disk_dop_small, u, rho, tol=tol)
    du3 = d1_norm(disk_dop_small,
                  GridField(grid, -3.0 * u.values), rho, tol=tol)
    assert du3 == pytest.approx(3.0 * du, abs=1e-7)
    # triangle inequality
    uv = GridField(grid, u.values + v.values)
    duv = d1_norm(disk_dop_small, uv, rho, tol=tol)
    dv = d1_norm(disk_dop_small, v, rho, tol=tol)
    assert duv <= du + dv + 1e-8


def test_domination_bound(disk_dop_small):
    # |u| <= R^D nu nodewise implies d1(u) <= <R^D rho, nu> + slack
    grid = disk_dop_small.grid
    mu = MeasureData.make(atoms=[([0.25, 0.0], 1.0), ([-0.3, 0.2], -0.5)],
                          dom=grid.domain)
    nu_flat = np.zeros(disk_dop_small.n)
    from potkit.measures import deposit
    nu_flat = deposit(MeasureData.make(
        atoms=[([0.25, 0.0], 1.0), ([-0.3, 0.2], 0.5)], dom=grid.domain), grid)
    u = disk_dop_small.solve(deposit(mu, grid))
    rho = np.full(disk_dop_small.n, 1.0 / math.pi)
    d1 = d1_norm(disk_dop_small, GridField.from_interior(grid, u), rho, tol=1e-11)
    pot_rho = disk_dop_small.solve(rho)
    bound = float(pot_rho @ nu_flat) * grid.cell_volume()
    assert d1 <= bound + 1e-8


def test_sup_attained_on_continuation_set(disk_dop_small):
    # moving the sup under the integral: the harmonic extension over the
    # solver's continuation set reproduces the envelope, and candidate
    # sublevel sets never beat it
    grid = disk_dop_small.grid
    pts = grid.interior_points()
    u = GridField.from_interior(
        grid, np.abs(np.sin(4 * pts[:, 0]) * np.cos(2 * pts[:, 1])) * 0.3)
    rho = np.full(disk_dop_small.n, 1.0 / math.pi)
    tol = 1e-12
    res = reduite(disk_dop_small, u.values, tol=tol)
    d1 = res.envelope.weighted_sum(rho)
    hv = harmonic_extension(disk_dop_small, res.continuation, u)
    hv_val = float(np.sum(np.maximum(hv.interior_values(),
                                     u.interior_values()) * rho)
                   * grid.cell_volume())
    assert hv_val == pytest.approx(d1, abs=10 * 1e-9)
    for c in (0.05, 0.1, 0.2):
        V = (u.values < c) & grid.interior_mask
        hc = harmonic_extension(disk_dop_small, V, u)
        val = float(np.sum(np.maximum(hc.interior_values(),
                                      u.interior_values()) * rho)
                    * grid.cell_volume())
        assert val <= d1 + 1e-8


def test_tower_and_restriction_small(disk_dop_small):
    import scipy.sparse.linalg as spla
    grid = disk_dop_small.grid
    pts = grid.interior_points()
    rng = np.random.default_rng(5)
    W = np.linalg.norm(pts - [0.1, 0.0], axis=1) < 0.7
    V = np.linalg.norm(pts - [0.1, 0.0], axis=1) < 0.4
    g = GridField.from_interior(grid, np.cos(2 * pts[:, 0]) + 0.5 * pts[:, 1])
    hW = harmonic_extension(disk_dop_small, W, g)
    hVW = harmonic_extension(disk_dop_small, V, hW)
    assert np.max(np.abs(hVW.values - hW.values)) < 1e-10
    # restriction identity for mass inside V
    rhs = np.zeros(disk_dop_small.n)
    inside = np.where(V)[0]
    rhs[inside[rng.integers(len(inside), size=2)]] = 1.0 / grid.cell_volume()
    uW = np.zeros(disk_dop_small.n)
    idxW = np.where(W)[0]
    uW[idxW] = spla.spsolve(disk_dop_small.A[idxW][:, idxW].tocsc(), rhs[idxW])
    uV = np.zeros(disk_dop_small.n)
    idxV = np.where(V)[0]
    uV[idxV] = spla.spsolve(disk_dop_small.A[idxV][:, idxV].tocsc(), rhs[idxV])
    hV = harmonic_extension(disk_dop_small, V,
                            GridField.from_interior(grid, uW))
    resid = (uW - hV.interior_values()) - uV
    assert np.max(np.abs(resid[idxV])) < 1e-10


@pytest.mark.parametrize("name, V, g", [
    ("V", np.ones(5, dtype=bool), None), ("V", np.ones(40, dtype=bool), None),
    ("V", np.ones((3, 3), dtype=bool), None), ("g", None, np.ones(7))])
def test_harmonic_extension_names_a_misshapen_input(name, V, g):
    # 15 interior nodes of a 19-node lattice: these once raised a bare
    # broadcast ValueError (V) or an IndexError (g)
    dop = assemble(LAP, build_grid(Domain.interval(0.0, 1.0), 1.0 / 16.0))
    assert dop.n == 15
    V = np.ones(dop.n, dtype=bool) if V is None else V
    g = np.ones(dop.grid.shape) if g is None else g
    with pytest.raises(SupportError, match=f"^{name} of shape"):
        harmonic_extension(dop, V, g)


def test_harmonic_extension_identity(disk_dop_small):
    # harmonic data is returned unchanged
    grid = disk_dop_small.grid
    g = discrete_green(disk_dop_small, np.array([0.5, 0.0]))
    src = grid.flat_of_lattice(grid.nearest_node([0.5, 0.0]))
    V = np.ones(disk_dop_small.n, dtype=bool)
    V[src] = False
    h = harmonic_extension(disk_dop_small, V, g)
    assert np.max(np.abs(h.values - g.values)) < 1e-9


def test_tail_curve_diffuse_exact_zero(disk_dop_small):
    dom = disk_dop_small.grid.domain
    sol = integral_solution(LAP, dom, MeasureData(density=Density.constant(1.0)))
    tc = tail_curve(sol, disk_dop_small, 1.0 / math.pi, [0.25, 0.5, 1.0])
    assert np.all(tc.values == 0.0)
    assert tc.verdict == "diffuse-like"
    assert np.all(np.diff(tc.values) <= 1e-12)


def test_tail_curve_dirac_small_grid(disk_dirac_solution, disk_dop_small):
    tc = tail_curve(disk_dirac_solution, disk_dop_small, 1.0 / math.pi,
                    [0.25, 0.5], tol=1e-10)
    target = 1.0 / (4.0 * math.pi)
    assert tc.verdict == "concentrated-like"
    assert np.all(np.abs(tc.values - target) / target < 0.05)
    assert tc.target == pytest.approx(target, rel=0.05)
    assert np.all(tc.resolvable)


def test_tail_curve_rejects_empty_levels(disk_dirac_solution, disk_dop_small):
    with pytest.raises(SupportError, match="levels"):
        tail_curve(disk_dirac_solution, disk_dop_small, 1.0 / math.pi, [])


def test_tail_curve_unresolvable_warns(disk_dirac_solution, disk_dop_small):
    with pytest.warns(UserWarning, match="below mesh resolution"):
        tc = tail_curve(disk_dirac_solution, disk_dop_small, 1.0 / math.pi,
                        [0.25, 5.0])
    assert tc.resolvable[0]
    assert not tc.resolvable[1]


def test_envelope_field_uses_discrete_diagonal(disk_dirac_solution, disk_dop_small):
    u_abs, nodes, cols = envelope_field(disk_dirac_solution, disk_dop_small)
    assert len(nodes) == 1
    col = discrete_green(disk_dop_small, np.array([0.0, 0.0]))
    assert u_abs[nodes[0]] == pytest.approx(col.values[nodes[0]], rel=1e-12)
    assert np.isfinite(u_abs[disk_dop_small.grid.interior_mask]).all()
    assert len(cols) == 1
    assert np.array_equal(cols[0].values, col.values)


def test_envelope_field_reads_grid_solution_from_another_grid(disk_dop_small):
    disk = disk_dop_small.grid.domain
    sol = grid_solution(assemble(LAP, build_grid(disk, 2.0**-4)),
                        MeasureData(density=Density.constant(1.0)))
    grid = disk_dop_small.grid
    u_abs, nodes, cols = envelope_field(sol, disk_dop_small)
    assert u_abs.shape == grid.shape
    assert np.array_equal(u_abs[grid.interior_mask],
                          np.abs(sol.evaluate(grid.interior_points())))
    assert nodes == [] and cols == []


def test_tail_curve_grid_solution_keeps_the_density_at_the_atom(disk, disk_dop_small):
    mu = MeasureData.make(atoms=[([0.0, 0.0], 1.0)], density=Density.constant(4.0),
                          dom=disk)
    rho = 1.0 / math.pi
    closed = tail_curve(integral_solution(LAP, disk, mu), disk_dop_small, rho, [1.0])
    sol = grid_solution(disk_dop_small, mu)
    grid = tail_curve(sol, disk_dop_small, rho, [1.0])
    assert grid.values[0] == pytest.approx(closed.values[0], rel=0.03)


def test_tail_curve_coincident_atoms_match_their_sum(disk, disk_dop_small):
    # two halves at one point are one unit atom: the atom's node must carry
    # the whole weight times the Green diagonal
    halves = MeasureData.make(atoms=[([0.0, 0.0], 0.5), ([0.0, 0.0], 0.5)], dom=disk)
    unit = MeasureData.make(atoms=[([0.0, 0.0], 1.0)], dom=disk)
    rho = 1.0 / math.pi
    tc = tail_curve(integral_solution(LAP, disk, halves), disk_dop_small, rho, [0.25, 0.5])
    ref = tail_curve(integral_solution(LAP, disk, unit), disk_dop_small, rho, [0.25, 0.5])
    assert np.array_equal(tc.values, ref.values)
    assert tc.values == pytest.approx([ref.target] * 2, rel=0.01)


def test_cancelled_atoms_match_the_remaining_atom(disk, disk_dop_small):
    # atoms that cancel at one point leave no atom behind: u is finite there
    # and the tail curve makes one Green solve, not two
    cancelled = MeasureData.make(atoms=[([0.0, 0.0], 1.0), ([0.0, 0.0], -1.0),
                                        ([0.5, 0.0], 1.0)], dom=disk)
    single = MeasureData.make(atoms=[([0.5, 0.0], 1.0)], dom=disk)
    sol = integral_solution(LAP, disk, cancelled)
    ref = integral_solution(LAP, disk, single)
    pts = np.array([[0.0, 0.0], [0.25, 0.1], [-0.5, 0.3]])
    assert np.array_equal(sol.evaluate(pts), ref.evaluate(pts))
    rho = 1.0 / math.pi
    tc = tail_curve(sol, disk_dop_small, rho, [0.25, 0.5])
    tc_ref = tail_curve(ref, disk_dop_small, rho, [0.25, 0.5])
    for a, b in zip(vars(tc).values(), vars(tc_ref).values()):
        assert np.array_equal(a, b)


def test_tail_curve_two_atom_divergence_grid_solution(disk):
    fn, lam, Lam = _coeff_presets()["smooth"]
    dop = assemble(OperatorSpec.divergence(fn, lam, Lam), build_grid(disk, 2.0**-5))
    mu = MeasureData.make(atoms=[([0.25, 0.0], 1.0), ([-0.25, 0.0], 1.0)], dom=disk)
    sol = grid_solution(dop, mu)
    tc = tail_curve(sol, dop, 1.0 / math.pi, [0.25, 0.5])
    # u is the sum of the atoms' Green columns, so the envelope of the
    # enriched obstacle is u itself at every level
    assert tc.values == pytest.approx([tc.target] * 2, rel=1e-8)
    assert tc.verdict == "concentrated-like"


def _tail_case(case):
    """(solution, operator, rho values on the interior, levels) of a small
    tail-curve problem."""
    disk = Domain.ball([0.0, 0.0], 1.0, 2)
    if case == "fractional-interval":
        dom = Domain.interval(0.0, 1.0)
        op = OperatorSpec.fractional(0.6)
        dop = assemble(op, build_grid(dom, 2.0**-6))
        atoms = [([0.5], 1.0)]
    elif case == "divergence-disk":
        dom = disk
        coeff, lam, Lam = _coeff_presets()["smooth"]
        op = OperatorSpec.divergence(coeff, lam, Lam)
        dop = assemble(op, build_grid(dom, 2.0**-5))
        atoms = [([0.0, 0.0], 1.0)]
    else:
        dom, op = disk, LAP
        dop = assemble(op, build_grid(dom, 2.0**-5))
        atoms = {"diffuse-disk": [], "one-atom-disk": [([0.0, 0.0], 1.0)],
                 "two-atom-disk": [([-0.25, 0.0], 1.0), ([0.25, 0.25], -0.5)]}[case]
    density = Density.constant(1.0) if case == "diffuse-disk" else None
    mu = MeasureData.make(atoms=atoms, density=density, dom=dom)
    if case == "divergence-disk":
        sol = grid_solution(dop, mu)
    else:
        sol = integral_solution(op, dom, mu)
    pts = dop.grid.interior_points()
    rho = 1.0 + 0.5 * pts[:, 0]               # positive, and not symmetric about the atoms
    return sol, dop, rho, [0.1, 0.2]


TAIL_CASES = ["one-atom-disk", "two-atom-disk", "fractional-interval", "divergence-disk"]


@pytest.mark.parametrize("case", ["diffuse-disk", "one-atom-disk", "two-atom-disk"])
def test_tail_curve_one_solve_per_atom(monkeypatch, case):
    sol, dop, rho, levels = _tail_case(case)
    calls = []
    solve = DiscreteOperator.solve

    def counted(self, rhs, on=None, x0=None):
        if on is None:                # a grid solve, not a policy step's block
            calls.append(1)
        return solve(self, rhs, on=on, x0=x0)

    monkeypatch.setattr(DiscreteOperator, "solve", counted)
    tail_curve(sol, dop, rho, levels)
    assert len(calls) == len(sol.decomposition.concentrated.atoms)


def test_tail_curve_fractional_factors_nothing(monkeypatch):
    """On a two-atom fractional interval (n = 511) the two Green columns and
    every policy step, each leaving a few nodes out, are matrix-free CG
    solves of a few iterations each; nothing is factored."""
    blocks, iterations = [], []
    solve, pcg = DiscreteOperator.solve, discrete_mod._pcg

    def counted_solve(self, rhs, on=None, x0=None):
        blocks.append(None if on is None else self.n - len(on))
        return solve(self, rhs, on=on, x0=x0)

    def counted_pcg(*args, **kwargs):
        out = pcg(*args, **kwargs)
        iterations.append(out[1])
        return out

    monkeypatch.setattr(discrete_mod, "_pcg", counted_pcg)
    monkeypatch.setattr(DiscreteOperator, "solve", counted_solve)
    dom, op = Domain.interval(-1.0, 1.0), OperatorSpec.fractional(0.5)
    dop = assemble(op, build_grid(dom, 2.0**-8))
    mu = MeasureData.make(atoms=[([-0.3], 1.0), ([0.4], 0.5)], dom=dom)
    sol = integral_solution(op, dom, mu)
    tail_curve(sol, dop, 1.0, [0.5, 1.0])
    assert blocks.count(None) == 2
    steps = [k for k in blocks if k is not None]
    assert len(steps) >= 2 and max(steps) <= 4
    assert len(iterations) == len(blocks) and max(iterations) <= 20


@pytest.mark.parametrize("case", TAIL_CASES)
def test_tail_curve_target_matches_potential_solve(case):
    # reference: R^D rho by its own solve, read at each atom's node
    sol, dop, rho, levels = _tail_case(case)
    grid = dop.grid
    pot_rho = dop.solve(rho)
    ref = sum(abs(w) * pot_rho[grid.flat_of_lattice(grid.nearest_node(np.asarray(p)))]
              for p, w in sol.decomposition.concentrated.atoms)
    tc = tail_curve(sol, dop, rho, levels)
    assert ref > 0
    assert abs(tc.target - ref) <= 1e-12 * ref


@pytest.mark.parametrize("case", TAIL_CASES)
def test_tail_curve_values_match_fresh_extensions(case):
    # reference: the tail loop with single-node extensions built from
    # Green columns solved here, not taken from envelope_field
    sol, dop, rho, levels = _tail_case(case)
    grid = dop.grid
    u_abs, nodes, _ = envelope_field(sol, dop)
    exts = []
    for (p, _), node in zip(sol.decomposition.concentrated.atoms, nodes):
        col = discrete_green(dop, np.asarray(p)).values
        exts.append(u_abs[node] * col / col[node])
    ref = np.empty(len(levels))
    prev = None
    for i in range(len(levels) - 1, -1, -1):
        g = np.maximum(u_abs - levels[i], 0.0)
        for node in nodes:
            g[node] = u_abs[node]
        g = np.where(grid.interior_mask, g, 0.0)
        w0 = g if prev is None else np.maximum(g, prev)
        for ext in exts:
            w0 = np.maximum(w0, ext)
        w0 = np.where(grid.interior_mask, w0, 0.0)
        res = reduite(dop, g, tol=1e-10, w0=w0)
        prev = res.envelope.values
        ref[i] = res.envelope.weighted_sum(rho)
    tc = tail_curve(sol, dop, rho, levels)
    assert np.all(tc.resolvable)
    assert np.array_equal(tc.values, ref)


@pytest.mark.parametrize("case", TAIL_CASES)
def test_tail_curve_reports_solver_counts(monkeypatch, case):
    sol, dop, rho, levels = _tail_case(case)
    results, start_meets_tol = [], []
    solve_reduite = envelope_mod.reduite

    def recorded(dop, g, tol=1e-10, w0=None):
        inside = dop.grid.interior_mask
        _, start = envelope_mod._complementarity(dop, w0[inside], g[inside])
        start_meets_tol.append(start <= tol)
        results.append(solve_reduite(dop, g, tol=tol, w0=w0))
        return results[-1]

    monkeypatch.setattr(envelope_mod, "reduite", recorded)
    tc = tail_curve(sol, dop, rho, levels)
    # the levels are solved from the top down; the counts are in level order
    assert tc.sweeps.tolist() == [r.iterations for r in reversed(results)]
    assert tc.policy_steps.tolist() == [r.policy_steps for r in reversed(results)]
    assert tc.sweeps.sum() == sum(r.iterations for r in results)
    assert tc.policy_steps.sum() == sum(r.policy_steps for r in results)
    assert tc.omega.tolist() == [r.omega for r in reversed(results)]
    assert all((w == 0.0) == (k == 0) for w, k in zip(tc.omega, tc.sweeps))
    # PSOR tests its update every 8 sweeps; an exact start is not swept
    assert all(k % 8 == 0 for k in tc.sweeps)
    for exact, r in zip(start_meets_tol, results):
        if exact:
            assert (r.iterations, r.policy_steps) == (0, 0)


def test_exact_start_is_returned_without_a_sweep(monkeypatch):
    """The single-node extension of a one-atom disk is the envelope of its
    tail obstacle: reduite returns max(w0, g) bit for bit, with no PSOR."""
    sol, dop, _, levels = _tail_case("one-atom-disk")
    grid = dop.grid
    field = envelope_field(sol, dop)
    g = envelope_mod.tail_obstacle(field[0], field[1], levels[0], grid)
    w0 = envelope_mod.reduite_start(g, field)
    inside = grid.interior_mask
    _, start = envelope_mod._complementarity(dop, w0[inside], g[inside])
    assert start <= 1e-10

    def no_sweeps(*args, **kwargs):
        raise AssertionError("_relax called on an exact start")

    monkeypatch.setattr(envelope_mod, "_relax", no_sweeps)
    res = reduite(dop, g, tol=1e-10, w0=w0)
    assert (res.iterations, res.policy_steps) == (0, 0)
    assert np.array_equal(res.envelope.values, np.maximum(w0, g))


@pytest.mark.parametrize("start,calls", [("exact", 1), ("dips-below-g", 2)])
def test_exact_start_computes_its_complementarity_once(monkeypatch, start, calls):
    """An exact start on or above g is the envelope: one complementarity pass
    makes the start test, the reported residual and the continuation set.
    A start within tol that dips below g adds only the residual of
    max(w0, g)."""
    sol, dop, _, levels = _tail_case("one-atom-disk")
    inside = dop.grid.interior_mask
    field = envelope_field(sol, dop)
    g = envelope_mod.tail_obstacle(field[0], field[1], levels[0], dop.grid)
    w0 = envelope_mod.reduite_start(g, field)
    if start == "dips-below-g":
        w0 = w0.copy()
        w0[field[1][0]] -= 1e-12          # the atom's node, where w0 = g
    complementarity = envelope_mod._complementarity
    counted = []

    def counting(*args):
        counted.append(args)
        return complementarity(*args)

    monkeypatch.setattr(envelope_mod, "_complementarity", counting)
    res = reduite(dop, g, tol=1e-10, w0=w0)
    assert len(counted) == calls
    assert (res.iterations, res.policy_steps) == (0, 0)
    w = np.maximum(w0, g)[inside]
    assert np.array_equal(res.envelope.interior_values(), w)
    defect, residual = complementarity(dop, w, g[inside])
    assert res.residual == residual
    scale = max(float(np.max(np.abs(w))), 1.0)
    assert np.array_equal(res.continuation[inside], defect <= 1e-10 * scale)


@pytest.mark.parametrize("case", RELAX_CASES)
@pytest.mark.parametrize("start", ["obstacle", "half-obstacle"])
def test_inexact_start_sweeps_as_before(case, start):
    """A start that misses tol runs the PSOR warm start from ``_omega_start``
    and then policy iteration, exactly as reduite did before it tested the
    start; the result reports the relaxation of the last sweep."""
    dop, g_flat = _relax_case(case)
    w0_flat = g_flat if start == "obstacle" else 0.5 * g_flat
    w0 = GridField.from_interior(dop.grid, w0_flat).values
    _, residual = envelope_mod._complementarity(dop, w0_flat, g_flat)
    assert residual > 1e-10
    w = w0_flat.copy()
    sweeps = envelope_mod._relax(dop, g_flat, w, envelope_mod._omega_start(dop.grid),
                                 envelope_mod._WARM_TOL)
    defect, residual = envelope_mod._complementarity(dop, w, g_flat)
    assert residual > 1e-10
    w, steps = envelope_mod._policy_iteration(dop, g_flat, w, defect, 1e-10)
    res = reduite(dop, GridField.from_interior(dop.grid, g_flat), tol=1e-10, w0=w0)
    assert sweeps > 0 and (res.iterations, res.policy_steps) == (sweeps, steps)
    assert res.omega == sweeps.omega
    assert np.array_equal(res.envelope.interior_values(), np.maximum(w, g_flat))


def test_tail_disk_mixed_reduites_are_exact(monkeypatch):
    """Criterion 4's tail curve (``potkit tail`` on tail-disk-mixed, h = 2^-7,
    tol 1e-10): every level's reduite ends at complementarity residual
    <= 1e-12 within two policy steps after its PSOR warm start."""
    from potkit.cli import tail_curves
    from potkit.config import grid_widths
    from potkit.presets import get_preset
    cfg = get_preset("tail-disk-mixed")
    assert grid_widths(cfg) == [2.0**-7]
    results = []
    solve_reduite = envelope_mod.reduite

    def recorded(*args, **kwargs):
        results.append(solve_reduite(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(envelope_mod, "reduite", recorded)
    tail_curves(cfg)
    assert len(results) == len(cfg["levels"])
    assert max(r.residual for r in results) <= 1e-12
    assert max(r.policy_steps for r in results) <= 2


@pytest.mark.parametrize("alpha, bound", [(0.5, 0.001), (1.0, 0.01), (1.5, 0.1)])
def test_fractional_disk_tail_curve_target(alpha, bound):
    """<R^D rho, delta_0> for the unit atom at the centre of the unit disk
    and the uniform rho = 1/pi is (1/pi) Int R^D(x, 0) dx = 1 / (pi C), C the
    fractional torsion constant: the torsion function (1 - r^2)^(alpha/2) / C
    read at the centre.  The lattice target is first order in h; at
    alpha = 1.5 it reads 0.15066 at h = 2^-4 and 0.14516 at 2^-5 against
    0.13323."""
    from potkit.kernels import frac_torsion_constant
    disk = Domain.ball([0.0, 0.0], 1.0, 2)
    op = OperatorSpec.fractional(alpha)
    sol = integral_solution(op, disk, MeasureData.make(atoms=[([0.0, 0.0], 1.0)], dom=disk))
    rho = lambda pts: np.full(np.atleast_2d(pts).shape[0], 1.0 / math.pi)
    exact = 1.0 / (math.pi * frac_torsion_constant(alpha, 2))
    errors = [abs(tail_curve(sol, assemble(op, build_grid(disk, h)), rho, [1.0]).target - exact)
              for h in (2.0**-4, 2.0**-5)]
    assert errors[1] <= bound * exact
    if alpha == 1.5:
        assert errors[1] < errors[0]
