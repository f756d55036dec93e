import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potkit import Domain, OperatorSpec
from potkit.errors import ConvergenceError, SupportError
from potkit.measures import Density, MeasureData
from potkit import reconstruct as reconstruct_mod
from potkit.kernels import frac_constant, killing_density
from potkit.reconstruct import (CutoffEta, _graded_panels_1d, _jump_terms,
                                _nonlocal_energies, constant_eta, kink_integral,
                                local_energy, nonlocal_energy,
                                reconstruct_mu_c, s_n, sigma, theta_n)
from potkit.solve import integral_solution

LAP = OperatorSpec.laplacian()


def test_s_n_examples():
    assert s_n(0.0, 1.0) == 1.0
    assert s_n(3.0, 1.0) == 2.0
    assert s_n(1.5, 1.0) == 1.5


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(0.0, 50.0), st.floats(0.01, 10.0))
def test_s_n_clamp_property(z, n):
    v = s_n(z, n)
    assert n <= v <= 2 * n
    assert v == min(max(z, n), 2 * n)


def test_theta_examples():
    n = 1.0
    assert theta_n(1.5, 1.2, n) == pytest.approx(2 * 0.09, abs=1e-15)
    assert theta_n(0.3, 0.7, n) == 0.0
    assert theta_n(2.5, 3.7, n) == 0.0
    assert theta_n(3.0, 0.0, n) == pytest.approx(6.0, abs=1e-14)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(0.0, 20.0), st.floats(0.0, 20.0), st.floats(0.05, 5.0))
def test_theta_nonnegative_property(x, y, n):
    assert theta_n(x, y, n) >= 0.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.floats(0.0, 12.0), st.floats(0.0, 12.0), st.floats(0.1, 3.0))
def test_theta_matches_clamp_identity(x, y, n):
    # closed-form second part of the window identity:
    # (x-y)^2 sigma(1_[n,2n]) = (1/2)(S(x)-S(y))(2x-S(x)-S(y));
    # theta_n carries the printed factor 2, i.e. theta = 4 (x-y)^2 sigma
    sx, sy = s_n(x, n), s_n(y, n)
    closed = 0.5 * (sx - sy) * (2.0 * x - sx - sy)
    assert theta_n(x, y, n) == pytest.approx(4.0 * closed, abs=1e-12)


def test_theta_vs_sigma_quadrature():
    # factor-four consistency against the quadrature route, where the
    # indicator is integrated directly (coarse tolerance: discontinuous f)
    n = 1.0
    f = lambda a: ((np.asarray(a) >= n) & (np.asarray(a) <= 2 * n)).astype(float)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, y = rng.uniform(0.0, 4.0, 2)
        quad = 4.0 * (x - y) ** 2 * sigma(f, x, y, nodes=96)
        assert theta_n(x, y, n) == pytest.approx(quad, abs=5e-2)


def test_sigma_constant():
    assert sigma(np.ones_like, 2.0, 0.5) == pytest.approx(0.5, rel=1e-13)


def test_sigma_identity_linear_f():
    # frozen closed form for f(a) = a:
    # (x-y)^2 sigma = (x-y)^3/6 + y (x-y)^2/2
    f = lambda a: np.asarray(a, dtype=float)
    rng = np.random.default_rng(11)
    for _ in range(50):
        x, y = rng.uniform(0.0, 5.0, 2)
        lhs = kink_integral(lambda a: float(a), x, y)
        closed = (x - y) ** 3 / 6.0 + y * (x - y) ** 2 / 2.0
        rhs = (x - y) ** 2 * sigma(f, x, y)
        assert lhs == pytest.approx(closed, abs=1e-12)
        assert rhs == pytest.approx(closed, abs=1e-10)


def test_kink_identity_polynomial():
    f = lambda a: 1.0 + 0.5 * a + 0.25 * a * a
    fv = lambda a: 1.0 + 0.5 * np.asarray(a) + 0.25 * np.asarray(a) ** 2
    rng = np.random.default_rng(4)
    for _ in range(100):
        x, y = rng.uniform(0.0, 4.0, 2)
        lhs = kink_integral(f, x, y)
        rhs = (x - y) ** 2 * sigma(fv, x, y)
        assert abs(lhs - rhs) < 1e-10


def test_local_energy_disk_dirac(disk_dirac_solution):
    for n in (0.125, 0.25, 0.5):
        val = local_energy(disk_dirac_solution, constant_eta(1.0), n)
        assert val == pytest.approx(1.0, abs=1e-3)


def test_local_energy_empty_window():
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    sol = integral_solution(LAP, dom, MeasureData(density=Density.constant(1.0)))
    assert local_energy(sol, constant_eta(1.0), 1.0) == 0.0


def test_local_energy_linear_in_eta(disk_dirac_solution):
    eta1 = CutoffEta(center=(0.0, 0.0), r_one=0.3, r_zero=0.8)
    eta2 = constant_eta(0.5)
    n = 0.25
    v1 = local_energy(disk_dirac_solution, eta1, n)
    v2 = local_energy(disk_dirac_solution, eta2, n)
    v12 = local_energy(disk_dirac_solution,
                       lambda p: eta1(p) + eta2(p), n)
    assert v12 == pytest.approx(v1 + v2, rel=1e-10)


def test_local_energy_grid_path():
    from potkit.geometry import build_grid
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    mu = MeasureData.make(atoms=[([0.0, 0.0], 1.0)], dom=dom)
    grid = build_grid(dom, 2.0**-6)
    sol = integral_solution(LAP, dom, mu, grid=grid, prefer="grid")
    val = local_energy(sol, constant_eta(1.0), 0.25)
    # stencil gradients on the staircase grid: same limit, coarse accuracy
    assert val == pytest.approx(1.0, rel=0.25)


def test_divergence_local_energy_uses_the_coefficient():
    # the carre du champ a grad u . grad u comes from the operator itself
    from potkit.config import _coeff_presets
    from potkit.geometry import build_grid
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    # a = 2: u = u_lap / 2, so the window [n, 2n] of u is [2n, 4n] of u_lap
    # and Gamma(u, u) / n = |grad u_lap|^2 / (2n)
    grid = build_grid(dom, 2.0**-5)
    mu = MeasureData.make(atoms=[([0.0, 0.0], 1.0)], dom=dom)
    two = OperatorSpec.divergence(lambda p: np.full(len(p), 2.0), 2.0, 2.0)
    div = integral_solution(two, dom, mu, grid=grid)
    lap = integral_solution(LAP, dom, mu, grid=grid, prefer="grid")
    for n in (0.05, 0.1, 0.2):
        assert local_energy(div, constant_eta(1.0), n) == pytest.approx(
            local_energy(lap, constant_eta(1.0), 2.0 * n), rel=1e-9, abs=0.0)
    # a varying coefficient: the window energy still recovers the atom mass
    coeff, lam, Lam = _coeff_presets()["smooth"]
    mu = MeasureData.make(atoms=[([0.3, 0.0], 1.0)], dom=dom)
    sol = integral_solution(OperatorSpec.divergence(coeff, lam, Lam), dom, mu,
                            grid=build_grid(dom, 2.0**-7))
    assert local_energy(sol, constant_eta(1.0), 0.25) == pytest.approx(1.0, rel=0.05)


def test_local_energy_rejects_fractional():
    dom = Domain.interval(-1.0, 1.0)
    sol = integral_solution(OperatorSpec.fractional(0.5), dom,
                            MeasureData.make(atoms=[([0.0], 1.0)], dom=dom))
    with pytest.raises(SupportError):
        local_energy(sol, constant_eta(1.0), 0.25)


def test_nonlocal_energy_benchmark_level_one():
    dom = Domain.interval(-1.0, 1.0)
    sol = integral_solution(OperatorSpec.fractional(0.5), dom,
                            MeasureData.make(atoms=[([0.0], 1.0)], dom=dom))
    eta = CutoffEta(center=(0.0,), r_one=0.25, r_zero=0.75)
    val = nonlocal_energy(sol, eta, 1.0)
    # frozen from an independent fine-quadrature run of the same functional
    assert val == pytest.approx(0.9728, abs=5e-3)
    assert val >= 0.0


def test_reconstruct_report_keeps_refinement_traces(monkeypatch):
    dom = Domain.interval(-1.0, 1.0)
    sol = integral_solution(OperatorSpec.fractional(0.5), dom,
                            MeasureData.make(atoms=[([0.0], 1.0)], dom=dom))
    eta = CutoffEta(center=(0.0,), r_one=0.25, r_zero=0.75)
    rep = reconstruct_mu_c(sol, eta, [2.0, 1.0])
    for n, val, trace in zip(rep.levels, rep.values, rep.traces):
        assert nonlocal_energy(sol, eta, n, return_trace=True) == (val, trace)
    # an unconverged trace raises instead of passing for a value
    monkeypatch.setattr(reconstruct_mod, "_MAX_REFINE", 1)
    with pytest.raises(ConvergenceError):
        nonlocal_energy(sol, eta, 1.0, return_trace=True)


def _full_matrix_jump(x, w, u, ex, alpha, n):
    """The unblocked formula: theta_n and the jump measure as N x N arrays."""
    TH = theta_n(u[:, None], u[None, :], n)
    dist = np.abs(x[:, None] - x[None, :])
    with np.errstate(divide="ignore"):
        Jm = 0.5 * frac_constant(alpha, 1) * dist ** (-1.0 - alpha)
    np.fill_diagonal(Jm, 0.0)
    return float(np.einsum("i,ij,j->", ex, TH * Jm, w))


def _full_matrix_energy(sol, eta, n, x, w):
    alpha = sol.op.alpha
    u = sol.evaluate(x.reshape(-1, 1))
    ex = eta(x.reshape(-1, 1)) * w
    kill = float(np.sum(ex * theta_n(u, 0.0, n) * killing_density(alpha, sol.dom, x)))
    return (_full_matrix_jump(x, w, u, ex, alpha, n) + kill) / (2.0 * n)


@pytest.mark.parametrize("case", ["atom", "bounded"])
def test_nonlocal_energies_match_full_matrix_formula(case, monkeypatch):
    # gradings of 770 and 1,510 nodes: two and three row blocks of the kernel;
    # the bounded potential (sup u ~ 1.128) has an empty window at n = 2
    dom = Domain.interval(-1.0, 1.0)
    if case == "atom":
        measure = MeasureData.make(atoms=[([0.0], 1.0)], dom=dom)
        eta, levels = CutoffEta(center=(0.0,), r_one=0.25, r_zero=0.75), [0.05, 1.0, 7.0]
    else:
        measure = MeasureData(density=Density.constant(1.0))
        eta, levels = constant_eta(1.0), [0.3, 2.0]
    sol = integral_solution(OperatorSpec.fractional(0.5), dom, measure)
    anchors = [p[0] for p, _ in sol.measure.atoms]
    monkeypatch.setattr(reconstruct_mod, "_MAX_REFINE", 2)
    monkeypatch.setattr(reconstruct_mod, "_PER_DECADE", 2)
    results = _nonlocal_energies(sol, eta, levels, rel_tol=1.0)
    for n, (val, trace) in zip(levels, results):
        assert len(trace) == 2 and val == trace[-1]
        for i, got in enumerate(trace):
            x, w = _graded_panels_1d(dom, anchors, 2 * 2**i, r_min=1e-9, gauss=10)
            ref = _full_matrix_energy(sol, eta, n, x, w)
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
    if case == "bounded":
        assert results[-1][0] == 0.0


def test_jump_terms_with_no_node_in_the_window():
    # u steps over the window (1, 2): M is empty and only the L x H and H x L
    # products contribute; at n = 10 every node is below the window
    x, w = _graded_panels_1d(Domain.interval(-1.0, 1.0), [0.0], 2, r_min=1e-9, gauss=10)
    u = np.where(np.abs(x) < 0.3, 5.0, 0.2)
    ex = w * (1.0 + x**2)
    got = _jump_terms(x, w, u, ex, 0.5, [1.0, 10.0])
    ref = _full_matrix_jump(x, w, u, ex, 0.5, 1.0)
    assert ref > 0.0
    assert got[0] == pytest.approx(ref, rel=1e-13, abs=0.0)
    assert got[1] == 0.0


def test_nonlocal_energy_bounded_u_zero():
    alpha = 0.5
    dom = Domain.interval(-1.0, 1.0)
    sol = integral_solution(OperatorSpec.fractional(alpha), dom,
                            MeasureData(density=Density.constant(1.0)))
    # sup u = 1/C(1, alpha) ~ 1.128; any level above it empties the window
    val = nonlocal_energy(sol, constant_eta(1.0), 2.0)
    assert val == 0.0


def test_nonlocal_energy_eta_zero():
    dom = Domain.interval(-1.0, 1.0)
    sol = integral_solution(OperatorSpec.fractional(0.5), dom,
                            MeasureData.make(atoms=[([0.0], 1.0)], dom=dom))
    assert nonlocal_energy(sol, constant_eta(0.0), 1.0) == 0.0


def test_nonlocal_window_locality():
    # pairs with both values below the window contribute nothing
    n = 1.0
    base = np.array([0.2, 0.4, 0.8])
    pert = base + 0.05
    assert np.all(theta_n(base[:, None], base[None, :], n) == 0.0)
    assert np.all(theta_n(pert[:, None], pert[None, :], n) == 0.0)


def test_reconstruct_report_disk_dirac(disk_dirac_solution):
    rep = reconstruct_mu_c(disk_dirac_solution, constant_eta(1.0),
                           [0.125, 0.25, 0.5])
    assert rep.kind == "local"
    assert rep.target == pytest.approx(1.0)
    assert np.all(np.abs(rep.values - 1.0) < 1e-3)
    assert not rep.prefactor_flagged
    assert rep.fitted_prefactor == pytest.approx(1.0, abs=1e-3)


def test_reconstruct_report_diffuse_zero():
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    sol = integral_solution(LAP, dom, MeasureData(density=Density.constant(1.0)))
    rep = reconstruct_mu_c(sol, constant_eta(1.0), [0.3, 0.5, 1.0])
    assert np.all(rep.values == 0.0)
    assert rep.target == 0.0


def test_reconstruct_two_atoms_eta_local():
    # eta supported near one atom: target = that atom's weight times eta there
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    mu = MeasureData.make(atoms=[([0.3, 0.0], 1.0), ([-0.4, 0.1], 0.5)], dom=dom)
    sol = integral_solution(LAP, dom, mu)
    eta = CutoffEta(center=(0.3, 0.0), r_one=0.15, r_zero=0.3)
    rep = reconstruct_mu_c(sol, eta, [0.5])
    assert rep.target == pytest.approx(1.0, rel=1e-12)
    assert rep.values[0] == pytest.approx(1.0, rel=0.05)


def test_negative_level_rejected():
    with pytest.raises(SupportError):
        s_n(1.0, 0.0)
