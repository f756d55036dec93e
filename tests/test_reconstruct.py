import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potkit import Domain, OperatorSpec
from potkit.errors import ConvergenceError, SupportError
from potkit.measures import Density, MeasureData
from potkit import reconstruct as reconstruct_mod
from potkit.kernels import frac_constant, killing_density
from potkit.reconstruct import (_RADIAL_NODES, CutoffEta, _graded_panels_1d,
                                _jump_terms, _local_energy_closed,
                                _nonlocal_energies, _ray_directions,
                                constant_eta, kink_integral,
                                local_energy, nonlocal_energy,
                                reconstruct_mu_c, s_n, sigma, theta_n)
from potkit.config import build_eta, build_problem, build_solution, validate_config
from potkit.discrete import assemble
from potkit.presets import get_preset
from potkit.solve import grid_solution, integral_solution, level_radius

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


def test_sigma_rejects_arrays():
    with pytest.raises(SupportError, match="scalar"):
        sigma(np.ones_like, np.array([2.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(SupportError, match="scalar"):
        sigma(np.ones_like, 2.0, np.array([0.5]))


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


def test_local_energy_disk_dirac_high_levels(disk_dirac_solution):
    # the window [n, 2n] spans radii e^(-4 pi n) to e^(-2 pi n)
    for n in (1.0, 2.0, 4.0):
        val = local_energy(disk_dirac_solution, constant_eta(1.0), n)
        assert val == pytest.approx(1.0, abs=1e-9)


def test_local_energy_ball_3d_dirac():
    ball = Domain.ball([0.0, 0.0, 0.0], 1.0, 3)
    sol = integral_solution(LAP, ball, MeasureData.make(atoms=[([0.0, 0.0, 0.0], 1.0)],
                                                        dom=ball))
    for n in (0.5, 1.0, 4.0):
        assert local_energy(sol, constant_eta(1.0), n) == pytest.approx(1.0, abs=1e-9)


def _local_energy_per_ray(solution, eta, n):
    """Reference for ``_local_energy_closed``: one ray at a time, each ray's
    window searched out to where it leaves the ball."""
    dom = solution.dom
    d = dom.dim
    gx, gw = np.polynomial.legendre.leggauss(_RADIAL_NODES)
    c = np.asarray(dom.center)
    dirs, ang_w = _ray_directions(d)
    total = 0.0
    for p, w in solution.decomposition.concentrated.atoms:
        if w <= 0:
            continue
        p = np.asarray(p, dtype=float)
        for direction, wa in zip(dirs, ang_w):
            rel = p - c
            b = float(np.dot(rel, direction))
            r_hi = -b + math.sqrt(max(b * b - (np.dot(rel, rel) - dom.radius**2), 0.0))
            u_ray = lambda r: solution.evaluate(p + np.outer(r, direction))
            r_out = float(level_radius(u_ray, [r_hi], n)[0])
            r_in = float(level_radius(u_ray, [r_hi], 2.0 * n)[0])
            if r_out <= r_in:
                continue
            s_in, s_out = math.log(r_in), math.log(r_out)
            half = 0.5 * (s_out - s_in)
            rr = np.exp(0.5 * (s_out + s_in) + half * gx)
            pts = p + rr[:, None] * direction
            grad = solution.gradient(pts)
            dens = np.sum(grad * grad, axis=1)
            total += wa * float(np.sum(half * gw * eta(pts) * dens * rr ** d))
    return total / n


def _ball3():
    ball = Domain.ball([0.0, 0.0, 0.0], 1.0, 3)
    return integral_solution(LAP, ball, MeasureData.make(atoms=[([0.0, 0.0, 0.0], 1.0)],
                                                         dom=ball))


def _two_atom_disk():
    disk = Domain.ball([0.0, 0.0], 1.0, 2)
    mu = MeasureData.make(atoms=[([0.3, 0.0], 1.0), ([-0.2, 0.4], 0.5)],
                          density=Density.gaussian(2.0, 0.2, [0.0, 0.0]), dom=disk)
    return integral_solution(LAP, disk, mu)


@pytest.mark.parametrize("case", ["disk-dirac", "ball3-dirac"])
def test_local_energy_closed_matches_per_ray_reference(case, disk_dirac_solution):
    # every ray of an atom searched at once, out to the diameter, gives the
    # same bits as one ray at a time out to its exit
    sol, eta, n = {
        "disk-dirac": (disk_dirac_solution, constant_eta(1.0), 0.25),
        "ball3-dirac": (_ball3(), constant_eta(1.0), 1.0),
    }[case]
    assert _local_energy_closed(sol, eta, n).hex() == _local_energy_per_ray(sol, eta, n).hex()


@pytest.mark.parametrize("case", ["two-atom-disk", "atoms-at-half-n0.1", "atoms-at-half-n0.125"])
def test_local_energy_closed_refuses_two_atoms_in_the_window(case):
    # rays from each of two atoms that both meet the window where eta != 0
    # cover parts of it twice: atoms at (+-0.5, 0) read 4.030 at n = 0.1 and
    # 8.975 at n = 0.125, where the exact value is 2, and the two-atom disk
    # read 4.124 against a grid value near 1.48
    disk = Domain.ball([0.0, 0.0], 1.0, 2)
    halves = integral_solution(LAP, disk, MeasureData.make(
        atoms=[([0.5, 0.0], 1.0), ([-0.5, 0.0], 1.0)], dom=disk))
    sol, eta, n = {
        "two-atom-disk": (_two_atom_disk(), CutoffEta((0.0, 0.0), 0.3, 0.8), 0.25),
        "atoms-at-half-n0.1": (halves, constant_eta(1.0), 0.1),
        "atoms-at-half-n0.125": (halves, constant_eta(1.0), 0.125),
    }[case]
    with pytest.raises(SupportError, match="rays from each positive atom"):
        local_energy(sol, eta, n)


@pytest.mark.parametrize("value, n, exact", [(1.0, 0.1, 0.4 * math.pi),
                                             (4.0, 0.25, 2.5 * math.pi),
                                             (1.0, 0.3, 0.0), (-4.0, 0.25, 0.0)])
def test_local_energy_closed_density_casts_rays_from_the_centre(value, n, exact):
    # u = value (1 - r^2) / 4, so (1/n) Int_{n <= u <= 2n} |grad u|^2 is
    # (2 pi / n) (value / 4) ((r_out^4 - r_in^4) / 4) over the window radii;
    # at n = 0.3 the window lies above max u = 0.25, and a negative density
    # has u <= 0 below every window
    disk = Domain.ball([0.0, 0.0], 1.0, 2)
    sol = integral_solution(LAP, disk, MeasureData(density=Density.constant(value)))
    val = local_energy(sol, constant_eta(1.0), n)
    if exact == 0.0:
        assert val == 0.0
    else:
        assert val == pytest.approx(exact, rel=1e-9)


def test_classd_bounded_preset_reconstructs_exactly():
    """The preset's u = (1 - r^2) / 4 has the exact gradient -x / 2, so its
    window energy at n = 0.1 is 0.4 pi to rounding."""
    cfg = validate_config(get_preset("mc-classd-bounded"))
    dom, op, mu = build_problem(cfg)
    rep = reconstruct_mu_c(build_solution(cfg, dom, op, mu), build_eta(cfg, dom), [0.1])
    assert rep.values[0] == pytest.approx(0.4 * math.pi, rel=1e-13)


_UNIT = Domain.interval(0.0, 1.0)
_WIDE = Domain.interval(-1.0, 1.0)


@pytest.mark.parametrize("dom, mu, n, exact", [
    # u = G(., 1/2) rises and falls with slope 1/2 to max u = 1/4
    (_UNIT, MeasureData.make(atoms=[([0.5], 1.0)], dom=_UNIT), 0.05, 1.0),
    (_UNIT, MeasureData.make(atoms=[([0.5], 1.0)], dom=_UNIT), 0.2, 0.25),
    (_UNIT, MeasureData.make(atoms=[([0.5], 1.0)], dom=_UNIT), 0.3, 0.0),
    # u = 1 - t^2, t = |1 - 2x|: the window is t^2 in [1 - 2n, 1 - n]
    (_UNIT, MeasureData(density=Density.constant(8.0)), 0.25,
     (16.0 / 3.0) * (0.75**1.5 - 0.5**1.5) / 0.25),
    # slopes 0.35 and 0.65 about the atom: 0.35 * 0.1 + 0.65 * 0.1 = n
    (_WIDE, MeasureData.make(atoms=[([0.3], 1.0)], dom=_WIDE), 0.1, 1.0),
])
def test_local_energy_closed_on_an_interval(dom, mu, n, exact):
    """The closed-form local energy of an interval Laplacian, from the
    analytic slopes of its Green function and the differenced density."""
    val = local_energy(integral_solution(LAP, dom, mu), constant_eta(1.0), n)
    if exact == 0.0:
        assert val == 0.0
    else:
        assert val == pytest.approx(exact, rel=1e-9)


def test_local_energy_closed_refuses_a_signed_atom_free_measure():
    disk = Domain.ball([0.0, 0.0], 1.0, 2)
    sol = integral_solution(LAP, disk, MeasureData.make(
        atoms=[([0.0, 0.0], -1.0)], density=Density.constant(4.0), dom=disk))
    with pytest.raises(SupportError, match="ball's centre"):
        local_energy(sol, constant_eta(1.0), 0.25)


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
    sol = grid_solution(assemble(LAP, build_grid(dom, 2.0**-6)), mu)
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
    div = grid_solution(assemble(two, grid), mu)
    lap = grid_solution(assemble(LAP, grid), mu)
    for n in (0.05, 0.1, 0.2):
        assert local_energy(div, constant_eta(1.0), n) == pytest.approx(
            local_energy(lap, constant_eta(1.0), 2.0 * n), rel=1e-9, abs=0.0)
    # a varying coefficient: the window energy still recovers the atom mass
    coeff, lam, Lam = _coeff_presets()["smooth"]
    mu = MeasureData.make(atoms=[([0.3, 0.0], 1.0)], dom=dom)
    sol = grid_solution(assemble(OperatorSpec.divergence(coeff, lam, Lam),
                                 build_grid(dom, 2.0**-7)), mu)
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
        assert reconstruct_mod._nonlocal_energies(sol, eta, [n])[0] == [(val, trace)]
        assert nonlocal_energy(sol, eta, n) == val
    # an unconverged trace raises instead of passing for a value
    monkeypatch.setattr(reconstruct_mod, "_MAX_REFINE", 1)
    with pytest.raises(ConvergenceError):
        nonlocal_energy(sol, eta, 1.0)


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
    results, _ = _nonlocal_energies(sol, eta, levels, rel_tol=1.0)
    for n, (val, trace) in zip(levels, results):
        assert len(trace) == 2 and val == trace[-1]
        for i, got in enumerate(trace):
            x, w = _graded_panels_1d(dom, anchors, 2 * 2**i, r_min=1e-9, gauss=10)
            ref = _full_matrix_energy(sol, eta, n, x, w)
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
    if case == "bounded":
        assert results[-1][0] == 0.0


@pytest.mark.parametrize("anchors", [[0.0], [0.123], [-0.7, 0.4]])
@pytest.mark.parametrize("per_decade", [2, 6, 12, 96])
def test_graded_panels_lie_inside_the_interval(anchors, per_decade):
    # with anchors (-0.7, 0.4) a ladder rung lands one ulp inside -1; no
    # panel may put its nodes onto the endpoint, where the jump kernel
    # between equal nodes is infinite
    x, w = _graded_panels_1d(Domain.interval(-1.0, 1.0), anchors, per_decade,
                             r_min=1e-9, gauss=10)
    assert np.all((x > -1.0) & (x < 1.0))
    assert np.all(np.diff(x) > 0.0)
    assert w.sum() == pytest.approx(2.0, rel=1e-14, abs=0.0)


def test_jump_terms_with_no_node_in_the_window():
    # u steps over the window (1, 2): M is empty and only the L x H and H x L
    # products contribute; at n = 10 every node is below the window
    x, w = _graded_panels_1d(Domain.interval(-1.0, 1.0), [0.0], 2, r_min=1e-9, gauss=10)
    u = np.where(np.abs(x) < 0.3, 5.0, 0.2)
    ex = w * (1.0 + x**2)
    got, _ = _jump_terms(x, w, u, ex, 0.5, [1.0, 10.0])
    ref = _full_matrix_jump(x, w, u, ex, 0.5, 1.0)
    assert ref > 0.0
    assert got[0] == pytest.approx(ref, rel=1e-13, abs=0.0)
    assert got[1] == 0.0


def test_jump_terms_build_only_the_live_rows():
    # eta vanishes on the band (1e-5, 0.5), which holds whole leaves of the
    # cluster tree, so fewer kernel entries are built than with eta != 0
    # everywhere; the window is empty of nodes at n = 1 and holds the inner
    # nodes at n = 3 and the outer ones at n = 0.15
    x, w = _graded_panels_1d(Domain.interval(-1.0, 1.0), [0.0], 2, r_min=1e-9, gauss=10)
    u = np.where(np.abs(x) < 0.3, 5.0 + x, 0.2 + 0.1 * x)
    ex = np.where((x > 1e-5) & (x < 0.5), 0.0, 1.0 + x**2) * w
    live = np.flatnonzero(ex)
    assert np.count_nonzero(np.diff(live) > 1) == 1
    leaves = reconstruct_mod._cluster_tree(x)[-1]
    assert any(not ex[a:b].any() for a, b in zip(leaves[:-1], leaves[1:]))
    levels = [0.15, 1.0, 3.0]
    got, entries = _jump_terms(x, w, u, ex, 0.5, levels)
    for n, val in zip(levels, got):
        ref = _full_matrix_jump(x, w, u, ex, 0.5, n)
        assert ref > 0.0
        assert val == pytest.approx(ref, rel=1e-13, abs=0.0)
    assert 0 < entries < _jump_terms(x, w, u, (1.0 + x**2) * w, 0.5, levels)[1]
    # eta = 0 on every node: no kernel entry is built
    assert _jump_terms(x, w, u, 0.0 * ex, 0.5, levels) == ([0.0, 0.0, 0.0], 0)


@pytest.mark.parametrize("alpha", [0.5, 1.2, 1.9])
def test_jump_terms_match_full_matrix_on_an_oscillating_profile(alpha):
    # u = 3 + 2 sin(7x) crosses every window several times, so clusters hold
    # rows of all three classes and far blocks pair L, M and H nodes; eta
    # vanishes on a scattered fifth of the nodes; each level alone gives the
    # bits it gives among the others, though the blocks built depend on the
    # level set
    x, w = _graded_panels_1d(Domain.interval(-1.0, 1.0), [0.0], 6, r_min=1e-9, gauss=10)
    u = 3.0 + 2.0 * np.sin(7.0 * x)
    ex = w * np.where(np.random.default_rng(3).random(x.size) < 0.2, 0.0, 1.0 + x**2)
    levels = [0.6, 1.2, 2.0, 3.3]
    got, entries = _jump_terms(x, w, u, ex, alpha, levels)
    assert 0 < entries < np.count_nonzero(ex) * x.size
    for n, val in zip(levels, got):
        assert val == pytest.approx(_full_matrix_jump(x, w, u, ex, alpha, n), rel=1e-13, abs=0.0)
        assert _jump_terms(x, w, u, ex, alpha, [n])[0] == [val]


def test_reconstruct_report_counts_the_quadrature():
    dom = Domain.interval(-1.0, 1.0)
    sol = integral_solution(OperatorSpec.fractional(0.5), dom,
                            MeasureData.make(atoms=[([0.0], 1.0)], dom=dom))
    eta = CutoffEta(center=(0.0,), r_one=0.25, r_zero=0.75)
    rep = reconstruct_mu_c(sol, eta, [1.0, 2.0])
    assert len(rep.quad_nodes) == len(rep.kernel_rows) == len(rep.kernel_entries) \
        == max(map(len, rep.traces))
    for i, (nodes, rows) in enumerate(zip(rep.quad_nodes, rep.kernel_rows)):
        x, w = _graded_panels_1d(dom, [0.0], reconstruct_mod._PER_DECADE * 2**i,
                                 r_min=1e-9, gauss=reconstruct_mod._GAUSS)
        assert nodes == x.size
        ex = eta(x.reshape(-1, 1)) * w
        assert rows == np.count_nonzero(ex)
        assert 0 < rows < nodes
        u = sol.evaluate(x.reshape(-1, 1))
        assert rep.kernel_entries[i] == _jump_terms(x, w, u, ex, 0.5, [1.0, 2.0])[1]
        assert 0 < rep.kernel_entries[i] < rows * nodes
    # the atom-free local case: rays from the disk's centre, and no quadrature
    local = reconstruct_mu_c(integral_solution(LAP, Domain.ball([0.0, 0.0], 1.0, 2),
                                               MeasureData(density=Density.constant(1.0))),
                             constant_eta(1.0), [0.1, 0.5])
    assert local.values[0] == pytest.approx(0.4 * math.pi, rel=1e-9) and local.values[1] == 0.0
    assert local.quad_nodes == local.kernel_rows == local.kernel_entries == []


def test_reconstruct_rejects_empty_levels():
    dom = Domain.interval(-1.0, 1.0)
    sol = integral_solution(OperatorSpec.fractional(0.5), dom,
                            MeasureData.make(atoms=[([0.0], 1.0)], dom=dom))
    with pytest.raises(SupportError, match="levels"):
        reconstruct_mu_c(sol, constant_eta(1.0), [])


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
