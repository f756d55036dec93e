import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potkit import Domain, OperatorSpec
from potkit.errors import ConvergenceError, SupportError
from potkit.measures import Density, MeasureData
from potkit import reconstruct as reconstruct_mod
from potkit.kernels import killing_density
from potkit.reconstruct import (_RADIAL_NODES, CutoffEta, _lattice_energies,
                                _lattice_energy, _local_energy_closed,
                                _ray_directions, _ray_fields, _ray_origins,
                                constant_eta, kink_integral,
                                local_energy, nonlocal_energy,
                                reconstruct_mu_c, s_n, sigma, theta_n)
from potkit.config import build_eta, build_problem, build_solution, validate_config
from potkit.discrete import assemble
from potkit.geometry import build_grid
from potkit.measures import deposit
from potkit.presets import PRESETS, get_preset
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


def test_local_energy_off_centre_atom_high_levels():
    # the window [n, 2n] of the atom at (0.5, 0) lies at radii down to
    # e^(-4 pi n), about 1e-22 at n = 4, where p + r d - p keeps no digit of r
    disk = Domain.ball([0.0, 0.0], 1.0, 2)
    sol = integral_solution(LAP, disk, MeasureData.make(atoms=[([0.5, 0.0], 1.0)], dom=disk))
    for n in (2.0, 3.0, 4.0):
        assert local_energy(sol, constant_eta(1.0), n) == pytest.approx(1.0, abs=1e-9)


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
    for p, w in _ray_origins(solution):
        u_at, grad_at = _ray_fields(solution, p, w)
        for direction, wa in zip(dirs, ang_w):
            rel = np.asarray(p) - c
            b = float(np.dot(rel, direction))
            r_hi = -b + math.sqrt(max(b * b - (np.dot(rel, rel) - dom.radius**2), 0.0))
            u_ray = lambda r: u_at(np.reshape(r, (1, -1)), direction[None])
            r_out = float(level_radius(u_ray, [r_hi], n)[0])
            r_in = float(level_radius(u_ray, [r_hi], 2.0 * n)[0])
            if r_out <= r_in:
                continue
            s_in, s_out = math.log(r_in), math.log(r_out)
            half = 0.5 * (s_out - s_in)
            rr = np.exp(0.5 * (s_out + s_in) + half * gx)
            pts = np.asarray(p) + rr[:, None] * direction
            grad = grad_at(rr[None], direction[None])
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
def test_local_energy_two_atoms_read_lattices(case):
    # rays from each of two atoms that both meet the window where eta != 0
    # would cover parts of it twice (atoms at (+-0.5, 0) read 4.030 at
    # n = 0.1 and 8.975 at n = 0.125), so the window is read on the lattice:
    # 2 for the atoms at (+-0.5, 0), whose nodes hold u above 2n, and the
    # lattice's own converged value (1.4821) for the two-atom disk
    disk = Domain.ball([0.0, 0.0], 1.0, 2)
    halves = integral_solution(LAP, disk, MeasureData.make(
        atoms=[([0.5, 0.0], 1.0), ([-0.5, 0.0], 1.0)], dom=disk))
    sol, eta, n = {
        "two-atom-disk": (_two_atom_disk(), CutoffEta((0.0, 0.0), 0.3, 0.8), 0.25),
        "atoms-at-half-n0.1": (halves, constant_eta(1.0), 0.1),
        "atoms-at-half-n0.125": (halves, constant_eta(1.0), 0.125),
    }[case]
    val = local_energy(sol, eta, n)
    if case == "two-atom-disk":
        (trace,), _, _, resolvable = _lattice_energies(sol, eta, [n])
        assert val.hex() == trace[-1].hex() and resolvable.all()
    else:
        assert abs(val - 2.0) <= 1e-12


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


def test_local_energy_signed_measure_reads_the_lattice():
    # u = 1 - r^2 + log(r) / 2 pi falls to -inf at the negative atom, so its
    # rays would not fall from the center; for the Laplacian the window
    # energy is <mu, D/n> with D = clamp(u - n, 0, n), the radial oracle
    # (4 / n) 2 pi Int_0^1 D r dr = 7.2930, and the lattice is first order on
    # the disk's staircase boundary
    from scipy.integrate import quad
    disk = Domain.ball([0.0, 0.0], 1.0, 2)
    sol = integral_solution(LAP, disk, MeasureData.make(
        atoms=[([0.0, 0.0], -1.0)], density=Density.constant(4.0), dom=disk))
    n = 0.25
    D = lambda r: min(max(1.0 - r * r + math.log(r) / (2.0 * math.pi) - n, 0.0), n)
    oracle = 4.0 / n * 2.0 * math.pi * quad(lambda r: D(r) * r, 0.0, 1.0, limit=200)[0]
    assert oracle == pytest.approx(7.2930, abs=1e-4)
    assert local_energy(sol, constant_eta(1.0), n) == pytest.approx(oracle, rel=0.02)


def test_local_energy_small_atom_on_a_density_reads_the_lattice():
    # u does not fall along every ray from an atom of weight 0.05 at
    # (0.5, 0) on the density 4: the rays would read 4.3437 at n = 0.45,
    # 3.7 % above the coarea oracle (1/n) Int_n^2n mu({u > t}) dt = 4.18811.
    # The lattice reads within 1 % of it and flags the level, since 2n lies
    # above u at the atom's node, and so it does at n = 0.5
    disk = Domain.ball([0.0, 0.0], 1.0, 2)
    sol = integral_solution(LAP, disk, MeasureData.make(
        atoms=[([0.5, 0.0], 0.05)], density=Density.constant(4.0), dom=disk))
    with pytest.warns(UserWarning, match="n=0.45 .* atom's node"):
        rep = reconstruct_mu_c(sol, constant_eta(1.0), [0.45])
    assert rep.values[0] == pytest.approx(4.18811, rel=0.01)
    assert not rep.resolvable[0] and rep.widths
    with pytest.warns(UserWarning, match="n=0.5 "):
        assert local_energy(sol, constant_eta(1.0), 0.5) > 0.0


def _no_call(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return fail


def test_local_presets_read_the_rays(monkeypatch):
    # every local preset's reconstruction is served by the closed-form rays,
    # so its outputs keep their bits; none builds a lattice
    monkeypatch.setattr(reconstruct_mod, "_lattice_energies", _no_call("_lattice_energies"))
    local = 0
    for name in PRESETS:
        cfg = validate_config(get_preset(name))
        dom, op, mu = build_problem(cfg)
        if op.is_local:
            rep = reconstruct_mu_c(build_solution(cfg, dom, op, mu), build_eta(cfg, dom),
                                   cfg.get("levels", [0.25, 0.5]))
            assert rep.widths == [] and rep.resolvable.all()
            local += 1
    assert local == 13


@pytest.mark.parametrize("atom", [([0.5, 0.0], 0.05), ([0.0, 0.0], -1.0)])
def test_lattice_cases_cast_no_ray(atom, monkeypatch):
    # an off-center atom on a density, and a signed measure, go straight to
    # the lattice: no ray is cast
    monkeypatch.setattr(reconstruct_mod, "level_radius", _no_call("level_radius"))
    disk = Domain.ball([0.0, 0.0], 1.0, 2)
    sol = integral_solution(LAP, disk, MeasureData.make(
        atoms=[atom], density=Density.constant(4.0), dom=disk))
    rep = reconstruct_mu_c(sol, constant_eta(1.0), [0.25])
    assert rep.widths and rep.values[0] > 0.0


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
    # the lattice identity <mu, D/n>: u exceeds 2n at the atom's node and
    # stays below n next to the boundary, so each lattice reads 1
    assert val == pytest.approx(1.0, rel=1e-12, abs=0.0)


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
        assert _lattice_energies(sol, eta, [n])[0] == [trace]
        assert nonlocal_energy(sol, eta, n) == val
    # an unconverged trace raises instead of passing for a value
    monkeypatch.setattr(reconstruct_mod, "_MAX_REFINE", 1)
    with pytest.raises(ConvergenceError, match="level n=1 "):
        nonlocal_energy(sol, eta, 1.0)


def _dense_energy(dop, u, ex, n):
    """The lattice functional summed pair by pair: theta_n against the jump
    weights W = -A off the diagonal, and the killing A 1."""
    W = -dop.A.toarray()
    np.fill_diagonal(W, 0.0)
    kill = dop.A @ np.ones(dop.n)
    TH = theta_n(u[:, None], u[None, :], n)
    jump = 0.5 * np.einsum("i,ij->", ex, W * TH)
    return (jump + float(np.sum(ex * kill * theta_n(u, 0.0, n)))) \
        * dop.grid.cell_volume() / (2.0 * n)


def _interval_lattice(alpha, h=2.0**-7):
    """The fractional operator on (-1, 1) at width h, its nodes and killing."""
    dop = assemble(OperatorSpec.fractional(alpha), build_grid(Domain.interval(-1.0, 1.0), h))
    return dop, dop.grid.interior_points()[:, 0], dop.apply(np.ones(dop.n))


@pytest.mark.parametrize("case", ["atom", "bounded"])
def test_nonlocal_energies_match_full_matrix_formula(case, monkeypatch):
    # lattices of 255 and 511 nodes, each value against the pair sum on the
    # lattice solution; the bounded potential (sup u ~ 1.128) has an empty
    # window at n = 2
    dom = Domain.interval(-1.0, 1.0)
    if case == "atom":
        measure = MeasureData.make(atoms=[([0.0], 1.0)], dom=dom)
        eta, levels = CutoffEta(center=(0.0,), r_one=0.25, r_zero=0.75), [0.05, 1.0, 7.0]
    else:
        measure = MeasureData(density=Density.constant(1.0))
        eta, levels = constant_eta(1.0), [0.3, 2.0]
    op = OperatorSpec.fractional(0.5)
    sol = integral_solution(op, dom, measure)
    monkeypatch.setattr(reconstruct_mod, "_START_NODES", 200)
    monkeypatch.setattr(reconstruct_mod, "_MAX_REFINE", 2)
    traces, widths, unknowns, _ = _lattice_energies(sol, eta, levels, rel_tol=1.0)
    assert widths == [2.0**-7, 2.0**-8] and unknowns == [255, 511]
    for n, trace in zip(levels, traces):
        assert len(trace) == 2
        for h, got in zip(widths, trace):
            dop = assemble(op, build_grid(dom, h))
            u = grid_solution(dop, measure).grid_field.interior_values()
            ref = _dense_energy(dop, u, eta(dop.grid.interior_points()), n)
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
    if case == "bounded":
        assert traces[-1] == [0.0, 0.0]


def test_jump_terms_with_no_node_in_the_window():
    # u steps over the window (1, 2), so D is 0 or n at every node and only
    # the pairs across the step contribute; at n = 10 every node is below
    # the window and the value is exactly 0
    dop, x, kappa = _interval_lattice(0.5)
    u = np.where(np.abs(x) < 0.3, 5.0, 0.2)
    ex = 1.0 + x**2
    ref = _dense_energy(dop, u, ex, 1.0)
    assert ref > 0.0
    assert _lattice_energy(dop, kappa, u, ex, 1.0)[0] == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert _lattice_energy(dop, kappa, u, ex, 10.0)[0] == 0.0


def test_jump_terms_build_only_the_live_rows():
    # eta vanishes on the band (1e-5, 0.5): its rows add nothing, so the
    # value is the pair sum over the other rows alone; the window is empty
    # of nodes at n = 1 and holds the inner nodes at n = 3 and the outer ones
    # at n = 0.15; eta = 0 on every node gives exactly 0
    dop, x, kappa = _interval_lattice(0.5)
    u = np.where(np.abs(x) < 0.3, 5.0 + x, 0.2 + 0.1 * x)
    ex = np.where((x > 1e-5) & (x < 0.5), 0.0, 1.0 + x**2)
    live = np.flatnonzero(ex)
    assert np.count_nonzero(np.diff(live) > 1) == 1
    for n in (0.15, 1.0, 3.0):
        ref = _dense_energy(dop, u, ex, n)
        assert ref > 0.0
        assert _lattice_energy(dop, kappa, u, ex, n)[0] == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert _lattice_energy(dop, kappa, u, 0.0 * ex, n)[0] == 0.0


@pytest.mark.parametrize("alpha", [0.5, 1.2, 1.9])
def test_jump_terms_match_full_matrix_on_an_oscillating_profile(alpha):
    # u = 3 + 2 sin(7x) crosses every window several times, so every node
    # class (below, in and above the window) meets every other; eta
    # vanishes on a scattered fifth of the nodes
    dop, x, kappa = _interval_lattice(alpha)
    u = 3.0 + 2.0 * np.sin(7.0 * x)
    ex = np.where(np.random.default_rng(3).random(x.size) < 0.2, 0.0, 1.0 + x**2)
    for n in (0.6, 1.2, 2.0, 3.3):
        assert _lattice_energy(dop, kappa, u, ex, n)[0] == pytest.approx(
            _dense_energy(dop, u, ex, n), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [0.5, 2.0])
@pytest.mark.parametrize("op", [0.5, 1.0, 1.5, "laplacian", "divergence"])
@pytest.mark.parametrize("d", [1, 2])
def test_lattice_functional_exact_identity(d, op, n):
    """For eta = 1 and u = A^{-1} mu, symmetrising theta_n gives
    F_n = <mu, D/n> + (h^d / n) Sum_x kappa_x D_x (u_x - D_x - 2n),
    D = clamp(u - n, 0, n): the discrete reconstruction formula, for the
    fractional operator of index ``op`` and for local stencils, whose
    kappa = A 1 is the leak to the boundary nodes.  At d = 1 and alpha = 1.5
    the atom is not polar, u stays below 1 and the window at n = 2 is
    empty.  A local atom weighs 8, so that u, 4 (1 - |x|) on the interval,
    crosses both windows; there a local stencil runs at h = 2^-7, since at
    2^-10 its weights of about 1 / h^2 put the rounding at 8.5e-13
    relative, next to the bound."""
    from potkit.config import _coeff_presets
    dom = Domain.interval(-1.0, 1.0) if d == 1 else Domain.ball([0.0, 0.0], 1.0, 2)
    spec = {"laplacian": LAP,
            "divergence": OperatorSpec.divergence(*_coeff_presets()["smooth"])}.get(op)
    mu = MeasureData.make(atoms=[([0.0] * d, 1.0 if spec is None else 8.0)], dom=dom)
    h = 2.0**-5 if d == 2 else 2.0**-10 if spec is None else 2.0**-7
    dop = assemble(spec or OperatorSpec.fractional(op), build_grid(dom, h))
    u = grid_solution(dop, mu).grid_field.interior_values()
    kappa = dop.apply(np.ones(dop.n))
    D = np.clip(u - n, 0.0, n)
    hd = dop.grid.cell_volume()
    exact = hd * (np.sum(deposit(mu, dop.grid) * D) + np.sum(kappa * D * (u - D - 2.0 * n))) / n
    got = _lattice_energy(dop, kappa, u, np.ones(dop.n), n)[0]
    assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("op", [0.5, 1.5, "laplacian", "divergence"])
@pytest.mark.parametrize("d", [1, 2])
def test_lattice_energy_matches_the_pair_sum(d, op):
    """The regrouped sum 2v (A D) - A D^2 + kappa D (2v - D) against theta_n
    summed pair by pair, on lattices of 255 (interval) and 193 (disk) nodes,
    with a cutoff eta and u = 3 exp(-|x - c|^2 / 0.4) crossing each window,
    for the fractional operator of index ``op`` and for local stencils."""
    from potkit.config import _coeff_presets
    dom = Domain.interval(-1.0, 1.0) if d == 1 else Domain.ball([0.0, 0.0], 1.0, 2)
    spec = {"laplacian": LAP,
            "divergence": OperatorSpec.divergence(*_coeff_presets()["smooth"])}.get(op)
    dop = assemble(spec or OperatorSpec.fractional(op),
                   build_grid(dom, 2.0**-7 if d == 1 else 2.0**-3))
    x = dop.grid.interior_points()
    u = 3.0 * np.exp(-np.sum((x - 0.1) ** 2, axis=1) / 0.4)
    ex = CutoffEta((0.2,) * d, 0.3, 0.7)(x)
    kappa = dop.apply(np.ones(dop.n))
    # the 1-d divergence row at n = 0.4 cancels hardest: against an 80-bit
    # pair sum the regrouped form is off by 3.3e-11 and the float64 pair
    # sum itself by 2.8e-12
    rel = 1e-10 if op == "divergence" else 1e-12
    for n in (0.4, 1.0, 1.4):
        assert np.any((u > n) & (u < 2.0 * n) & (ex > 0.0))
        ref = _dense_energy(dop, u, ex, n)
        assert ref > 0.0
        assert _lattice_energy(dop, kappa, u, ex, n)[0] == pytest.approx(ref, rel=rel, abs=0.0)


_FLAT_DISK = Domain.ball([0.0, 0.0], 1.0, 2)


@pytest.mark.parametrize("atoms, eta, n, exact", [
    # u > 2n on all of eta's support, so the window misses it: the rays read
    # 0.0, and the lattice once read -1.7e-14 ... -4.4e-12 on 5 lattices and
    # raised ConvergenceError
    ([([0.3, 0.0], 1.0), ([-0.3, 0.0], 8.0)], CutoffEta((0.3, 0.0), 0.2, 0.3), 0.15, 0.0),
    # signed, so local_energy reads the lattice, and raised the same way
    ([([0.3, 0.0], 1.0), ([-0.3, 0.0], 8.0), ([0.0, -0.6], -0.01)],
     CutoffEta((0.3, 0.0), 0.2, 0.3), 0.15, 0.0),
    # rays of both atoms meet the window; the trace settles slowly from
    # 0.00231, 1,000 times below the target 1, and never stopped relative
    # to its own value
    ([([0.3, 0.0], 1.0), ([-0.4, 0.1], 0.5)], CutoffEta((0.3, 0.0), 0.15, 0.3), 0.1, None),
], ids=["flat", "flat-signed", "small-positive"])
def test_windows_reading_about_nothing_end(atoms, eta, n, exact):
    sol = integral_solution(LAP, _FLAT_DISK, MeasureData.make(atoms=atoms, dom=_FLAT_DISK))
    (trace,), widths, _, _ = _lattice_energies(sol, eta, [n])
    assert len(widths) <= 3
    if exact is None:
        assert 0.0 < trace[-1] < 0.01
    else:
        assert trace == [exact] * len(trace)
    if any(w < 0.0 for _, w in atoms):
        assert local_energy(sol, eta, n) == 0.0


def test_divergence_window_reading_about_nothing_ends():
    """A divergence-form window with no positive atom under eta: the grid
    solution (h = 2^-4, ``smooth`` coefficients) of atoms 1 at (0.3, 0) and
    8 at (-0.3, 0) is above 2n on eta's support.  Unequal edge weights leave
    rounding in A D there, which once read -9.3e-15 ... -7.7e-13 on 5
    lattices and raised ConvergenceError; each read is within its rounding
    bound, so the window reads 0.0 and ends on 2 lattices."""
    from potkit.config import _coeff_presets
    op = OperatorSpec.divergence(*_coeff_presets()["smooth"])
    mu = MeasureData.make(atoms=[([0.3, 0.0], 1.0), ([-0.3, 0.0], 8.0)], dom=_FLAT_DISK)
    sol = grid_solution(assemble(op, build_grid(_FLAT_DISK, 2.0**-4)), mu)
    eta = CutoffEta((0.0, 0.3), 0.05, 0.1)
    (trace,), widths, _, _ = _lattice_energies(sol, eta, [0.05])
    assert len(widths) <= 3 and trace == [0.0] * len(trace)
    assert local_energy(sol, eta, 0.05) == 0.0


def test_lattice_values_against_the_panel_quadrature():
    # the graded-panel quadrature of the continuum functional on the closed
    # form read these on reconstruct-nonlocal-interval (levels 1, 2, 4, 8, 16)
    panel = [0.9728216661279137, 0.9757569706541644, 0.9844941274401862,
             0.9911534964379152, 0.99500274263249]
    cfg = validate_config(get_preset("reconstruct-nonlocal-interval"))
    dom, op, mu = build_problem(cfg)
    rep = reconstruct_mu_c(build_solution(cfg, dom, op, mu), build_eta(cfg, dom), cfg["levels"],
                           rel_tol=cfg["tolerances"]["quad_rel"])
    np.testing.assert_allclose(rep.values, panel, rtol=0.0, atol=2e-3)
    assert rep.widths == [2.0**-10, 2.0**-11, 2.0**-12] and rep.unknowns == [2047, 4095, 8191]
    assert rep.resolvable.all()


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_nonlocal_reconstruction_on_the_disk(alpha):
    # the unit atom at the centre of the unit disk: 1.0353 down to 1.0015 at
    # alpha = 1, 0.9787 up to 0.9996 at alpha = 1.5
    disk = Domain.ball([0.0, 0.0], 1.0, 2)
    sol = integral_solution(OperatorSpec.fractional(alpha), disk,
                            MeasureData.make(atoms=[([0.0, 0.0], 1.0)], dom=disk))
    rep = reconstruct_mu_c(sol, constant_eta(1.0), [0.25, 0.5, 1.0, 2.0])
    err = np.abs(rep.values - 1.0)
    assert np.all(err <= 0.04) and np.all(np.diff(err) < 0.0)
    assert rep.unknowns[0] == 3205 and rep.resolvable.all()


@pytest.mark.parametrize("case", ["square", "masked", "ball3"])
def test_nonlocal_energy_serves_every_fractional_domain(case):
    # rectangles, masked rectangles and 3-d balls assemble, so they
    # reconstruct; the grid solution's own lattice is not used
    dom, p = {
        "square": (Domain.rectangle([(-1.0, 1.0), (-1.0, 1.0)]), [0.0, 0.0]),
        "masked": (Domain.rectangle([(-1.0, 1.0), (-1.0, 1.0)],
                                    mask=lambda x: np.atleast_2d(x).sum(axis=1) < 0.5),
                   [-0.2, -0.2]),
        "ball3": (Domain.ball([0.0, 0.0, 0.0], 1.0, 3), [0.0, 0.0, 0.0]),
    }[case]
    op = OperatorSpec.fractional(1.0)
    mu = MeasureData.make(atoms=[(p, 1.0)], dom=dom)
    sol = grid_solution(assemble(op, build_grid(dom, 0.25)), mu)
    assert nonlocal_energy(sol, constant_eta(1.0), 1.0) == pytest.approx(1.0, abs=0.06)


def test_unresolvable_level_is_flagged():
    # u at the atom's node is about 36.6 at h = 2^-10, so the window of
    # n = 100 holds no node and cannot read the atom
    dom = Domain.interval(-1.0, 1.0)
    sol = integral_solution(OperatorSpec.fractional(0.5), dom,
                            MeasureData.make(atoms=[([0.0], 1.0)], dom=dom))
    with pytest.warns(UserWarning, match="n=100 .* atom's node"):
        rep = reconstruct_mu_c(sol, constant_eta(1.0), [1.0, 100.0])
    assert rep.resolvable.tolist() == [True, False]
    assert rep.values[1] == 0.0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_lattice_killing_matches_its_closed_form(alpha):
    # kappa = diag - T*1_D, the mass a row leaks past the interior, against
    # c Int_{D^c} |x - y|^(-d-alpha) dy; the error halves with h in 1-d and
    # falls about threefold per halving in 2-d
    for dom, points, widths in (
            (Domain.interval(-1.0, 1.0), [[0.0], [0.5], [-0.75]], range(8, 12)),
            (Domain.ball([0.0, 0.0], 1.0, 2), [[0.0, 0.0], [0.5, 0.0], [0.0, -0.5]], range(4, 7))):
        for k in widths:
            h = 2.0**-k
            dop = assemble(OperatorSpec.fractional(alpha), build_grid(dom, h))
            kappa = dop.apply(np.ones(dop.n))
            grid = dop.grid
            for x in points:
                node = grid.nearest_node(x)
                assert np.allclose(grid.node_points()[node], x, rtol=0.0, atol=1e-14)
                exact = killing_density(alpha, dom, np.asarray(x))
                assert abs(kappa[grid.flat_of_lattice(node)] - exact) <= 4.0 * h * exact


def test_reconstruct_report_counts_the_quadrature():
    dom = Domain.interval(-1.0, 1.0)
    sol = integral_solution(OperatorSpec.fractional(0.5), dom,
                            MeasureData.make(atoms=[([0.0], 1.0)], dom=dom))
    eta = CutoffEta(center=(0.0,), r_one=0.25, r_zero=0.75)
    rep = reconstruct_mu_c(sol, eta, [1.0, 2.0])
    assert len(rep.widths) == len(rep.unknowns) == max(map(len, rep.traces))
    for h, unknowns in zip(rep.widths, rep.unknowns):
        assert unknowns == build_grid(dom, h).n_interior
    assert rep.widths[0] == 2.0**-10 and np.all(np.diff(np.log2(rep.widths)) == -1.0)
    # the atom-free local case: rays from the disk's centre, and no quadrature
    local = reconstruct_mu_c(integral_solution(LAP, Domain.ball([0.0, 0.0], 1.0, 2),
                                               MeasureData(density=Density.constant(1.0))),
                             constant_eta(1.0), [0.1, 0.5])
    assert local.values[0] == pytest.approx(0.4 * math.pi, rel=1e-9) and local.values[1] == 0.0
    assert local.widths == local.unknowns == [] and local.resolvable.all()


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
