import math

import numpy as np
import pytest
from scipy import integrate

from potkit import (Domain, OperatorSpec, assemble, build_grid, green, grid_solution,
                    integral_solution, killing_density)
from potkit.kernels import frac_torsion_constant
from potkit.measures import Density, MeasureData, deposit
from potkit.errors import SupportError, UnsupportedKernelError
from potkit.solve import DensityPotential, l1_rho_norm, level_radius

LAP = OperatorSpec.laplacian()


def test_interval_dirac_value():
    dom = Domain.interval(0.0, 1.0)
    mu = MeasureData.make(atoms=[([0.5], 1.0)], dom=dom)
    sol = integral_solution(LAP, dom, mu)
    assert sol.evaluate([0.25]) == pytest.approx(0.125, abs=1e-15)


def test_disk_dirac_profile(disk_dirac_solution):
    val = disk_dirac_solution.evaluate([0.5, 0.0])
    assert val == pytest.approx(math.log(2.0) / (2.0 * math.pi), rel=1e-12)
    # radial: distance only
    assert disk_dirac_solution.evaluate([0.0, 0.5]) == pytest.approx(val, rel=1e-12)
    # vanishes off the domain, +inf at the concentrated atom
    assert disk_dirac_solution.evaluate([2.0, 0.0]) == 0.0
    assert np.isinf(disk_dirac_solution.evaluate([0.0, 0.0]))


def test_zero_measure():
    dom = Domain.interval(0.0, 1.0)
    sol = integral_solution(LAP, dom, MeasureData())
    x = np.linspace(0.05, 0.95, 7).reshape(-1, 1)
    assert np.allclose(sol.evaluate(x), 0.0)


def test_potential_disk_uniform():
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    pot = integral_solution(LAP, dom, MeasureData(density=Density.constant(1.0 / math.pi)))
    assert pot.evaluate([0.0, 0.0]) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)


def test_potential_interval_unit():
    dom = Domain.interval(0.0, 1.0)
    pot = integral_solution(LAP, dom, MeasureData(density=Density.constant(1.0)))
    assert pot.evaluate([0.5]) == pytest.approx(0.125, rel=1e-12)
    assert pot.evaluate([0.25]) == pytest.approx(0.25 * 0.75 / 2.0, rel=1e-12)


def test_linearity_closed_path():
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    m1 = MeasureData.make(atoms=[([0.3, 0.0], 1.0)], dom=dom)
    m2 = MeasureData.make(atoms=[([-0.2, 0.4], -0.5)], dom=dom)
    m12 = MeasureData.make(atoms=[([0.3, 0.0], 1.0), ([-0.2, 0.4], -0.5)], dom=dom)
    pts = np.array([[0.0, 0.0], [0.5, 0.1], [-0.4, -0.4]])
    u1 = integral_solution(LAP, dom, m1).evaluate(pts)
    u2 = integral_solution(LAP, dom, m2).evaluate(pts)
    u12 = integral_solution(LAP, dom, m12).evaluate(pts)
    assert np.allclose(u12, u1 + u2, rtol=1e-13)


def test_linearity_discrete_path():
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    dop = assemble(LAP, build_grid(dom, 2.0**-4))
    m1 = MeasureData.make(atoms=[([0.25, 0.0], 1.0)], dom=dom)
    m2 = MeasureData(density=Density.constant(1.0))
    m12 = MeasureData.make(atoms=[([0.25, 0.0], 1.0)],
                           density=Density.constant(1.0), dom=dom)
    u1 = grid_solution(dop, m1).grid_field
    u2 = grid_solution(dop, m2).grid_field
    u12 = grid_solution(dop, m12).grid_field
    assert np.max(np.abs(u12.values - u1.values - u2.values)) < 1e-10


def test_positivity_discrete():
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    mu = MeasureData.make(atoms=[([0.25, 0.25], 2.0)],
                          density=Density.constant(0.5), dom=dom)
    sol = grid_solution(assemble(LAP, build_grid(dom, 2.0**-4)), mu)
    assert np.all(sol.grid_field.values >= -1e-14)


def test_bounded_density_bound():
    # |u| <= ||R^D 1||_inf ||f||_inf = f_max / 4 on the unit disk
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    dens = Density.gaussian(3.0, 0.4, [0.0, 0.0])
    sol = integral_solution(LAP, dom, MeasureData(density=dens))
    r = np.linspace(0.0, 0.99, 50)
    pts = np.column_stack([r, np.zeros_like(r)])
    vals = sol.evaluate(pts)
    assert np.all(np.abs(vals) <= 3.0 / 4.0 + 1e-12)
    assert np.all(vals >= 0)


def test_domination_transfer():
    # |mu| <= nu componentwise implies |u_mu| <= R^D nu on nodes
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    dop = assemble(LAP, build_grid(dom, 2.0**-4))
    mu = MeasureData.make(atoms=[([0.25, 0.0], 1.0), ([-0.3, 0.2], -0.7)], dom=dom)
    nu = MeasureData.make(atoms=[([0.25, 0.0], 1.0), ([-0.3, 0.2], 0.7)], dom=dom)
    u = grid_solution(dop, mu).grid_field
    Rnu = grid_solution(dop, nu).grid_field
    assert np.all(np.abs(u.values) <= Rnu.values + 1e-12)


def test_gaussian_radial_potential_oracle():
    # independent check: R^D f (x0) by direct quadrature of the kernel
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    dens = Density.gaussian(1.0, 0.35, [0.0, 0.0])
    sol = integral_solution(LAP, dom, MeasureData(density=dens))
    x0 = np.array([0.4, 0.0])

    def integrand(r, th):
        y = np.array([r * math.cos(th), r * math.sin(th)])
        return green(LAP, dom, x0, y) * float(dens(y.reshape(1, -1))[0]) * r

    val, _ = integrate.dblquad(integrand, 0.0, 2.0 * math.pi,
                               lambda _: 0.0, lambda _: 1.0, epsabs=1e-10)
    assert sol.evaluate(x0) == pytest.approx(val, rel=1e-10)


def test_density_potential_ball_3d_constant_density():
    ball = Domain.ball([0.0, 0.0, 0.0], 1.0, 3)
    pot = DensityPotential(LAP, ball, Density.constant(1.0))
    r = np.array([0.0, 0.1, 0.37, 0.5, 0.8, 0.99, 1.0])
    pts = np.outer(r, [0.6, 0.0, 0.8])
    assert np.allclose(pot(pts), (1.0 - r**2) / 6.0, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("dom", [Domain.interval(-1.0, 1.0),
                                 Domain.ball([0.0, 0.0], 1.0, 2),
                                 Domain.ball([0.0, 0.0, 0.0], 1.0, 3)],
                         ids=["d1", "d2", "d3"])
def test_gaussian_potential_matches_radial_oracle(dom):
    """u(r) = Int_r^R M(t) / t^(d-1) dt and u'(r) = -M(r) / r^(d-1), with
    M(r) = Int_0^r t^(d-1) f the Gaussian's radial mass, by nested quad."""
    d, v, sigma = dom.dim, 1.3, 0.35
    sol = integral_solution(LAP, dom, MeasureData(
        density=Density.gaussian(v, sigma, [0.0] * d)))

    def mass(r):
        return integrate.quad(lambda t: t ** (d - 1) * v * math.exp(-t * t / (2 * sigma**2)),
                              0.0, r, epsabs=1e-15, epsrel=1e-13)[0]

    e = np.eye(d)[-1]
    for r in [0.0, 1e-9, 1e-4, 0.1, 0.37, 0.5, 0.8, 0.99]:
        u = integrate.quad(lambda t: mass(t) / t ** (d - 1) if t > 0 else 0.0, r, 1.0,
                           epsabs=1e-15, epsrel=1e-13)[0]
        du = -mass(r) / r ** (d - 1) if r > 0 else 0.0
        assert abs(sol.evaluate(r * e[None])[0] - u) <= 1e-12
        assert np.max(np.abs(sol.gradient(r * e[None])[0] - du * e)) <= 1e-12


def _central_difference(sol, pts, eps):
    out = np.zeros_like(pts)
    for k in range(pts.shape[1]):
        step = np.zeros(pts.shape[1])
        step[k] = eps
        out[:, k] = (sol.evaluate(pts + step) - sol.evaluate(pts - step)) / (2 * eps)
    return out


_DISK = Domain.ball([0.0, 0.0], 1.0, 2)
_BALL = Domain.ball([0.0, 0.0, 0.0], 1.0, 3)
_INTERVAL = Domain.interval(-1.0, 1.0)


@pytest.mark.parametrize("dom, mu, pts, eps, atol", [
    # radial density: DensityPotential.gradient in closed form
    (_DISK, MeasureData(density=Density.gaussian(1.0, 0.35, [0.0, 0.0])),
     [[0.3, 0.2], [-0.5, 0.1], [0.0, -0.7]], 1e-5, 1e-8),
    # constant density next to an off-centre atom: the density's gradient
    # and the atom's Kelvin image, both analytic
    (_DISK, MeasureData.make(atoms=[([0.2, 0.1], 1.0)], density=Density.constant(2.0),
                             dom=_DISK),
     [[0.5, 0.3], [-0.4, -0.2], [0.1, 0.6]], 1e-5, 1e-8),
    # the 3-d Newton kernel with its reflected pole, and an atom at the centre
    (_BALL, MeasureData.make(atoms=[([0.2, 0.0, 0.1], 1.0)], dom=_BALL),
     [[0.5, 0.3, 0.0], [-0.4, -0.2, 0.1], [0.1, 0.6, -0.3]], 1e-5, 1e-8),
    (_BALL, MeasureData.make(atoms=[([0.0, 0.0, 0.0], 1.0)], dom=_BALL),
     [[0.5, 0.3, 0.0], [0.0, 0.0, -0.4]], 1e-5, 1e-8),
    # an interval: the atom's piecewise-linear Green function, the constant
    # density's parabola and a radial density's profile, all analytic
    (_INTERVAL, MeasureData.make(atoms=[([0.3], 1.0)], density=Density.constant(2.0),
                                 dom=_INTERVAL),
     [[-0.6], [0.1], [0.7]], 1e-5, 1e-8),
    (_INTERVAL, MeasureData(density=Density.gaussian(1.0, 0.35, [0.0])),
     [[-0.6], [0.1], [0.7]], 1e-5, 1e-8),
    (_BALL, MeasureData(density=Density.gaussian(1.0, 0.35, [0.0, 0.0, 0.0])),
     [[0.5, 0.3, 0.0], [-0.4, -0.2, 0.1], [0.1, 0.6, -0.3]], 1e-5, 1e-8),
])
def test_gradient_matches_central_differences(dom, mu, pts, eps, atol):
    sol = integral_solution(LAP, dom, mu)
    pts = np.asarray(pts)
    assert np.allclose(sol.gradient(pts), _central_difference(sol, pts, eps),
                       rtol=0.0, atol=atol)


@pytest.mark.parametrize("op, dom, mu", [
    (OperatorSpec.fractional(0.5), _INTERVAL,
     MeasureData.make(atoms=[([0.5], 1.0)], dom=_INTERVAL)),
    (OperatorSpec.fractional(0.5), _DISK,
     MeasureData.make(atoms=[([0.0, 0.0], 1.0)], dom=_DISK)),
])
def test_gradient_outside_2d_3d_laplacian_raises(op, dom, mu):
    sol = integral_solution(op, dom, mu)
    with pytest.raises(SupportError, match="gradient"):
        sol.gradient(np.full((1, dom.dim), 0.25))


@pytest.mark.parametrize("op, dom", [
    (LAP, Domain.rectangle([(0.0, 1.0), (0.0, 1.0)])),
    (OperatorSpec.divergence(lambda p: np.ones(len(p)), 1.0, 1.0), _DISK),
])
def test_integral_solution_without_closed_form_names_grid_solution(op, dom):
    with pytest.raises(UnsupportedKernelError, match="grid_solution"):
        integral_solution(op, dom, MeasureData(density=Density.constant(1.0)))


def test_grid_solution_takes_operator_and_domain_from_dop():
    # a divergence-form operator cannot be labelled as another's solution
    div = OperatorSpec.divergence(lambda p: np.full(len(p), 2.0), 2.0, 2.0)
    dop = assemble(div, build_grid(_DISK, 2.0**-3))
    mu = MeasureData.make(atoms=[([0.0, 0.0], 1.0)], dom=_DISK)
    sol = grid_solution(dop, mu)
    assert sol.op is div and sol.dom is _DISK and not sol.closed
    assert sol.measure is mu and len(sol.decomposition.concentrated.atoms) == 1
    assert np.array_equal(sol.grid_field.interior_values(),
                          dop.solve(deposit(mu, dop.grid)))


def test_max_interior_reads_a_grid_solution():
    sol = grid_solution(assemble(LAP, build_grid(_DISK, 2.0**-4)),
                        MeasureData(density=Density.constant(1.0)))
    # interpolation never exceeds the largest node value, which the staircase
    # disk puts a few percent above the 1/4 of u = (1 - r^2)/4
    top = np.max(sol.grid_field.interior_values())
    assert 0.99 * top <= sol.max_interior() <= top
    assert top == pytest.approx(0.25, rel=0.05)


def test_fractional_constant_density_closed_form():
    alpha = 0.5
    op = OperatorSpec.fractional(alpha)
    dom = Domain.interval(-1.0, 1.0)
    sol = integral_solution(op, dom, MeasureData(density=Density.constant(1.0)))
    C = frac_torsion_constant(alpha, 1)
    for x in (0.0, 0.6):
        assert sol.evaluate([x]) == pytest.approx(
            (1.0 - x * x) ** (alpha / 2.0) / C, rel=1e-12)


def test_discrete_interpolation_matches_nodes():
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    grid = build_grid(dom, 2.0**-4)
    mu = MeasureData(density=Density.constant(1.0))
    sol = grid_solution(assemble(LAP, grid), mu)
    pts = grid.interior_points()[::17]
    direct = sol.grid_field.values[grid.interior_mask][::17]
    assert np.allclose(sol.evaluate(pts), direct, atol=1e-12)


def test_grid_solution_vanishes_off_domain():
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    sol = grid_solution(assemble(LAP, build_grid(dom, 2.0**-4)),
                        MeasureData(density=Density.constant(1.0)))
    # both points lie in cells with interior corners, outside the disk
    assert np.array_equal(sol.evaluate([[0.72, 0.72], [0.9, 0.45]]), [0.0, 0.0])
    assert sol.evaluate([0.0, 0.0]) > 0.0


def test_grid_solution_reads_flat_1d_points():
    dom = Domain.interval(0.0, 1.0)
    mu = MeasureData.make(atoms=[([0.5], 1.0)], dom=dom)
    sol = grid_solution(assemble(LAP, build_grid(dom, 0.125)), mu)
    # a flat array of 1-d points reads like a column, as on the closed path
    x = np.array([0.25, 0.5, 0.75])
    assert np.array_equal(sol.evaluate(x), sol.evaluate(x.reshape(-1, 1)))
    assert np.allclose(sol.evaluate(x), [0.125, 0.25, 0.125], atol=1e-12)


def test_l1_rho_norm_of_grid_solution_on_another_grid():
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    mu = MeasureData(density=Density.constant(1.0))
    sol = grid_solution(assemble(LAP, build_grid(dom, 2.0**-4)), mu)
    grid = build_grid(dom, 2.0**-5)
    val = l1_rho_norm(sol, np.full(grid.n_interior, 1.0 / math.pi), grid)
    # u = (1 - r^2)/4 against rho = 1/pi: 1/8
    assert val == pytest.approx(0.125, rel=0.1)


def test_l1_rho_norm_matches_quadrature(disk_dirac_solution):
    grid = build_grid(disk_dirac_solution.dom, 2.0**-5)
    rho = np.full(grid.n_interior, 1.0 / math.pi)
    val = l1_rho_norm(disk_dirac_solution, rho, grid)
    assert val == pytest.approx(1.0 / (4.0 * math.pi), rel=0.05)


def test_ball_1d_matches_interval():
    """The 1d ball and the interval with the same endpoints are one domain:
    the killing density and a radial-density potential agree exactly."""
    ball, interval = Domain.ball([0.0], 1.0, 1), Domain.interval(-1.0, 1.0)
    x = np.linspace(-0.95, 0.95, 39)
    assert np.array_equal(killing_density(0.5, ball, x), killing_density(0.5, interval, x))
    mu = MeasureData.make(density=Density.gaussian(2.0, 0.3, [0.0]))
    pts = x.reshape(-1, 1)
    u_ball = integral_solution(LAP, ball, mu).evaluate(pts)
    assert np.array_equal(u_ball, integral_solution(LAP, interval, mu).evaluate(pts))
    assert np.all(u_ball > 0.0)


def _ray(sol, p, direction):
    p, direction = np.asarray(p, dtype=float), np.asarray(direction, dtype=float)
    return lambda r: sol.evaluate(p + np.outer(r, direction))


def _assert_crossing(profile, r, k):
    """u(r) <= k at the returned radius and u > k one double inside it."""
    u_r, u_inside = profile(np.array([r, math.nextafter(r, 0.0)]))
    assert u_r <= k < u_inside


def test_level_radius_interval_tent():
    # the unit-interval Dirac at 1/2 is the tent u = (1/2 - r) / 2 at distance r
    unit = Domain.interval(0.0, 1.0)
    sol = integral_solution(LAP, unit, MeasureData.make(atoms=[([0.5], 1.0)], dom=unit))
    tent = _ray(sol, [0.5], [1.0])
    r, = level_radius(tent, [0.5], 0.125)
    assert r == pytest.approx(0.25, rel=1e-15)
    _assert_crossing(tent, r, 0.125)
    # above the peak 1/4 nothing is reached; at a tiny level all of (0, R)
    assert level_radius(tent, [0.5], 0.3)[0] == 0.0
    assert level_radius(tent, [0.5], 1e-14)[0] == 0.5


@pytest.mark.parametrize("direction", [[1.0, 0.0], [-1.0, 0.0], [0.6, 0.8]])
def test_level_radius_ray_from_off_centre_atom(disk, direction):
    # p + r dir rounds to p for the smallest radii, where u = +inf: the
    # bisection reads only the sign of u - k and still finds the crossing
    p = [0.3, 0.0]
    sol = integral_solution(LAP, disk, MeasureData.make(atoms=[(p, 1.0)], dom=disk))
    u_ray = _ray(sol, p, direction)
    assert np.isinf(u_ray([1e-280])[0])
    b = float(np.dot(p, direction))
    r_hi = -b + math.sqrt(b * b - (0.09 - 1.0))
    for k in (0.25, 1.0, 2.0):
        r, = level_radius(u_ray, [r_hi], k)
        assert 0.0 < r < r_hi
        _assert_crossing(u_ray, r, k)
    # at k = 4 the crossing lies near r = 1e-11, where the points p + r dir
    # are 5.6e-17 apart and u moves in steps of about 1e-6
    with pytest.raises(SupportError, match="k=4"):
        level_radius(u_ray, [r_hi], 4.0)


def _ray_rows(sol, origins, dirs):
    """The profile of rays from each row of ``origins`` along each row of
    ``dirs``: an (m, j) array of radii -> u there."""
    return lambda r: sol.evaluate(
        (origins[:, None, :] + r[:, :, None] * dirs[:, None, :]).reshape(-1, 2))


def _counted(profile, calls):
    def wrapped(r):
        calls.append(r.shape)
        return profile(r)
    return wrapped


def _off_centre_batch(disk):
    """64 rays from the atom at (0.3, 0), out to the disk's diameter, except
    that row 0 starts off the disk (u = 0 on it: resolved at 0) and row 1 ends
    at 1e-6 (u > 1 there: resolved at R)."""
    p = [0.3, 0.0]
    sol = integral_solution(LAP, disk, MeasureData.make(atoms=[(p, 1.0)], dom=disk))
    th = (np.arange(64) + 0.5) * 2.0 * math.pi / 64
    dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
    origins = np.tile(p, (64, 1))
    origins[0] = [2.0, 0.0]
    dirs[0] = [1.0, 0.0]
    R = np.full(64, disk.diameter)
    R[1] = 1e-6
    return sol, origins, dirs, R


def test_level_radius_batch_matches_one_row_calls(disk):
    sol, origins, dirs, R = _off_centre_batch(disk)
    r = level_radius(_ray_rows(sol, origins, dirs), R, 1.0)
    rows = [level_radius(_ray_rows(sol, origins[i:i + 1], dirs[i:i + 1]), R[i:i + 1], 1.0)[0]
            for i in range(64)]
    assert [x.hex() for x in r] == [float(x).hex() for x in rows]
    assert r[0] == 0.0 and r[1] == 1e-6
    assert np.all((r[2:] > 0.0) & (r[2:] < 1.0))


def test_level_radius_batch_takes_no_more_profile_calls_than_one_row(disk):
    sol, origins, dirs, R = _off_centre_batch(disk)
    batch = []
    level_radius(_counted(_ray_rows(sol, origins, dirs), batch), R, 1.0)
    per_row = []
    for i in range(64):
        calls = []
        level_radius(_counted(_ray_rows(sol, origins[i:i + 1], dirs[i:i + 1]), calls),
                     R[i:i + 1], 1.0)
        per_row.append(len(calls))
    # one call covers all 64 rows; the rows resolved at 0 or R take one call
    assert all(shape[0] == 64 for shape in batch)
    assert per_row[0] == per_row[1] == 1
    assert len(batch) == max(per_row) > 2


def test_level_radius_unresolved_level_raises(disk_dirac_solution):
    # u = -log(r) / (2 pi) reaches k = 100 only at r = e^{-200 pi}, below the
    # radius where |x|^2 underflows
    centre = _ray(disk_dirac_solution, [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(SupportError, match="k=100"):
        level_radius(centre, [1.0], 100.0)
