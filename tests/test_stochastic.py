import math

import numpy as np
import pytest
from scipy import integrate, stats

from potkit import (Domain, OperatorSpec, poisson_kernel, stable_exit, stochastic,
                    wos_exit)
from potkit.errors import ConvergenceError, SupportError
from potkit.measures import Density, MeasureData
from potkit.solve import integral_solution
from potkit.stochastic import (class_d_diagnostic, maximal_inequality_check,
                               reducing_expectation, sample_start_points,
                               stopped_values, _project_to_boundary, _level_radius,
                               _radial_profile, _rng, _walk, _walk_annulus)

LAP = OperatorSpec.laplacian()
DISK = Domain.ball([0.0, 0.0], 1.0, 2)
# the unit square without its upper-right quadrant
L_SHAPE = Domain.rectangle([(0.0, 1.0), (0.0, 1.0)],
                           mask=lambda p: ~((p[:, 0] > 0.5) & (p[:, 1] > 0.5)))
EXACT_REDUCING = 3.0 * math.log(2.0) / (8.0 * math.pi)


def test_wos_disk_center_uniform_sectors():
    pts = wos_exit(DISK, [0.0, 0.0], seed=101, n_samples=100_000)
    ang = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * math.pi)
    counts, _ = np.histogram(ang, bins=16, range=(0.0, 2 * math.pi))
    chi2 = stats.chisquare(counts)
    assert chi2.pvalue > 0.01
    assert abs(pts[:, 0].mean()) < 3.0 * pts[:, 0].std() / math.sqrt(len(pts))


@pytest.mark.parametrize("dim,x", [(2, [0.35, -0.2]), (3, [0.1, 0.4, -0.3])])
def test_wos_ball_exit_harmonic_mean(dim, x):
    # coordinates are harmonic: the exit-point mean must reproduce the start
    dom = Domain.ball([0.0] * dim, 1.0, dim)
    pts = wos_exit(dom, x, seed=7, n_samples=60_000)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9)
    for k in range(dim):
        se = pts[:, k].std() / math.sqrt(len(pts))
        assert abs(pts[:, k].mean() - x[k]) < 3.5 * se


def test_wos_interval_exact_probability():
    dom = Domain.interval(0.0, 1.0)
    pts = wos_exit(dom, [0.3], seed=5, n_samples=50_000)
    p_right = np.mean(pts[:, 0] > 0.5)
    se = math.sqrt(0.3 * 0.7 / 50_000)
    assert abs(p_right - 0.3) < 3.5 * se


def test_wos_near_boundary_concentrates():
    x = np.array([0.9, 0.0])
    pts = wos_exit(DISK, x, seed=13, n_samples=20_000)
    dist = np.linalg.norm(pts - [1.0, 0.0], axis=1)
    assert dist.mean() < DISK.diameter / 4.0
    # cross-check the mean displacement against Poisson-kernel quadrature
    val, _ = integrate.quad(
        lambda th: poisson_kernel(LAP, DISK, x, [math.cos(th), math.sin(th)])
        * np.linalg.norm([math.cos(th) - 1.0, math.sin(th)]),
        0.0, 2.0 * math.pi, limit=200)
    se = dist.std() / math.sqrt(len(dist))
    assert abs(dist.mean() - val) < 3.5 * se


def test_wos_rectangle_lands_on_boundary():
    dom = Domain.rectangle([(0.0, 1.0), (0.0, 2.0)])
    pts = wos_exit(dom, [0.4, 1.0], seed=3, n_samples=2_000)
    on_face = (np.isclose(pts[:, 0], 0.0) | np.isclose(pts[:, 0], 1.0)
               | np.isclose(pts[:, 1], 0.0) | np.isclose(pts[:, 1], 2.0))
    assert np.all(on_face)


def test_wos_masked_rectangle_rejected():
    # the walk's balls would reach into the removed quadrant
    with pytest.raises(SupportError, match="masked"):
        wos_exit(L_SHAPE, [0.45, 0.45], seed=1, n_samples=2_000)


def test_stable_exit_outside_and_symmetric():
    dom = Domain.interval(-1.0, 1.0)
    pts = stable_exit(dom, [0.0], alpha=0.5, seed=31, n_samples=20_000)
    z = pts[:, 0]
    assert np.all(np.abs(z) >= 1.0)
    p_right = np.mean(z > 0)
    assert abs(p_right - 0.5) < 3.5 * math.sqrt(0.25 / z.size)


def test_stable_exit_law_total_variation():
    # from x = 0.5 the largest ball inside (-1, 1) is not the interval, so a
    # walker takes several jumps; its landing law is the exact exit law of
    # the interval from 0.5, binned on both sides with the two tails
    dom = Domain.interval(-1.0, 1.0)
    op = OperatorSpec.fractional(0.5)
    kernel = lambda s: poisson_kernel(op, dom, [0.5], [s])
    edges = np.linspace(1.0, 3.0, 33)
    right = [integrate.quad(kernel, lo, hi)[0] for lo, hi in zip(edges[:-1], edges[1:])]
    left = [integrate.quad(kernel, -hi, -lo)[0] for lo, hi in zip(edges[:-1], edges[1:])]
    tails = [integrate.quad(kernel, 3.0, np.inf)[0],
             integrate.quad(kernel, -np.inf, -3.0)[0]]
    expect = np.array(right + left + tails)
    assert expect.sum() == pytest.approx(1.0, abs=1e-6)

    z = stable_exit(dom, [0.5], alpha=0.5, seed=41, n_samples=200_000)[:, 0]
    assert np.all(np.abs(z) >= 1.0)
    emp = np.concatenate([np.histogram(z, bins=edges)[0],
                          np.histogram(-z, bins=edges)[0],
                          [np.sum(z >= 3.0), np.sum(z <= -3.0)]]) / z.size
    assert emp.sum() == 1.0
    assert 0.5 * np.sum(np.abs(emp - expect)) <= 0.02


def test_stable_exit_ignores_dt():
    dom = Domain.interval(-1.0, 1.0)
    with_dt = stable_exit(dom, [0.5], alpha=0.5, dt=1e-3, seed=5, n_samples=2_000)
    without = stable_exit(dom, [0.5], alpha=0.5, seed=5, n_samples=2_000)
    assert np.array_equal(with_dt, without)


@pytest.mark.parametrize("alpha", [0.0, 2.0, -0.5, 2.5])
def test_stable_exit_alpha_outside_range_rejected(alpha):
    with pytest.raises(SupportError, match="alpha"):
        stable_exit(Domain.interval(-1.0, 1.0), [0.0], alpha=alpha, seed=1,
                    n_samples=10)


def test_stable_exit_beta_underflow_rejected():
    # at alpha = 0.01 some Beta(alpha/2, 1 - alpha/2) draws are exactly 0,
    # whose jump would be infinite; at alpha = 0.05 none are
    dom = Domain.interval(-1.0, 1.0)
    with pytest.raises(SupportError, match="alpha=0.01"):
        stable_exit(dom, [0.5], alpha=0.01, seed=1, n_samples=20_000)
    z = stable_exit(dom, [0.5], alpha=0.05, seed=1, n_samples=20_000)
    assert np.all(np.isfinite(z)) and np.all(np.abs(z) >= 1.0)


def test_stable_exit_masked_rectangle_rejected():
    with pytest.raises(SupportError, match="masked"):
        stable_exit(L_SHAPE, [0.45, 0.45], alpha=0.5, seed=1, n_samples=2_000)


def test_stable_exit_rectangle_lands_outside():
    # in 2-d a jump can land back inside the rectangle, so walkers take
    # several jumps; each stops at its first point outside
    dom = Domain.rectangle([(0.0, 1.0), (0.0, 2.0)])
    starts = np.tile([0.4, 1.0], (5_000, 1))
    pts = stable_exit(dom, starts, alpha=1.2, seed=3)
    assert not np.any(dom.contains(pts))
    assert np.all(starts == [0.4, 1.0])      # the walk moves a copy


def test_reducing_expectation_benchmark(disk_dirac_solution):
    est = reducing_expectation(disk_dirac_solution, k=4.0, n=1.0,
                               start=[0.5, 0.0], n_samples=50_000, seed=2)
    assert abs(est.value - EXACT_REDUCING) <= 3.0 * est.stderr
    assert est.stderr < 0.004


def test_reducing_expectation_n_at_k_zero(disk_dirac_solution):
    est = reducing_expectation(disk_dirac_solution, k=2.0, n=2.0,
                               start=[0.5, 0.0], n_samples=5_000, seed=2)
    assert est.value == 0.0


def test_reducing_k_trend_and_exhaustion(disk_dirac_solution):
    # estimates increase toward u(x) with k; escape fraction decreases
    vals, fracs = [], []
    for k in (2.0, 4.0, 8.0):
        est = reducing_expectation(disk_dirac_solution, k=k, n=1.0,
                                   start=[0.5, 0.0], n_samples=40_000, seed=9)
        vals.append(est.value)
        fracs.append(est.extra["frac_stopped_before_exit"])
    assert vals[0] < vals[1] < vals[2] + 0.01
    assert fracs[0] > fracs[1] > fracs[2]


def test_reducing_1d_interval():
    dom = Domain.interval(0.0, 1.0)
    mu = MeasureData.make(atoms=[([0.5], 1.0)], dom=dom)
    sol = integral_solution(LAP, dom, mu)
    # u is bounded by 1/4, so any k above it makes tau_k = tau_D and the
    # stopped value vanishes at the boundary
    est = reducing_expectation(sol, k=1.0, n=0.1, start=[0.25],
                               n_samples=2_000, seed=3)
    assert est.value == 0.0
    # a reachable level stops on the level points where u = k
    est2 = reducing_expectation(sol, k=0.2, n=0.1, start=[0.1],
                                n_samples=50_000, seed=3)
    # from x = 0.1: P(hit the sublevel edge before 0) = u(x)/k by the exact
    # two-point exit law; the payoff there is k - n
    u_x = sol.evaluate([0.1])
    expect = (0.2 - 0.1) * u_x / 0.2
    assert abs(est2.value - expect) <= 3.0 * est2.stderr


def test_stopped_values_determinism(disk_dirac_solution):
    a = reducing_expectation(disk_dirac_solution, k=4.0, n=1.0,
                             start=[0.5, 0.0], n_samples=10_000, seed=77)
    b = reducing_expectation(disk_dirac_solution, k=4.0, n=1.0,
                             start=[0.5, 0.0], n_samples=10_000, seed=77)
    assert a.value == b.value
    assert a.stderr == b.stderr
    assert a.extra == b.extra


def _ball_walk_annulus(center, R, r_inner, x0, rng):
    """Reference: maximal-ball walk-on-spheres in the annulus itself, with
    the same shells; returns the mask of walkers stopped at the inner sphere."""
    cur = np.array(x0, dtype=float)
    eps_out = 2e-6 * R
    eps_in = 1e-3 * r_inner

    def stop(p):
        r = np.linalg.norm(p - center, axis=1)
        return ((r - r_inner) <= eps_in) | ((R - r) <= eps_out), r

    def step(p, r):
        z = rng.standard_normal(p.shape)
        rho = np.minimum(R - r, r - r_inner)
        return rho[:, None] * z / np.linalg.norm(z, axis=1, keepdims=True)

    _walk(cur, stop, step, 100_000)
    return (np.linalg.norm(cur - center, axis=1) - r_inner) <= eps_in


def _hit_probability(d, r0, r_k):
    """P(|B| reaches r_k before 1 from |B_0| = r0), by the radial harmonic
    function: log r in the plane, -1/r in space."""
    if d == 2:
        return math.log(r0) / math.log(r_k)
    return (1.0 / r0 - 1.0) / (1.0 / r_k - 1.0)


@pytest.mark.parametrize("d,x0,r_k", [
    (2, [0.5, 0.0], math.exp(-4.0 * math.pi)),
    (2, [0.0, -0.1], math.exp(-8.0 * math.pi)),
    (2, [0.6, 0.6], math.exp(-16.0 * math.pi)),
    (2, [0.5, 0.0], math.exp(-32.0 * math.pi)),
    (2, [0.05, 0.0], math.exp(-32.0 * math.pi)),
    (3, [0.5, 0.0, 0.0], 0.02),
    (3, [0.0, 0.3, -0.3], 0.1),
    (3, [0.0, 0.0, 0.5], 0.3)])
def test_walk_annulus_hit_frequency(d, x0, r_k):
    # k = 2, 4, 8, 16 and 16 in the plane; three radii in space
    n = 40_000
    hit, _ = _walk_annulus(np.zeros(d), 1.0, r_k, np.tile(x0, (n, 1)), _rng(5))
    p = _hit_probability(d, np.linalg.norm(x0), r_k)
    assert abs(hit.mean() - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)


@pytest.mark.parametrize("d,x0,r_k", [(2, [0.5, 0.0], math.exp(-4.0 * math.pi)),
                                      (3, [0.5, 0.0, 0.0], 0.1)])
def test_walk_annulus_matches_ball_walk(d, x0, r_k):
    n = 20_000
    starts = np.tile(x0, (n, 1))
    new, _ = _walk_annulus(np.zeros(d), 1.0, r_k, starts, _rng(8))
    ref = _ball_walk_annulus(np.zeros(d), 1.0, r_k, starts, _rng(9))
    p, q = new.mean(), ref.mean()
    assert abs(p - q) <= 3.0 * math.sqrt((p * (1.0 - p) + q * (1.0 - q)) / n)


def test_reducing_expectation_3d_ball():
    ball = Domain.ball([0.0, 0.0, 0.0], 1.0, 3)
    sol = integral_solution(LAP, ball, MeasureData.make(atoms=[([0.0, 0.0, 0.0], 1.0)],
                                                        dom=ball))
    k, n, r0 = 4.0, 1.0, 0.5
    est = reducing_expectation(sol, k=k, n=n, start=[0.0, r0, 0.0],
                               n_samples=50_000, seed=6)
    # u = (1/r - 1)/(4 pi), so u = k on 1/r_k - 1 = 4 pi k
    exact = (k - n) * (1.0 / r0 - 1.0) / (4.0 * math.pi * k)
    assert abs(est.value - exact) <= 3.0 * est.stderr
    assert est.extra["walk_iterations"] > 0


def test_reducing_walk_step_count(disk_dirac_solution, monkeypatch):
    # the radial walk needs O(log 1/eps) steps, not (2 pi k)^2: at k = 16 the
    # maximal-ball walk in the annulus took 23,117 loop iterations on these inputs
    calls = _count_directions(monkeypatch)
    est = reducing_expectation(disk_dirac_solution, k=16.0, n=1.0, start=[0.5, 0.0],
                               n_samples=20_000, seed=3)
    assert len(calls) < 500
    assert est.extra["walk_iterations"] == len(calls)
    assert est.extra["path_steps"] == sum(calls)


def test_level_radius_resolution_guard(disk_dirac_solution):
    _, profile = _radial_profile(disk_dirac_solution)
    assert _level_radius(profile, 1.0, 16.0) == pytest.approx(math.exp(-32.0 * math.pi),
                                                             rel=1e-12)
    # e^{-200 pi} is below the smallest radius the profile resolves
    with pytest.raises(SupportError, match="k=100"):
        reducing_expectation(disk_dirac_solution, k=100.0, n=1.0, start=[0.5, 0.0],
                             n_samples=1, seed=0)


def test_stopped_values_unreached_level_draws_nothing():
    # the (1 - r^2)/4 potential never reaches k = 0.3: every walker stops at
    # once with value 0, and the generator is left untouched
    sol = integral_solution(LAP, DISK, MeasureData(density=Density.constant(1.0)))
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    vals, counts = stopped_values(sol, 0.3, np.array([[0.1, 0.2], [-0.4, 0.0]]), rng)
    assert np.all(vals == 0.0)
    assert counts == (0, 0)
    assert rng.bit_generator.state == before


def test_stopped_values_start_inside_level_set():
    # (1 - r^2)/4 exceeds k = 0.2 on r < r_k = sqrt(0.2): a start there has
    # tau_k = 0, keeps u(x0) and draws nothing, so the walker that does
    # move gets the same draws as it would alone
    sol = integral_solution(LAP, DISK, MeasureData(density=Density.constant(1.0)))
    r_k = math.sqrt(0.2)
    starts = np.array([[0.5 * r_k, 0.0], [0.0, -0.3], [0.8, 0.0]])
    vals, _ = stopped_values(sol, 0.2, starts, np.random.default_rng(3))
    assert vals[:2] == pytest.approx((1.0 - np.sum(starts[:2] ** 2, axis=1)) / 4.0,
                                     rel=1e-12)
    assert vals[0] == pytest.approx(0.2375, rel=1e-12)
    alone, _ = stopped_values(sol, 0.2, starts[2:], np.random.default_rng(3))
    assert vals[2] == alone[0]
    assert alone[0] in (0.0, 0.2)


def test_stderr_scaling(disk_dirac_solution):
    # stderr ~ N^{-1/2} within a factor 1.5 across decades
    errs = []
    for N in (1_000, 10_000, 100_000):
        est = reducing_expectation(disk_dirac_solution, k=4.0, n=1.0,
                                   start=[0.5, 0.0], n_samples=N, seed=55)
        errs.append(est.stderr)
    for i in range(2):
        ratio = errs[i] / errs[i + 1]
        assert math.sqrt(10.0) / 1.5 < ratio < math.sqrt(10.0) * 1.5


def test_class_d_estimates_nonincreasing(disk_dirac_solution):
    diag = class_d_diagnostic(disk_dirac_solution, family=[2.0, 4.0],
                              levels=[0.25, 0.5, 1.0],
                              rho=lambda p: np.full(len(p), 1 / math.pi),
                              n_samples=5_000, seed=12)
    assert np.all(np.diff(diag.table, axis=0) <= 1e-12)
    assert diag.verdict == "not-class-D"
    assert diag.limit_basis == "1/k extrapolation"


def test_class_d_bounded_exact_zeros():
    sol = integral_solution(LAP, DISK, MeasureData(density=Density.constant(1.0)))
    diag = class_d_diagnostic(sol, family=[0.05, 0.1, 0.2],
                              levels=[0.1, 0.3, 0.5],
                              rho=lambda p: np.full(len(p), 1 / math.pi),
                              n_samples=5_000, seed=12)
    assert diag.verdict == "class-D"
    assert np.all(diag.estimates[1:] == 0.0)
    # sup u = 1/4, so every k > 1/4 stops at the boundary value 0: the limit
    # in k is 0, whatever a fit in 1/k to k <= 0.2 would give
    assert diag.table[0, -1] > 0.0
    assert (diag.limit_estimate, diag.limit_stderr) == (0.0, 0.0)
    assert diag.limit_basis == "exact zero (bounded potential)"


def test_maximal_inequality_presets():
    sol = integral_solution(LAP, DISK, MeasureData(density=Density.constant(1.0)))
    est = maximal_inequality_check(sol, d1_value=0.125,
                                   rho=lambda p: np.full(len(p), 1 / math.pi),
                                   n_samples=5_000, seed=8)
    assert est.extra["passed"]
    assert est.extra["bound"] == pytest.approx(2.0 * math.sqrt(0.125))
    dom = Domain.interval(0.0, 1.0)
    soli = integral_solution(LAP, dom, MeasureData.make(atoms=[([0.5], 1.0)],
                                                        dom=dom))
    esti = maximal_inequality_check(soli, d1_value=0.125,
                                    rho=lambda p: np.ones(len(p)),
                                    n_samples=5_000, seed=8)
    assert esti.extra["passed"]


def _count_directions(monkeypatch):
    """Record the walker count of every ``_unit_directions`` draw: one per
    loop iteration of a walk."""
    calls = []
    draw = stochastic._unit_directions
    monkeypatch.setattr(stochastic, "_unit_directions",
                        lambda rng, n, d: calls.append(n) or draw(rng, n, d))
    return calls


def test_class_d_reports_walk_counts(disk_dirac_solution, monkeypatch):
    calls = _count_directions(monkeypatch)
    diag = class_d_diagnostic(disk_dirac_solution, family=[2.0, 4.0],
                              levels=[0.25, 0.5],
                              rho=lambda p: np.full(len(p), 1 / math.pi),
                              n_samples=2_000, seed=12)
    assert diag.walk_iterations == len(calls) > 0
    assert diag.path_steps == sum(calls)


def test_maximal_reports_walk_counts(monkeypatch):
    sol = integral_solution(LAP, DISK, MeasureData(density=Density.constant(1.0)))
    calls = _count_directions(monkeypatch)
    est = maximal_inequality_check(sol, d1_value=0.125,
                                   rho=lambda p: np.full(len(p), 1 / math.pi),
                                   n_samples=1_000, seed=8)
    assert est.extra["walk_iterations"] == len(calls) > 0
    assert est.extra["path_steps"] == sum(calls)


def test_maximal_masked_rectangle_rejected():
    from potkit.geometry import build_grid
    sol = integral_solution(LAP, L_SHAPE, MeasureData(density=Density.constant(1.0)),
                            grid=build_grid(L_SHAPE, 2.0**-4))
    with pytest.raises(SupportError, match="masked"):
        maximal_inequality_check(sol, d1_value=0.1, rho=lambda p: np.ones(len(p)),
                                 n_samples=100, seed=1)


def test_maximal_zero_solution():
    sol = integral_solution(LAP, DISK, MeasureData())
    est = maximal_inequality_check(sol, d1_value=0.0,
                                   rho=lambda p: np.full(len(p), 1 / math.pi),
                                   n_samples=500, seed=8)
    assert est.value == 0.0
    assert est.extra["passed"]


def test_sample_start_points_inside():
    rng = _rng(3)
    pts = sample_start_points(DISK, lambda p: np.full(len(p), 1 / math.pi),
                              5_000, rng)
    assert np.all(DISK.contains(pts))


def test_radial_machinery_guards():
    mu = MeasureData.make(atoms=[([0.3, 0.0], 1.0)], dom=DISK)
    sol = integral_solution(LAP, DISK, mu)
    with pytest.raises(SupportError):
        stopped_values(sol, 2.0, np.array([[0.5, 0.0]]), _rng(1))


def test_stable_walk_start_outside_rejected():
    dom = Domain.interval(-1.0, 1.0)
    with pytest.raises(SupportError):
        stable_exit(dom, [2.0], alpha=0.5, seed=1, n_samples=10)


def _mask_walk(cur, stop, step, max_iters, on_step=None):
    """Reference walker loop: re-masks all n walkers on every iteration."""
    active = np.ones(cur.shape[0], dtype=bool)
    path_steps = 0
    for it in range(max_iters):
        stopped, quantity = stop(cur[active])
        active[active] = ~stopped
        if not active.any():
            return it, path_steps
        new = cur[active] + step(cur[active],
                                 None if quantity is None else quantity[~stopped])
        cur[active] = new
        path_steps += new.shape[0]
        if on_step is not None:
            on_step(np.flatnonzero(active), new)
    raise ConvergenceError("reference walk exceeded its budget")


def _walk_outputs(disk_dirac_solution):
    """Every sampler that walks to an exit, on small seeded inputs."""
    uniform_disk = lambda p: np.full(len(p), 1 / math.pi)
    bounded = integral_solution(LAP, DISK, MeasureData(density=Density.constant(1.0)))
    unit = Domain.interval(0.0, 1.0)
    atom = integral_solution(LAP, unit, MeasureData.make(atoms=[([0.5], 1.0)], dom=unit))
    rect = Domain.rectangle([(0.0, 1.0), (0.0, 2.0)])
    red = reducing_expectation(disk_dirac_solution, k=4.0, n=1.0, start=[0.5, 0.0],
                               n_samples=2_000, seed=4)
    diag = class_d_diagnostic(disk_dirac_solution, family=[2.0, 4.0],
                              levels=[0.25, 0.5], rho=uniform_disk,
                              n_samples=2_000, seed=4)
    max_disk = maximal_inequality_check(bounded, d1_value=0.125, rho=uniform_disk,
                                        n_samples=1_000, seed=4)
    max_int = maximal_inequality_check(atom, d1_value=0.125,
                                       rho=lambda p: np.ones(len(p)),
                                       n_samples=1_000, seed=4)
    return [wos_exit(rect, [0.4, 1.0], seed=4, n_samples=500),
            np.array([red.value, red.stderr, red.extra["frac_stopped_before_exit"],
                      red.extra["walk_iterations"], red.extra["path_steps"]]),
            diag.table, diag.stderrs,
            np.array([max_disk.value, max_disk.stderr, max_int.value, max_int.stderr]),
            stable_exit(Domain.interval(-1.0, 1.0), [0.5], alpha=0.5, seed=4,
                        n_samples=500)]


def test_walk_matches_full_mask_reference(disk_dirac_solution, monkeypatch):
    # compacting the live set must keep every draw's order and size
    fast = _walk_outputs(disk_dirac_solution)
    monkeypatch.setattr("potkit.stochastic._walk", _mask_walk)
    ref = _walk_outputs(disk_dirac_solution)
    for a, b in zip(fast, ref):
        assert np.array_equal(a, b)


def test_walk_budget_raises():
    cur = np.zeros((3, 2))
    with pytest.raises(ConvergenceError):
        _walk(cur, lambda p: (np.zeros(len(p), dtype=bool), None),
              lambda p, _: np.ones_like(p), max_iters=5)
    assert np.array_equal(cur, np.full((3, 2), 5.0))


def _project_loop(dom, pts):
    out = pts.copy()
    for i, p in enumerate(out):
        faces = []
        for k, (lo, hi) in enumerate(dom.bounds):
            faces.append((p[k] - lo, k, lo))
            faces.append((hi - p[k], k, hi))
        _, k, val = min(faces, key=lambda t: t[0])
        out[i, k] = val
    return out


@pytest.mark.parametrize("bounds", [[(0.0, 1.0), (0.0, 2.0)],
                                    [(0.0, 1.0), (-1.0, 1.0), (0.0, 0.5)]])
def test_project_to_boundary_matches_loop(bounds):
    dom = Domain.rectangle(bounds)
    rng = _rng(6)
    lo, hi = np.asarray(bounds).T
    # a coarse lattice makes ties between faces common
    pts = lo + (hi - lo) * rng.integers(0, 9, size=(2_000, len(bounds))) / 8.0
    assert np.array_equal(_project_to_boundary(dom, pts), _project_loop(dom, pts))
