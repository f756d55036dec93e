import math

import numpy as np
import pytest
from scipy import integrate

from potkit import (Domain, OperatorSpec, assemble, build_grid, poisson_kernel,
                    stable_exit, stochastic)
from potkit.config import build_domain, build_measure, build_rho
from potkit.errors import ConvergenceError, DimensionMismatchError, SupportError
from potkit.measures import Density, MeasureData
from potkit.presets import get_preset
from potkit.solve import grid_solution, integral_solution, level_radius
from potkit.stochastic import (class_d_diagnostic, maximal_inequality_check,
                               reducing_expectation, sample_start_points,
                               stopped_values, _radial_profile)

LAP = OperatorSpec.laplacian()
DISK = Domain.ball([0.0, 0.0], 1.0, 2)
# the unit square without its upper-right quadrant
L_SHAPE = Domain.rectangle([(0.0, 1.0), (0.0, 1.0)],
                           mask=lambda p: ~((p[:, 0] > 0.5) & (p[:, 1] > 0.5)))
EXACT_REDUCING = 3.0 * math.log(2.0) / (8.0 * math.pi)


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


def test_stable_exit_n_samples_needs_one_start():
    # n_samples repeats a single start; with 3 starts it once returned 3
    # landings and said nothing
    rng = np.random.default_rng(2)
    before = rng.bit_generator.state
    with pytest.raises(SupportError, match="n_samples=5 repeats one start, but 3"):
        stable_exit(Domain.interval(-1.0, 1.0), [[0.0], [0.2], [-0.5]], alpha=0.5,
                    seed=rng, n_samples=5)
    assert rng.bit_generator.state == before


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

    _mask_walk(cur, stop, step, 100_000)
    return (np.linalg.norm(cur - center, axis=1) - r_inner) <= eps_in


def _hit_probability(d, r0, r_k):
    """P(|B| reaches r_k before 1 from |B_0| = r0), by the radial harmonic
    function: log r in the plane, -1/r in space."""
    if d == 2:
        return math.log(r0) / math.log(r_k)
    return (1.0 / r0 - 1.0) / (1.0 / r_k - 1.0)


def _annulus_hits(d, r_k, starts, rng):
    """Mask of the starts whose reducing walk stops on the level sphere of
    radius r_k of the unit-ball Dirac, u = -log r / (2 pi) in the plane and
    (1/r - 1) / (4 pi) in space, by ``stopped_values``."""
    ball = Domain.ball(np.zeros(d), 1.0, d)
    sol = integral_solution(LAP, ball, MeasureData.make(atoms=[(np.zeros(d), 1.0)],
                                                        dom=ball))
    k = -math.log(r_k) / (2.0 * math.pi) if d == 2 else (1.0 / r_k - 1.0) / (4.0 * math.pi)
    vals, _ = stopped_values(sol, k, starts, rng)
    return vals == k


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
    hit = _annulus_hits(d, r_k, np.tile(x0, (n, 1)), np.random.default_rng(5))
    p = _hit_probability(d, np.linalg.norm(x0), r_k)
    assert abs(hit.mean() - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)


@pytest.mark.parametrize("d,x0,r_k", [(2, [0.5, 0.0], math.exp(-4.0 * math.pi)),
                                      (3, [0.5, 0.0, 0.0], 0.1)])
def test_walk_annulus_matches_ball_walk(d, x0, r_k):
    n = 20_000
    starts = np.tile(x0, (n, 1))
    new = _annulus_hits(d, r_k, starts, np.random.default_rng(8))
    ref = _ball_walk_annulus(np.zeros(d), 1.0, r_k, starts, np.random.default_rng(9))
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
    # every start lies outside the level ball: one draw each
    assert est.extra["draws"] == 50_000


def test_reducing_walk_step_count(disk_dirac_solution, monkeypatch):
    # the exit law is one Bernoulli draw per walker, however small the level
    # circle (e^{-32 pi} at k = 16): no walk step at all, where the
    # maximal-ball walk in the annulus took 23,117 loop iterations on these inputs
    calls = _count_directions(monkeypatch)
    est = reducing_expectation(disk_dirac_solution, k=16.0, n=1.0, start=[0.5, 0.0],
                               n_samples=20_000, seed=3)
    assert calls == []
    assert est.extra["draws"] == 20_000


def test_level_radius_resolution_guard(disk_dirac_solution):
    _, profile = _radial_profile(disk_dirac_solution)
    assert level_radius(profile, [1.0], 16.0)[0] == \
        pytest.approx(math.exp(-32.0 * math.pi), rel=1e-12)
    # e^{-200 pi} is below the smallest radius the profile resolves
    with pytest.raises(SupportError, match="k=100"):
        reducing_expectation(disk_dirac_solution, k=100.0, n=1.0, start=[0.5, 0.0],
                             n_samples=2, seed=0)


@pytest.mark.parametrize("estimate", [
    lambda sol: reducing_expectation(sol, k=0.2, n=0.1, start=[0.5, 0.0], n_samples=1),
    lambda sol: class_d_diagnostic(sol, [0.2, 0.3], [0.1], n_samples=1),
    lambda sol: maximal_inequality_check(sol, d1_value=0.1, n_samples=1),
], ids=["reducing", "classd", "maximal"])
def test_one_sample_estimate_raises_before_any_draw(monkeypatch, estimate):
    # one sample has no standard error, so no verdict can be drawn from it
    sol = integral_solution(LAP, DISK, MeasureData(density=Density.constant(1.0)))

    def no_rng(*args):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(stochastic.np.random, "default_rng", no_rng)
    with pytest.raises(SupportError, match="n_samples=1"):
        estimate(sol)


def test_stopped_values_unreached_level_draws_nothing():
    # the (1 - r^2)/4 potential never reaches k = 0.3: every walker stops at
    # once with value 0, and the generator is left untouched
    sol = integral_solution(LAP, DISK, MeasureData(density=Density.constant(1.0)))
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    vals, draws = stopped_values(sol, 0.3, np.array([[0.1, 0.2], [-0.4, 0.0]]), rng)
    assert np.all(vals == 0.0)
    assert draws == 0
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


def _rectangle_solution():
    """u of the unit density on (0, 1) x (0, 2), solved on a lattice."""
    rect = Domain.rectangle([(0.0, 1.0), (0.0, 2.0)])
    return grid_solution(assemble(LAP, build_grid(rect, 2.0**-4)),
                         MeasureData(density=Density.constant(1.0)))


def _interval_atom_solution():
    unit = Domain.interval(0.0, 1.0)
    return integral_solution(LAP, unit, MeasureData.make(atoms=[([0.5], 1.0)], dom=unit))


@pytest.mark.parametrize("case", ["disk", "interval", "interval-unreached"])
def test_stopped_values_counts_its_draws(case):
    # draws = the starts outside the level set {u > k}, and the generator has
    # advanced by exactly that many random() draws
    if case == "disk":
        # (1 - r^2)/4 exceeds k = 0.2 on r < sqrt(0.2)
        sol = integral_solution(LAP, DISK, MeasureData(density=Density.constant(1.0)))
        k = 0.2
        starts = sample_start_points(DISK, None, 500, np.random.default_rng(2))
        outside = np.linalg.norm(starts, axis=1) >= math.sqrt(0.2)
    else:
        # the tent peaked at 0.5: k = u(0.25) puts the level edges at 0.25, 0.75
        sol = _interval_atom_solution()
        k = float(sol.evaluate([[0.25]])[0])
        starts = np.array([[0.1], [0.45], [0.55], [0.9], [0.2], [0.7]])
        outside = np.abs(starts[:, 0] - 0.5) > 0.25
        if case == "interval-unreached":
            # above the peak 1/4 every walker stops at the boundary value 0
            # (tau_k = tau_D), which takes no draw
            k *= 10.0
            outside[:] = False
    rng = np.random.default_rng(3)
    vals, draws = stopped_values(sol, k, starts, rng)
    assert draws == int(outside.sum())
    if case == "interval-unreached":
        assert draws == 0 and np.all(vals == 0.0)
    else:
        assert draws > 0 and np.all(outside | (vals > k))
    ref = np.random.default_rng(3)
    ref.random(draws)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_reducing_and_class_d_never_walk(disk_dirac_solution, monkeypatch):
    # the level-sphere hit and the smallest radius are closed-form draws: a
    # spy on the walk's direction draws sees no call from any estimator
    calls = _count_directions(monkeypatch)
    uniform_disk = lambda p: np.full(len(p), 1 / math.pi)
    bounded = integral_solution(LAP, DISK, MeasureData(density=Density.constant(1.0)))
    reducing_expectation(disk_dirac_solution, k=4.0, n=1.0, start=[0.5, 0.0],
                         n_samples=1_000, seed=4)
    class_d_diagnostic(disk_dirac_solution, family=[2.0, 4.0], levels=[0.25, 0.5],
                       rho=uniform_disk, n_samples=1_000, seed=4)
    reducing_expectation(_interval_atom_solution(), k=0.1, n=0.05, start=[0.2],
                         n_samples=1_000, seed=4)
    est = maximal_inequality_check(bounded, d1_value=0.125, rho=uniform_disk,
                                   n_samples=1_000, seed=4)
    assert est.extra["draws"] == 1_000
    maximal_inequality_check(_interval_atom_solution(), d1_value=0.125,
                             rho=lambda p: np.ones(len(p)), n_samples=1_000, seed=4)
    assert calls == []


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


def test_class_d_single_stopping_time_is_not_fitted(disk_dirac_solution):
    diag = class_d_diagnostic(disk_dirac_solution, family=[2.0], levels=[0.25, 0.5],
                              n_samples=2_000, seed=3)
    assert diag.limit_basis == "best stopping time at the smallest level (no fit)"
    assert (diag.limit_estimate, diag.limit_stderr) == (diag.estimates[0],
                                                        diag.stderrs[0])


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
    rho = lambda p: np.full(len(p), 1 / math.pi)
    diag = class_d_diagnostic(disk_dirac_solution, family=[2.0, 4.0],
                              levels=[0.25, 0.5], rho=rho, n_samples=2_000, seed=12)
    # the diagnostic draws its starts first, then one uniform per start
    # outside each level circle r_k = e^{-2 pi k}
    starts = sample_start_points(DISK, rho, 2_000, np.random.default_rng(12))
    radii = np.linalg.norm(starts, axis=1)
    outside = sum(int(np.sum(radii >= math.exp(-2.0 * math.pi * k))) for k in (2.0, 4.0))
    assert diag.draws == outside > 0
    assert calls == []


# E sqrt(u(m)) by 400 x 400 Gauss quadrature of the smallest-radius law
DISK_MAXIMAL_EXACT = 0.40035
INTERVAL_DIRAC_MAXIMAL_EXACT = 0.41667


@pytest.mark.parametrize("preset,exact", [
    ("mc-maximal-bounded", DISK_MAXIMAL_EXACT),
    ("mc-maximal-interval-dirac", INTERVAL_DIRAC_MAXIMAL_EXACT)])
def test_maximal_presets_match_the_exact_supremum(preset, exact):
    # the walk's positions miss the path's innermost point: it read 0.3766 and
    # 0.3767 here, 30 and 50 standard errors low
    cfg = get_preset(preset)
    dom = build_domain(cfg)
    sol = integral_solution(LAP, dom, build_measure(cfg, dom))
    est = maximal_inequality_check(sol, d1_value=0.125, rho=build_rho(cfg, dom),
                                   n_samples=cfg["samples"], seed=cfg["seed"])
    assert est.n_samples == 20_000
    assert abs(est.value - exact) <= 4.0 * est.stderr


def test_maximal_ball3d_density_matches_quadrature():
    # u = (1 - r^2)/6 on the unit ball, starts uniform: r0 has density 3 r0^2
    # and m = 1 / (1 + (1/r0 - 1)/U)
    ball = Domain.ball([0.0] * 3, 1.0, 3)
    sol = integral_solution(LAP, ball, MeasureData(density=Density.constant(1.0)))
    x, w = np.polynomial.legendre.leggauss(400)
    r0, u = np.meshgrid((x + 1.0) / 2.0, (x + 1.0) / 2.0, indexing="ij")
    m = 1.0 / (1.0 + (1.0 / r0 - 1.0) / u)
    exact = np.sum(np.outer(w, w) / 4.0 * 3.0 * r0**2 * np.sqrt((1.0 - m**2) / 6.0))
    est = maximal_inequality_check(sol, d1_value=0.1, n_samples=20_000, seed=99)
    assert est.extra["draws"] == 20_000
    assert abs(est.value - exact) <= 4.0 * est.stderr


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_smallest_radius_follows_the_hit_law(dim):
    # from r0 the path reaches r0/2 before R with probability
    # (phi(R) - phi(r0)) / (phi(R) - phi(r0/2)); read m through an identity profile
    ball = Domain.ball([0.0] * dim, 1.0, dim)
    r0, n = 0.5, 40_000
    pts = np.zeros((n, dim))
    pts[:, 0] = r0
    m = stochastic._smallest_radius_values(ball, lambda r: r, pts,
                                           np.random.default_rng(17))
    phi = np.log if dim == 2 else (lambda r: -r ** (2.0 - dim))
    p = (phi(1.0) - phi(r0)) / (phi(1.0) - phi(r0 / 2.0))
    assert np.all((m >= 0.0) & (m <= r0))
    assert abs(np.mean(m <= r0 / 2.0) - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)


def test_maximal_planar_centre_atom_raises(disk_dirac_solution):
    # about 0.2 % of paths reach a radius whose u the profile cannot resolve;
    # counting them as 0, like the walk, would read 6 sigma low
    with pytest.raises(SupportError, match="resolution of the radial profile"):
        maximal_inequality_check(disk_dirac_solution, d1_value=1.0,
                                 rho=lambda p: np.full(len(p), 1 / math.pi),
                                 n_samples=20_000, seed=99)


# each input outside the exact draws, with an interior start.  The three
# estimators share one rule, so each refuses every case.  Reducing once
# sampled signed radial measures and grid solutions (20,000 samples, seed 1):
# at k = 0.5, n = 0.1 from (0.6, 0) it read 0.02248 +- 0.00065 on the signed
# one, where R^D|mu| = 0.72 > k stops at once at u = -0.56 and the exact
# value is 0; at k = 1, n = 0.5 from (0.5, 0) it read 0.0 on the grid one,
# where the closed form reads 0.0556 +- 0.0011
REFUSED = {
    "rectangle-grid": lambda: (_rectangle_solution(), [0.4, 1.0]),
    "masked-rectangle": lambda: (grid_solution(assemble(LAP, build_grid(L_SHAPE, 2.0**-4)),
                                               MeasureData(density=Density.constant(1.0))),
                                 [0.25, 0.25]),
    "off-centre-atom": lambda: (integral_solution(LAP, DISK, MeasureData.make(
        atoms=[([0.3, 0.0], 1.0)], dom=DISK)), [0.5, 0.0]),
    "negative-density": lambda: (integral_solution(LAP, DISK, MeasureData(
        density=Density.constant(-1.0))), [0.5, 0.0]),
    "signed-radial": lambda: (integral_solution(LAP, DISK, MeasureData.make(
        atoms=[([0.0, 0.0], 1.0)], density=Density.constant(-4.0), dom=DISK)), [0.6, 0.0]),
    "grid-disk-atom": lambda: (grid_solution(assemble(LAP, build_grid(DISK, 2.0**-4)),
                                             MeasureData.make(atoms=[([0.0, 0.0], 1.0)],
                                                              dom=DISK)), [0.5, 0.0]),
    "fractional": lambda: (_fractional_interval_atom_solution(), [0.5])}


@pytest.mark.parametrize("case", list(REFUSED))
def test_brownian_estimators_refuse_before_any_draw(case):
    # each estimator is exact or refuses: no start is drawn from rho, and no
    # exit law, before the SupportError that names the rule
    sol, start = REFUSED[case]()
    rho = lambda p: np.ones(len(p))
    estimators = [
        lambda g: maximal_inequality_check(sol, d1_value=0.1, rho=rho, n_samples=100, seed=g),
        lambda g: reducing_expectation(sol, k=1.0, n=0.5, start=start, n_samples=100, seed=g),
        lambda g: class_d_diagnostic(sol, family=[1.0, 2.0], levels=[0.5], rho=rho,
                                     n_samples=100, seed=g)]
    match = "fractional" if case == "fractional" else "path supremum exactly"
    for estimate in estimators:
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        with pytest.raises(SupportError, match=match):
            estimate(rng)
        assert rng.bit_generator.state == before


def test_maximal_zero_solution():
    sol = integral_solution(LAP, DISK, MeasureData())
    est = maximal_inequality_check(sol, d1_value=0.0,
                                   rho=lambda p: np.full(len(p), 1 / math.pi),
                                   n_samples=500, seed=8)
    assert est.value == 0.0
    assert est.extra["passed"]


def test_sample_start_points_inside():
    rng = np.random.default_rng(3)
    pts = sample_start_points(DISK, lambda p: np.full(len(p), 1 / math.pi),
                              5_000, rng)
    assert np.all(DISK.contains(pts))


@pytest.mark.parametrize("rho", [np.array([0.0, 0.0, 5.0]), 2.0, "uniform"],
                         ids=["array", "float", "str"])
def test_non_callable_rho_raises_before_any_draw(rho):
    # rho is None (uniform) or a callable density: anything else once drew
    # uniform starts, the same bits as rho=None
    bounded = integral_solution(LAP, DISK, MeasureData(density=Density.constant(1.0)))
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    with pytest.raises(SupportError, match="rho must be None"):
        maximal_inequality_check(bounded, d1_value=0.125, rho=rho, n_samples=1_000, seed=rng)
    with pytest.raises(SupportError, match="rho must be None"):
        sample_start_points(DISK, rho, 10, rng)
    assert rng.bit_generator.state == before


def test_sample_start_points_rejects_rho_above_the_probed_bound():
    # the probes put the bound at 0.667 against the peak 1.0: accepting the
    # candidates above it with probability 1 would flatten the peak
    rho = Density.gaussian(1.0, 0.01, [0.3, 0.3])
    with pytest.raises(SupportError, match="rho reaches"):
        sample_start_points(DISK, rho, 20_000, np.random.default_rng(0))


def test_start_sampler_rejects_rho_without_a_positive_value(disk_dirac_solution):
    # rho = 0 would reject every candidate, and the sampler would never return
    zero = lambda p: np.zeros(len(p))
    with pytest.raises(SupportError, match="rho has no positive value"):
        sample_start_points(DISK, zero, 100, np.random.default_rng(0))
    with pytest.raises(SupportError, match="rho has no positive value"):
        class_d_diagnostic(disk_dirac_solution, family=[2.0], levels=[0.25], rho=zero,
                           n_samples=100, seed=0)


@pytest.mark.parametrize("field", ["family", "levels"])
def test_class_d_empty_field_raises_before_any_draw(disk_dirac_solution, field):
    args = {"family": [2.0, 4.0], "levels": [0.25, 0.5], field: []}
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with pytest.raises(SupportError, match=f"{field} must hold at least one value"):
        class_d_diagnostic(disk_dirac_solution, n_samples=100, seed=rng, **args)
    assert rng.bit_generator.state == before


def test_radial_machinery_guards():
    mu = MeasureData.make(atoms=[([0.3, 0.0], 1.0)], dom=DISK)
    sol = integral_solution(LAP, DISK, mu)
    with pytest.raises(SupportError):
        stopped_values(sol, 2.0, np.array([[0.5, 0.0]]), np.random.default_rng(1))


def test_radial_machinery_rejects_off_centre_interval_atom():
    unit = Domain.interval(0.0, 1.0)
    sol = integral_solution(LAP, unit, MeasureData.make(atoms=[([0.3], 1.0)], dom=unit))
    with pytest.raises(SupportError, match="center"):
        stopped_values(sol, 0.1, np.array([[0.5]]), np.random.default_rng(1))


@pytest.mark.parametrize("seed", [1])
def test_reducing_interval_constant_density(seed):
    # u = x (1 - x) / 2 on (0, 1), radial about 1/2 with no atom: from x the
    # walk hits the level edge x_k before a = 0 with probability x / x_k, and
    # stops there with payoff k - n
    unit = Domain.interval(0.0, 1.0)
    sol = integral_solution(LAP, unit, MeasureData(density=Density.constant(1.0)))
    k, n, x = 0.1, 0.05, 0.1
    x_k = (1.0 - math.sqrt(1.0 - 8.0 * k)) / 2.0
    est = reducing_expectation(sol, k=k, n=n, start=[x], n_samples=20_000, seed=seed)
    assert est.extra["draws"] == 20_000
    assert abs(est.value - (k - n) * x / x_k) <= 3.0 * est.stderr


@pytest.mark.parametrize("start,error", [([0.5], DimensionMismatchError),
                                         ([0.5, 0.0, 0.0], DimensionMismatchError),
                                         ([1.5, 0.0], SupportError),
                                         ([1.0, 0.0], SupportError)])
def test_reducing_start_checked_before_any_draw(disk_dirac_solution, start, error):
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with pytest.raises(error, match="start"):
        reducing_expectation(disk_dirac_solution, k=4.0, n=1.0, start=start,
                             n_samples=1_000, seed=rng)
    assert rng.bit_generator.state == before


def _fractional_interval_atom_solution():
    dom = Domain.interval(-1.0, 1.0)
    return integral_solution(OperatorSpec.fractional(0.5), dom,
                             MeasureData.make(atoms=[([0.0], 1.0)], dom=dom))


def test_brownian_samplers_reject_other_operators():
    sol = _fractional_interval_atom_solution()
    with pytest.raises(SupportError, match="fractional"):
        reducing_expectation(sol, k=1.0, n=0.5, start=[0.5], n_samples=100, seed=1)
    with pytest.raises(SupportError, match="fractional"):
        class_d_diagnostic(sol, family=[1.0, 2.0], levels=[0.5], n_samples=100, seed=1)
    with pytest.raises(SupportError, match="fractional"):
        maximal_inequality_check(sol, d1_value=0.5, rho=lambda p: np.ones(len(p)),
                                 n_samples=100, seed=1)


def test_stable_walk_start_outside_rejected():
    dom = Domain.interval(-1.0, 1.0)
    with pytest.raises(SupportError):
        stable_exit(dom, [2.0], alpha=0.5, seed=1, n_samples=10)


def _mask_walk(cur, stop, step, max_iters):
    """Reference walker loop: re-masks all n walkers on every iteration."""
    active = np.ones(cur.shape[0], dtype=bool)
    for _ in range(max_iters):
        stopped, quantity = stop(cur[active])
        active[active] = ~stopped
        if not active.any():
            return
        cur[active] = cur[active] + step(cur[active], quantity[~stopped])
    raise ConvergenceError("reference walk exceeded its budget")


def _mask_stable_exit(dom, x, alpha, seed, n_samples):
    """``stable_exit``'s ball jumps through the full-mask reference loop."""
    rng = np.random.default_rng(seed)
    cur = np.tile(np.asarray(x, dtype=float), (n_samples, 1))

    def step(p, rho):
        t = rng.beta(alpha / 2.0, 1.0 - alpha / 2.0, p.shape[0])
        return (rho / np.sqrt(t))[:, None] * \
            stochastic._unit_directions(rng, p.shape[0], p.shape[1])

    _mask_walk(cur, lambda p: (~dom.contains(p), dom.distance_to_boundary(p)), step,
               100_000)
    return cur


def test_walk_matches_full_mask_reference():
    # compacting the live set must keep every draw's order and size
    for dom, x, alpha in [(Domain.interval(-1.0, 1.0), [0.5], 0.5),
                          (Domain.rectangle([(0.0, 1.0), (0.0, 2.0)]), [0.4, 1.0], 1.2),
                          (DISK, [0.3, -0.2], 1.2)]:
        fast = stable_exit(dom, x, alpha=alpha, seed=4, n_samples=2_000)
        ref = _mask_stable_exit(dom, x, alpha, seed=4, n_samples=2_000)
        assert np.array_equal(fast, ref)


def test_walk_budget_raises(monkeypatch):
    # from (0.4, 1) a jump can land back inside the rectangle: after two
    # iterations some of 2,000 walkers are still moving
    dom = Domain.rectangle([(0.0, 1.0), (0.0, 2.0)])
    monkeypatch.setattr(stochastic, "_WOS_MAX_ITERS", 2)
    with pytest.raises(ConvergenceError, match="budget of 2 iterations"):
        stable_exit(dom, [0.4, 1.0], alpha=1.2, seed=3, n_samples=2_000)


def test_walk_budget_counts_the_last_jump(monkeypatch):
    # from the centre of (-1, 1) every jump leaves: with a budget of one
    # iteration all 1,000 walkers land, and from 0.5 the error counts only
    # the walkers the one jump left inside
    dom = Domain.interval(-1.0, 1.0)
    monkeypatch.setattr(stochastic, "_WOS_MAX_ITERS", 1)
    land = stable_exit(dom, [0.0], alpha=1.2, seed=5, n_samples=1_000)
    assert land.shape == (1_000, 1) and not np.any(dom.contains(land))
    with pytest.raises(ConvergenceError) as err:
        stable_exit(dom, [0.5], alpha=1.2, seed=5, n_samples=1_000)
    moving = int(str(err.value).split(" with ")[1].split()[0])
    monkeypatch.setattr(stochastic, "_WOS_MAX_ITERS", 100_000)
    first = np.random.default_rng(5)
    t = first.beta(0.6, 0.4, 1_000)
    jump = 0.5 + 0.5 / np.sqrt(t) * stochastic._unit_directions(first, 1_000, 1)[:, 0]
    assert moving == np.count_nonzero(dom.contains(jump[:, None]))
