import math

import numpy as np
import pytest
from scipy import integrate, special

from potkit import Domain, OperatorSpec, green, killing_density, poisson_kernel
from potkit.errors import DimensionMismatchError, SupportError, UnsupportedKernelError
from potkit.measures import MeasureData
from potkit.solve import integral_solution
from potkit.kernels import (_incomplete_beta, ball_green_constant, frac_constant,
                            frac_torsion_constant, riesz_constant, sphere_area)

LAP = OperatorSpec.laplacian()


def test_interval_green_value():
    dom = Domain.interval(0.0, 1.0)
    assert green(LAP, dom, 0.25, 0.5) == pytest.approx(0.125, abs=1e-15)


def test_ball_1d_green_equals_interval():
    ball = Domain.ball([0.5], 0.5, 1)
    assert green(LAP, ball, 0.25, 0.5) == green(LAP, Domain.interval(0.0, 1.0), 0.25, 0.5)


def test_interval_green_fd_oracle():
    # independent three-point solve assembled by hand
    dom = Domain.interval(0.0, 1.0)
    N = 512
    h = 1.0 / N
    main = np.full(N - 1, 2.0 / h**2)
    off = np.full(N - 2, -1.0 / h**2)
    A = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    rhs = np.zeros(N - 1)
    rhs[N // 2 - 1] = 1.0 / h
    u = np.linalg.solve(A, rhs)
    x = np.arange(1, N) * h
    exact = np.array([green(LAP, dom, xi, 0.5) for xi in x])
    assert np.max(np.abs(u - exact)) < 1e-10


def test_disk_green_center_value():
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    val = green(LAP, dom, [0.0, 0.0], [0.5, 0.0])
    assert val == pytest.approx(math.log(2.0) / (2.0 * math.pi), rel=1e-12)


def test_green_symmetry():
    rng = np.random.default_rng(3)
    for dom, op in [
        (Domain.ball([0.0, 0.0], 1.0, 2), LAP),
        (Domain.ball([0.0, 0.0, 0.0], 1.0, 3), LAP),
        (Domain.interval(-1.0, 1.0), OperatorSpec.fractional(0.7)),
        (Domain.ball([0.0, 0.0], 1.0, 2), OperatorSpec.fractional(1.2)),
    ]:
        for _ in range(20):
            x = rng.uniform(-0.6, 0.6, dom.dim)
            y = rng.uniform(-0.6, 0.6, dom.dim)
            if np.allclose(x, y):
                continue
            assert green(op, dom, x, y) == pytest.approx(
                green(op, dom, y, x), rel=1e-11)


def test_ball3_green_center():
    dom = Domain.ball([0.0, 0.0, 0.0], 1.0, 3)
    val = green(LAP, dom, [0.0, 0.0, 0.0], [0.5, 0.0, 0.0])
    assert val == pytest.approx((1.0 / 0.5 - 1.0) / (4.0 * math.pi), rel=1e-12)


def test_green_diagonal_rule():
    # polar points blow up; non-polar diagonals are the finite closed form
    assert np.isinf(green(LAP, Domain.ball([0, 0], 1.0, 2), [0.3, 0.0], [0.3, 0.0]))
    v = green(LAP, Domain.interval(0, 1), 0.25, 0.25)
    assert v == pytest.approx(0.25 * 0.75, rel=1e-14)
    frac = OperatorSpec.fractional(0.5)
    assert np.isinf(green(frac, Domain.interval(-1, 1), 0.2, 0.2))
    frac_sup = OperatorSpec.fractional(1.5)
    assert np.isfinite(green(frac_sup, Domain.interval(-1, 1), 0.2, 0.2))


def test_frac_green_supercritical_diagonal_limit():
    # finite diagonal equals the limit of off-diagonal values (alpha > d)
    op = OperatorSpec.fractional(1.5)
    dom = Domain.interval(-1.0, 1.0)
    diag = green(op, dom, 0.2, 0.2)
    near = green(op, dom, 0.2, 0.2 + 1e-7)
    assert near == pytest.approx(diag, rel=1e-3)


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_frac_green_torsion_oracle(alpha):
    # quadrature of the Green kernel against the unit density must equal the
    # closed-form torsion profile (1 - x^2)^(alpha/2) / C(1, alpha)
    op = OperatorSpec.fractional(alpha)
    dom = Domain.interval(-1.0, 1.0)
    C = frac_torsion_constant(alpha, 1)
    for x in (0.0, 0.37, -0.81):
        val, _ = integrate.quad(lambda y: green(op, dom, x, y), -1.0, 1.0,
                                points=[x], limit=300)
        expect = (1.0 - x * x) ** (alpha / 2.0) / C
        assert val == pytest.approx(expect, rel=2e-6)


def test_frac_green_riesz_limit():
    # near the diagonal the ball kernel approaches the free-space Riesz kernel
    alpha = 0.5
    op = OperatorSpec.fractional(alpha)
    dom = Domain.interval(-1.0, 1.0)
    r = 1e-9
    val = green(op, dom, 0.0, r)
    assert val == pytest.approx(riesz_constant(alpha, 1) * r ** (alpha - 1), rel=1e-3)


def test_unsupported_pairs():
    with pytest.raises(UnsupportedKernelError):
        green(OperatorSpec.divergence(lambda p: np.ones(len(p)), 1, 1),
              Domain.interval(0, 1), 0.2, 0.5)
    with pytest.raises(UnsupportedKernelError):
        green(LAP, Domain.rectangle([(0, 1), (0, 1)]), [0.2, 0.2], [0.5, 0.5])


def test_frac_constant_value():
    # frozen value: c(1/2, 1) = 2^(1/2) Gamma(3/4) / (pi^(1/2) |Gamma(-1/4)|)
    assert frac_constant(0.5, 1) == pytest.approx(
        1.0 / (2.0 * math.sqrt(2.0 * math.pi)), rel=1e-13)


def test_fractional_form_constant():
    # (c/2) IntInt (u(x)-u(y))^2 |x-y|^(-1-a) dx dy == Int |xi|^a |u_hat|^2 dxi
    # for the Gaussian u(x) = exp(-x^2/2): the right side is Gamma((1+a)/2).
    # This pins both c(alpha, d) and the 1/2 of the symmetric jump measure.
    alpha = 0.5
    c = frac_constant(alpha, 1)
    u = lambda x: np.exp(-x * x / 2.0)

    def inner(s):
        val, _ = integrate.quad(lambda t: (u(t + s) - u(t)) ** 2, -s - 14.0, 14.0,
                                limit=300)
        return val * s ** (-1.0 - alpha)

    S0 = 60.0
    body, _ = integrate.quad(inner, 0.0, S0, limit=800,
                             points=[1e-6, 1e-3, 0.1, 1.0, 5.0, 20.0])
    tail = 2.0 * math.sqrt(math.pi) * S0 ** (-alpha) / alpha
    lhs = (c / 2.0) * 2.0 * (body + tail)
    assert lhs == pytest.approx(special.gamma((1 + alpha) / 2.0), rel=1e-8)


def test_killing_interval_closed_form():
    alpha = 0.7
    dom = Domain.interval(-1.0, 1.0)
    c = frac_constant(alpha, 1)
    assert killing_density(alpha, dom, 0.0) == pytest.approx(2.0 * c / alpha, rel=1e-14)
    # independent direct integral at an off-center point
    x = 0.4
    direct = c * ((1.0 - x) ** (-alpha) + (1.0 + x) ** (-alpha)) / alpha
    assert killing_density(alpha, dom, x) == pytest.approx(direct, rel=1e-14)


def test_killing_blows_up_at_the_boundary():
    alpha = 0.5
    dom = Domain.interval(-1.0, 1.0)
    vals = [killing_density(alpha, dom, x) for x in (0.0, 0.9, 0.99, 0.999)]
    assert np.all(np.diff(vals) > 0)


def test_killing_ball2_quadrature_oracle():
    alpha = 0.8
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    x = np.array([0.3, 0.0])

    def integrand(s, th):
        d2 = 0.3**2 + s**2 - 2.0 * 0.3 * s * math.cos(th)
        return s * d2 ** (-(2 + alpha) / 2.0)

    S0 = 200.0
    val, _ = integrate.dblquad(integrand, 0.0, 2.0 * math.pi,
                               lambda _: 1.0, lambda _: S0)
    # beyond S0 the shell integral is 2 pi s^(-1-alpha) up to O((r/s)^2)
    tail = 2.0 * math.pi * S0 ** (-alpha) / alpha
    expect = frac_constant(alpha, 2) * (val + tail)
    got = killing_density(alpha, dom, x)
    assert got == pytest.approx(expect, rel=2e-4)
    assert got > 0


def test_killing_ball3():
    alpha = 0.6
    dom = Domain.ball([0.0, 0.0, 0.0], 1.0, 3)
    v0 = killing_density(alpha, dom, [0.0, 0.0, 0.0])
    # center value has a one-dimensional closed form
    expect = frac_constant(alpha, 3) * 4.0 * math.pi / alpha
    assert v0 == pytest.approx(expect, rel=1e-14)


def _angular_killing(alpha, d, r):
    """(c/alpha) Int_{S^(d-1)} rho(theta)^(-alpha) dtheta on the unit ball,
    rho(theta) = -r cos(theta) + sqrt(1 - r^2 sin(theta)^2) the distance to
    the sphere along theta, by adaptive quadrature in theta."""
    def rho(t):
        return -r * math.cos(t) + math.sqrt(1.0 - (r * math.sin(t)) ** 2)

    def integrand(t):
        # the circle counts theta and -theta; the sphere's ring at theta has 2 pi sin(theta)
        weight = 2.0 if d == 2 else 2.0 * math.pi * math.sin(t)
        return weight * rho(t) ** (-alpha)

    # the integrand peaks at theta = 0, with width about sqrt(1 - r)
    brk = [min(k * math.sqrt(1.0 - r), 1.0) for k in (0.1, 1.0, 10.0)]
    val, _ = integrate.quad(integrand, 0.0, math.pi, epsabs=0.0, epsrel=1e-13, limit=500,
                            points=brk)
    return frac_constant(alpha, d) / alpha * val


_RADII = (0.0, 0.3, 0.9, 0.99, 0.999, 1.0 - 1e-4)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5, 1.9])
def test_killing_ball_matches_angular_integral(alpha):
    """The 2F1 closed form against the angular integral on disk and 3-ball
    nodes from the centre to 1 - r = 1e-4."""
    for d in (2, 3):
        dom = Domain.ball([0.0] * d, 1.0, d)
        direction = np.arange(1.0, d + 1.0) / np.linalg.norm(np.arange(1.0, d + 1.0))
        pts = np.outer(_RADII, direction)
        r = np.linalg.norm(pts, axis=1)
        expect = [_angular_killing(alpha, d, ri) for ri in r]
        np.testing.assert_allclose(killing_density(alpha, dom, pts), expect, rtol=1e-10)


SHAPE_RULE_KERNELS = {
    "green": lambda dom, x, y, z: green(OperatorSpec.fractional(0.5), dom, x, y),
    "poisson_kernel": lambda dom, x, y, z: poisson_kernel(LAP, dom, x, z),
    "killing_density": lambda dom, x, y, z: killing_density(0.5, dom, x),
}


@pytest.mark.parametrize("kernel", list(SHAPE_RULE_KERNELS))
@pytest.mark.parametrize("dom, x, y, z", [
    (Domain.interval(-1.0, 1.0), [0.3], [0.0], [1.0]),
    (Domain.ball([0.0, 0.0], 1.0, 2), [0.3, 0.1], [0.0, 0.0], [0.6, 0.8]),
], ids=["interval", "disk"])
def test_killing_density_follows_green_shape_rule(kernel, dom, x, y, z):
    """Scalar in, scalar out, in each closed-form kernel: points given as
    one-row 2-d arrays give an array of shape (1,), and single points a
    float."""
    value = SHAPE_RULE_KERNELS[kernel]
    assert np.shape(value(dom, [x], [y], [z])) == (1,)
    assert np.shape(value(dom, [x], y, z)) == (1,)
    assert isinstance(value(dom, x, y, z), float)


def test_poisson_disk_center_uniform():
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    for ang in (0.0, 1.1, 3.0):
        z = [math.cos(ang), math.sin(ang)]
        assert poisson_kernel(LAP, dom, [0.0, 0.0], z) == pytest.approx(
            1.0 / (2.0 * math.pi), rel=1e-13)


@pytest.mark.parametrize("x", [[0.0, 0.0], [0.4, 0.2], [-0.7, 0.1]])
def test_poisson_disk_normalization(x):
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    val, _ = integrate.quad(
        lambda th: poisson_kernel(LAP, dom, x, [math.cos(th), math.sin(th)]),
        0.0, 2.0 * math.pi, limit=200)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_poisson_interval_masses():
    dom = Domain.interval(0.0, 1.0)
    p_right = poisson_kernel(LAP, dom, 0.25, 1.0)
    p_left = poisson_kernel(LAP, dom, 0.25, 0.0)
    assert p_right == pytest.approx(0.25, abs=1e-14)
    assert p_left + p_right == pytest.approx(1.0, abs=1e-14)


def test_poisson_fractional_normalization_1d():
    alpha = 0.5
    op = OperatorSpec.fractional(alpha)
    dom = Domain.interval(-1.0, 1.0)
    for x in (0.0, 0.45):
        val, _ = integrate.quad(lambda z: poisson_kernel(op, dom, x, z),
                                1.0, np.inf, limit=400)
        val2, _ = integrate.quad(lambda z: poisson_kernel(op, dom, x, z),
                                 -np.inf, -1.0, limit=400)
        assert val + val2 == pytest.approx(1.0, abs=1e-6)


def test_poisson_fractional_normalization_2d():
    op = OperatorSpec.fractional(0.8)
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    x = np.array([0.3, 0.1])

    def shell(s):
        th = np.linspace(0.0, 2.0 * math.pi, 257)[:-1]
        z = np.stack([s * np.cos(th), s * np.sin(th)], axis=1)
        return s * np.mean(poisson_kernel(op, dom, x, z)) * 2.0 * math.pi

    val, _ = integrate.quad(shell, 1.0 + 1e-12, np.inf, limit=300)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_poisson_fractional_support_error():
    op = OperatorSpec.fractional(0.5)
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    with pytest.raises(SupportError):
        poisson_kernel(op, dom, [0.0, 0.0], [0.5, 0.0])   # inside: invalid


_INTERVAL = Domain.interval(-1.0, 1.0)
_DISK = Domain.ball([0.0, 0.0], 1.0, 2)


@pytest.mark.parametrize("read", [
    lambda x: green(LAP, _INTERVAL, x, 0.0),
    lambda x: green(OperatorSpec.fractional(0.5), _INTERVAL, x, 0.0),
    lambda x: killing_density(0.5, _INTERVAL, x),
    lambda x: poisson_kernel(LAP, _INTERVAL, x, 1.0),
    lambda x: integral_solution(LAP, _INTERVAL, MeasureData.make(
        atoms=[([0.0], 1.0)], dom=_INTERVAL)).evaluate(x),
], ids=["green", "green-fractional", "killing", "poisson", "evaluate"])
def test_interval_reads_no_two_column_points(read):
    # three 2-d points are not six points of the interval
    with pytest.raises(DimensionMismatchError):
        read(np.full((3, 2), 0.1))
    assert np.shape(read([0.1, 0.2, 0.3])) == (3,)


def test_ball_point_of_wrong_dimension():
    with pytest.raises(DimensionMismatchError):
        green(LAP, _DISK, [0.1, 0.2, 0.3], [0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        killing_density(0.5, _DISK, [0.1, 0.2, 0.3])


def test_sphere_area_values():
    assert sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi)


def test_ball_green_constant_consistency():
    # B(d,a) * Beta(a/2, (d-a)/2) equals the Riesz constant
    for alpha, d in ((0.5, 1), (1.2, 2), (0.9, 3)):
        lhs = ball_green_constant(alpha, d) * special.beta(
            alpha / 2.0, (d - alpha) / 2.0)
        assert lhs == pytest.approx(riesz_constant(alpha, d), rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_incomplete_beta_matches_scipy(d):
    """B_x(a, b) at every (a, b) = (alpha / 2, (d - alpha) / 2) the
    fractional ball's Green function reaches, 0 < alpha < min(2, d) up to
    1e-6 from either end, and x from 1e-300 to 1 - 1e-15, within 1e-13 of
    scipy's beta(a, b) betainc(a, b, x), with no floating-point warning.
    Above x = 1/2 scipy is read from the nearer end, as
    beta(a, b) betaincc(b, a, 1 - x): its betainc(1/2, 1/2, x) is off by
    1.1e-9 at x = 1 - 1e-15."""
    top = min(2.0, d)
    alphas = np.concatenate([[1e-6, 1e-3], np.linspace(0.0, top, 41)[1:-1],
                             [top - 1e-3, top - 1e-6]])
    x = np.concatenate([[0.0], np.geomspace(1e-300, 0.5, 300),
                        1.0 - np.geomspace(0.5, 1e-15, 300)[1:], [1.0]])
    for alpha in alphas:
        a, b = alpha / 2.0, (d - alpha) / 2.0
        ref = special.beta(a, b) * np.where(x <= 0.5, special.betainc(a, b, x),
                                            special.betaincc(b, a, 1.0 - x))
        got = _incomplete_beta(a, b, x)
        assert np.all(np.abs(got - ref) <= 1e-13 * ref), (d, alpha)
    # a NaN argument reads NaN and leaves the series of the others whole
    got = _incomplete_beta(0.25, 0.25, np.array([np.nan, 0.3, 0.9]))
    assert np.isnan(got[0])
    np.testing.assert_allclose(got[1:], special.beta(0.25, 0.25)
                               * special.betainc(0.25, 0.25, [0.3, 0.9]), rtol=1e-13)
