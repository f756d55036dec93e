import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potkit import Domain, OperatorSpec, decompose, green, total_variation
from potkit.errors import DimensionMismatchError, SupportError
from potkit.geometry import build_grid
from potkit.measures import Density, MeasureData, deposit

LAP = OperatorSpec.laplacian()


def test_decompose_laplacian_2d():
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    mu = MeasureData.make(atoms=[([0.3, 0.1], 1.0)],
                          density=Density.constant(2.0), dom=dom)
    dec = decompose(mu, LAP, dom)
    assert dec.concentrated.atoms == mu.atoms
    assert dec.diffuse.atoms == ()
    assert dec.diffuse.density is mu.density
    assert dec.recombined().atoms == mu.atoms


def test_decompose_laplacian_1d_atoms_diffuse():
    dom = Domain.interval(0.0, 1.0)
    mu = MeasureData.make(atoms=[([0.5], 1.0)], dom=dom)
    dec = decompose(mu, LAP, dom)
    assert dec.concentrated.atoms == ()
    assert dec.diffuse.atoms == mu.atoms


@pytest.mark.parametrize("alpha,conc", [(1.5, False), (0.5, True), (1.0, True)])
def test_decompose_fractional_rule(alpha, conc):
    dom = Domain.interval(-1.0, 1.0)
    mu = MeasureData.make(atoms=[([0.0], 1.0)], dom=dom)
    dec = decompose(mu, OperatorSpec.fractional(alpha), dom)
    assert bool(dec.concentrated.atoms) == conc


def test_polarity_matches_green_diagonal():
    # the decomposition's rule table agrees with diagonal Green blow-up
    cases = [
        (LAP, Domain.ball([0.0, 0.0], 1.0, 2), [0.3, 0.0]),
        (LAP, Domain.interval(0.0, 1.0), [0.5]),
        (OperatorSpec.fractional(0.5), Domain.interval(-1.0, 1.0), [0.2]),
        (OperatorSpec.fractional(1.5), Domain.interval(-1.0, 1.0), [0.2]),
    ]
    for op, dom, a in cases:
        mu = MeasureData.make(atoms=[(a, 1.0)], dom=dom)
        dec = decompose(mu, op, dom)
        diag = green(op, dom, np.asarray(a), np.asarray(a))
        assert bool(dec.concentrated.atoms) == bool(np.isinf(diag))


def test_total_variation():
    dom = Domain.interval(0.0, 1.0)
    assert total_variation(MeasureData.make(atoms=[([0.5], -2.0)], dom=dom),
                           dom) == pytest.approx(2.0)
    assert total_variation(MeasureData(density=Density.constant(1.0)),
                           dom) == pytest.approx(1.0)
    both = MeasureData.make(atoms=[([0.5], 1.0)],
                            density=Density.constant(1.0), dom=dom)
    assert total_variation(both, dom) == pytest.approx(2.0)


def test_atom_outside_domain_rejected():
    dom = Domain.interval(0.0, 1.0)
    with pytest.raises(SupportError):
        MeasureData.make(atoms=[([1.5], 1.0)], dom=dom)


def test_coincident_atoms_merged_in_first_appearance_order():
    # atoms whose merged weight is 0 are dropped
    dom = Domain.interval(0.0, 1.0)
    mu = MeasureData.make(atoms=[([0.7], 1.0), ([0.5], 0.25), ([0.2], -1.0),
                                 ([0.5], 0.5), ([0.7], -1.0), ([0.9], 0.0)], dom=dom)
    assert mu.atoms == (((0.5,), 0.75), ((0.2,), -1.0))


def test_atom_dimension_checked():
    with pytest.raises(DimensionMismatchError):
        MeasureData.make(atoms=[([0.5, 0.9], 1.0)], dom=Domain.interval(0.0, 1.0))
    with pytest.raises(DimensionMismatchError):
        MeasureData.make(atoms=[([0.1], 1.0)], dom=Domain.ball([0.0, 0.0], 1.0, 2))


def test_deposit_on_node_mass():
    dom = Domain.interval(0.0, 1.0)
    grid = build_grid(dom, 0.25)
    mu = MeasureData.make(atoms=[([0.5], 2.0)], dom=dom)
    rhs = deposit(mu, grid)
    assert rhs.sum() * grid.cell_volume() == pytest.approx(2.0, abs=1e-14)
    assert rhs[grid.flat_of_lattice(grid.nearest_node(0.5))] == pytest.approx(
        2.0 / grid.h)


def test_deposit_off_node_multilinear():
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    grid = build_grid(dom, 0.25)
    mu = MeasureData.make(atoms=[([0.1, 0.05], 1.5)], dom=dom)
    rhs = deposit(mu, grid)
    assert rhs.sum() * grid.cell_volume() == pytest.approx(1.5, abs=1e-12)
    assert np.count_nonzero(rhs) == 4


def test_deposit_near_boundary_conserves_mass():
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    grid = build_grid(dom, 0.25)
    mu = MeasureData.make(atoms=[([0.93, 0.2], 1.0)], dom=dom)
    rhs = deposit(mu, grid)
    assert rhs.sum() * grid.cell_volume() == pytest.approx(1.0, abs=1e-12)


def test_deposit_without_interior_corner_raises():
    # the mask drops the two nodes of the cell edge the atom sits on, the only
    # corners of positive weight; the atom itself lies in the domain
    def mask(pts):
        on_edge = np.isclose(pts[:, 1], 0.5) & (np.isclose(pts[:, 0], 0.5)
                                                | np.isclose(pts[:, 0], 0.75))
        return ~on_edge
    dom = Domain.rectangle([(0.0, 1.0), (0.0, 1.0)], mask=mask)
    grid = build_grid(dom, 0.25)
    mu = MeasureData.make(atoms=[([0.6, 0.5], 1.0)], dom=dom)
    with pytest.raises(SupportError, match="no interior node nearby"):
        deposit(mu, grid)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(0.05, 0.95), st.floats(-3.0, 3.0))
def test_deposit_mass_exact_property(x, w):
    dom = Domain.interval(0.0, 1.0)
    grid = build_grid(dom, 0.125)
    mu = MeasureData.make(atoms=[([x], w)], dom=dom)
    rhs = deposit(mu, grid)
    assert rhs.sum() * grid.cell_volume() == pytest.approx(w, abs=1e-12)


def test_gaussian_density_tv():
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    dens = Density.gaussian(2.0, 0.3, [0.0, 0.0])
    # radial quadrature oracle
    from scipy import integrate
    expect, _ = integrate.quad(
        lambda r: 2.0 * np.exp(-r * r / (2 * 0.09)) * 2 * np.pi * r, 0.0, 1.0)
    got = total_variation(MeasureData(density=dens), dom)
    assert got == pytest.approx(expect, rel=1e-9)


def _gaussian_mass_oracle(dens, dom):
    from scipy import integrate
    f = lambda *x: float(dens(np.array([x[::-1]]))[0])      # dblquad passes (y, x)
    if dom.kind == "interval":
        return integrate.quad(f, dom.a, dom.b, epsabs=0.0, epsrel=1e-13)[0]
    if dom.kind == "rectangle":
        (x0, x1), (y0, y1) = dom.bounds
        return integrate.dblquad(f, x0, x1, y0, y1, epsabs=0.0, epsrel=1e-13)[0]
    if dom.dim == 3:      # centred: the radial integral
        return integrate.quad(lambda r: 4 * np.pi * r * r * f(r, 0.0, 0.0), 0.0,
                              dom.radius, epsabs=0.0, epsrel=1e-13)[0]
    (cx, cy), R = dom.center, dom.radius
    return integrate.dblquad(f, cx - R, cx + R, lambda x: cy - np.sqrt(R * R - (x - cx)**2),
                             lambda x: cy + np.sqrt(R * R - (x - cx)**2),
                             epsabs=0.0, epsrel=1e-13)[0]


@pytest.mark.parametrize("dens, dom", [
    (Density.gaussian(2.0, 0.3, [0.1]), Domain.interval(-1.0, 1.0)),
    (Density.gaussian(-1.5, 0.4, [0.3, 0.6]), Domain.rectangle([(0.0, 1.0), (0.0, 1.0)])),
    (Density.gaussian(2.0, 0.3, [0.2, -0.1]), Domain.ball([0.0, 0.0], 1.0, 2)),
    (Density.gaussian(0.7, 0.5, [0.0, 0.0, 0.0]), Domain.ball([0.0, 0.0, 0.0], 1.0, 3)),
], ids=["interval", "square", "off-centre-disk", "centred-ball-3d"])
def test_gaussian_tv_closed_form(dens, dom):
    got = total_variation(MeasureData(density=dens), dom)
    assert got == pytest.approx(abs(_gaussian_mass_oracle(dens, dom)), rel=1e-10)


def test_gaussian_tv_on_masked_rectangle_raises():
    dom = Domain.rectangle([(0.0, 1.0), (0.0, 1.0)], mask=lambda p: p[:, 0] < 0.5)
    with pytest.raises(SupportError, match="masked rectangle"):
        total_variation(MeasureData(density=Density.gaussian(1.0, 0.3, [0.5, 0.5])), dom)
