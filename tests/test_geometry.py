import numpy as np
import pytest

from potkit import Domain, build_grid
from potkit.errors import DimensionMismatchError, GridSizeError


def test_contains_interval_interior():
    dom = Domain.interval(0.0, 1.0)
    assert dom.contains(0.5)
    assert not dom.contains(2.0)
    assert not dom.contains(0.0)          # open set: endpoints excluded
    # a flat list on a 1-d domain is one point per entry
    assert dom.contains([0.5, 1.5]).tolist() == [True, False]


def test_contains_ball_boundary_excluded():
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    assert not dom.contains([1.0, 0.0])
    assert dom.contains([0.3, -0.2])


def test_contains_dimension_mismatch():
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    with pytest.raises(DimensionMismatchError):
        dom.contains([0.1, 0.2, 0.3])


def test_interval_grid_quarter():
    grid = build_grid(Domain.interval(0.0, 1.0), 0.25)
    assert np.allclose(grid.interior_points().ravel(), [0.25, 0.5, 0.75])
    bpts = grid.node_points()[grid.boundary_mask].ravel()
    assert np.allclose(sorted(bpts), [0.0, 1.0])


def test_ball_grid_half_count():
    # lattice points strictly inside the unit disk at h = 1/2:
    # (x, y) with coordinates in {-0.5, 0, 0.5}
    grid = build_grid(Domain.ball([0.0, 0.0], 1.0, 2), 0.5)
    assert grid.n_interior == 9


def test_coarse_mesh_rejected():
    with pytest.raises(GridSizeError):
        build_grid(Domain.interval(0.0, 1.0), 10.0)


def test_node_cap():
    with pytest.raises(GridSizeError):
        build_grid(Domain.ball([0.0, 0.0], 1.0, 2), 1e-4, node_cap=1000)


@pytest.mark.parametrize("dom", [
    Domain.interval(0.0, 1.0),
    Domain.ball([0.2, -0.1], 0.8, 2),
    Domain.rectangle([(-1.0, 1.0), (0.0, 2.0)]),
])
def test_refinement_nesting(dom):
    h = 0.125
    coarse = build_grid(dom, h)
    fine = build_grid(dom, h / 2)
    fine_set = {tuple(np.round(p, 12)) for p in fine.interior_points()}
    for p in coarse.interior_points():
        assert tuple(np.round(p, 12)) in fine_set


def test_classification_consistent():
    dom = Domain.ball([0.0, 0.0], 1.0, 2)
    grid = build_grid(dom, 0.11)
    pts = grid.node_points()
    assert np.all(dom.contains(pts[grid.interior_mask]))
    assert not np.any(dom.contains(pts[grid.boundary_mask]))


def test_interior_neighbors_classified():
    # every neighbor of an interior node is interior or boundary
    grid = build_grid(Domain.ball([0.0, 0.0], 1.0, 2), 0.23)
    interior = grid.interior_mask
    classified = interior | grid.boundary_mask
    for k in range(2):
        for step in (1, -1):
            shifted = np.roll(classified, -step, axis=k)
            assert np.all(shifted[interior])


def test_rectangle_mask():
    mask = lambda pts: pts[:, 0] + pts[:, 1] < 1.0
    dom = Domain.rectangle([(0.0, 1.0), (0.0, 1.0)], mask=mask)
    grid = build_grid(dom, 0.125)
    pts = grid.interior_points()
    assert np.all(pts[:, 0] + pts[:, 1] < 1.0)
    assert grid.n_interior > 0


def test_invalid_domains():
    with pytest.raises(ValueError):
        Domain.interval(1.0, 0.0)
    with pytest.raises(ValueError):
        Domain.ball([0.0], -1.0, 1)
    with pytest.raises(ValueError):
        Domain.ball([0.0] * 4, 1.0, 4)


def test_corners_flat_indices_and_weights():
    grid = build_grid(Domain.ball([0.0, 0.0], 1.0, 2), 0.25)
    nodes = grid.interior_points()
    flat, wts = grid.corners([[0.1, 0.05], [0.97, 0.0], [0.25 - 1e-14, 0.0]])
    assert flat.shape == wts.shape == (3, 4)
    assert np.allclose(wts.sum(axis=1), 1.0)
    # corner c steps up along axis k where bit k of c is set
    assert np.all(flat[0] >= 0)
    assert np.array_equal(nodes[flat[0]], [[0.0, 0.0], [0.25, 0.0],
                                           [0.0, 0.25], [0.25, 0.25]])
    assert np.allclose(wts[0], [0.48, 0.32, 0.12, 0.08])
    # the corners on x = 1 are off the interior
    assert np.array_equal(flat[1] >= 0, [True, False, True, False])
    assert np.allclose(wts[1], [0.12, 0.88, 0.0, 0.0])
    # a point a round-off below a node takes that node as its lower corner
    assert np.array_equal(nodes[flat[2, 0]], [0.25, 0.0])
    assert wts[2, 0] == pytest.approx(1.0, abs=1e-12)


def test_rectangle_volume():
    assert Domain.rectangle([(0.0, 2.0), (-1.0, 0.5)]).volume() == 3.0
    assert Domain.rectangle([(0.0, 1.0), (0.0, 2.0), (0.0, 0.5)]).volume() == 1.0
