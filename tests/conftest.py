import pytest

from potkit import Domain, OperatorSpec, assemble, build_grid
from potkit.measures import MeasureData
from potkit.solve import integral_solution


@pytest.fixture(scope="session")
def disk():
    return Domain.ball([0.0, 0.0], 1.0, 2)


@pytest.fixture(scope="session")
def unit_interval():
    return Domain.interval(0.0, 1.0)


@pytest.fixture(scope="session")
def lap():
    return OperatorSpec.laplacian()


@pytest.fixture(scope="session")
def disk_grid_small(disk):
    return build_grid(disk, 2.0**-5)


@pytest.fixture(scope="session")
def disk_dop_small(disk_grid_small, lap):
    return assemble(lap, disk_grid_small)


@pytest.fixture(scope="session")
def interval_grid(unit_interval):
    return build_grid(unit_interval, 2.0**-8)


@pytest.fixture(scope="session")
def interval_dop(interval_grid, lap):
    return assemble(lap, interval_grid)


@pytest.fixture(scope="session")
def disk_dirac_solution(disk, lap):
    mu = MeasureData.make(atoms=[([0.0, 0.0], 1.0)], dom=disk)
    return integral_solution(lap, disk, mu)

