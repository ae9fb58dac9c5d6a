import pytest
from hypothesis import settings

import vspc

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic; tests set only max_examples.
settings.register_profile("vspc", deadline=None, derandomize=True, database=None)
settings.load_profile("vspc")


def _standard_run(n, nu):
    grid = vspc.GridSpec(n)
    cfg = vspc.SolverConfig(grid, nu=nu, t_end=1.0, dt_max=5e-3,
                            diagnostics_interval=10)
    return vspc.simulate(cfg, vspc.perturbed_identity_state(grid, 0.1))


@pytest.fixture(scope="session")
def run64_inviscid():
    """Perturbed-identity run, n = 64, nu = 0, to t = 1 (shared across tests)."""
    return _standard_run(64, 0.0)


@pytest.fixture(scope="session")
def run64_viscous():
    return _standard_run(64, 0.01)


@pytest.fixture(scope="session")
def run128_viscous():
    return _standard_run(128, 0.01)
