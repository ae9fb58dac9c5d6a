import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

import vspc

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic; tests set only max_examples.
settings.register_profile("vspc", deadline=None, derandomize=True, database=None)
settings.load_profile("vspc")


def pytest_report_header(config):
    # pyproject.toml puts this tree's src/ first on sys.path, ahead of
    # PYTHONPATH: a suite run from another tree's root tests that tree
    return f"vspc imported from {vspc.__file__}"


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


# ---------------------------------------------------------------------------
# allocation and page-fault meters, shared by the solver and sampler tests

@contextlib.contextmanager
def traced_spans():
    """Trace allocations for the block; yields span(), which returns the peak
    traced bytes since its last call (or the block's start) above the bytes
    traced then, and starts the next span."""
    tracemalloc.start()
    base = [tracemalloc.get_traced_memory()[0]]

    def span():
        peak = tracemalloc.get_traced_memory()[1] - base[0]
        tracemalloc.reset_peak()
        base[0] = tracemalloc.get_traced_memory()[0]
        return peak

    try:
        yield span
    finally:
        tracemalloc.stop()


def traced_peak(fn):
    """The peak traced bytes while fn() runs, above the bytes traced when it began."""
    with traced_spans() as span:
        fn()
        return span()


def minor_faults():
    """This process's minor page faults so far (an ever-growing count)."""
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def overflowing_forcing(grid, onset):
    """A deformation forcing that jumps from 0 to 1e160·(sin x₂, 0; 0, sin x₁) at onset:
    the states it drives stay finite, but their squares overflow."""
    x1, x2 = grid.mesh()
    zero = np.zeros_like(x1)
    fields = [vspc.TensorField.from_columns(vspc.VectorField.from_samples(grid, a, zero),
                                            vspc.VectorField.from_samples(grid, zero, b))
              for a, b in ((zero, zero), (1e160 * np.sin(x2), 1e160 * np.sin(x1)))]
    return vspc.ForcingSpec(g_u=None, g_F=lambda t: fields[t >= onset])
