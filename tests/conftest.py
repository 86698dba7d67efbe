"""Shared plants and designs.

Session scope everywhere: a context is cheap (its cross-Gram columns are
closed-form face integrals, a few milliseconds for ~1900 modes), but the
designs built on it are not, and the mild-plant context needs ~1900 modes
for the deepest tail the certification policy can request.
"""

import tracemalloc

import numpy as np
import pytest

from parstab.lifting import LiftingContext
from parstab.spectral_basis import PlantConfig, count_unstable, enumerate_eigenpairs
from parstab import synthesis

# drifted plant with three slow modes, sensors off the diagonal so the
# double pair stays distinguishable
EXAMPLE_SENSOR_1 = (0.53, 1.05)
EXAMPLE_SENSOR_2 = (1.05, 0.53)

# drift-free plant with a single slow mode; small enough coupling that the
# certificate closes at modest truncation
MILD_SENSOR_1 = (np.pi / 2, np.pi / 2)
MILD_SENSOR_2 = (1.2, 1.9)


@pytest.fixture(scope="session")
def example_plant():
    return PlantConfig(dim=2, drift=(3.0, 3.0), reaction=10.0, delta=0.5)


@pytest.fixture(scope="session")
def example_eigs(example_plant):
    return enumerate_eigenpairs(example_plant, 481)


@pytest.fixture(scope="session")
def example_ctx(example_eigs, example_plant):
    n0, _ = count_unstable(example_eigs, example_plant.delta)
    assert n0 == 3
    return LiftingContext(example_eigs, n0)


@pytest.fixture(scope="session")
def example_art60(example_ctx):
    return synthesis.synthesize(example_ctx, EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2, 60, 0.5)


@pytest.fixture(scope="session")
def example_art30(example_ctx):
    return synthesis.synthesize(example_ctx, EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2, 30, 0.5)


@pytest.fixture(scope="session")
def mild_plant():
    return PlantConfig(dim=2, reaction=0.5, nu=1.5, delta=1.5)


@pytest.fixture(scope="session")
def mild_ctx(mild_plant):
    eigs = enumerate_eigenpairs(mild_plant, 1921)
    n0, _ = count_unstable(eigs, mild_plant.delta)
    assert n0 == 1
    return LiftingContext(eigs, n0)


def mild_synthesize(ctx, N):
    return synthesis.synthesize(
        ctx, MILD_SENSOR_1, MILD_SENSOR_2, N, 1.5, c_ratio=2.0, gamma_base=2.0
    )


@pytest.fixture(scope="session")
def mild_art30(mild_ctx):
    return mild_synthesize(mild_ctx, 30)


@pytest.fixture(scope="session")
def quick_design(mild_ctx):
    # the design of demos/quick_certify.json: the mild plant at N = 8
    return mild_synthesize(mild_ctx, 8)


@pytest.fixture(scope="session")
def strong_design(example_plant):
    # the strong-drift demo's design (N = 60) on enough modes for N_sim = 960,
    # the loop of the wide_sim benchmark workload
    ctx = LiftingContext(enumerate_eigenpairs(example_plant, 960), 3)
    return synthesis.synthesize(ctx, EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2, 60, 0.5)


@pytest.fixture(scope="session")
def d1_plant():
    return PlantConfig(dim=1, drift=(3.0,), reaction=10.0, delta=0.5)


@pytest.fixture(scope="session")
def d1_eigs(d1_plant):
    return enumerate_eigenpairs(d1_plant, 40)


@pytest.fixture(scope="session")
def d1_ctx(d1_eigs, d1_plant):
    n0, _ = count_unstable(d1_eigs, d1_plant.delta)
    assert n0 == 2
    return LiftingContext(d1_eigs, n0)


def mode_index(eigs, multi_index):
    """Position of a separable mode in the enumeration, or raise."""
    key = tuple(int(v) for v in multi_index)
    rows = np.flatnonzero(np.all(eigs.ks == key, axis=1))
    if len(rows):
        return int(rows[0])
    raise KeyError(f"mode {key} not in the first {len(eigs)} eigenpairs")


def traced_peak(fn, *args, **kwargs) -> int:
    """Bytes allocated at the peak of fn(*args) beyond what was held before."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
