import os

import numpy as np
import pytest
from hypothesis import settings

from gliomics.phantom import PhantomSpec, generate_cohort, generate_phantom
from gliomics.volume import LabelMap, Volume

# in CI a failing hypothesis draw prints its @reproduce_failure line, so the
# draw can be replayed from the log; the profile changes nothing else
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def identity_volume():
    """Small asymmetric volume with identity-scaled affine."""
    rng = np.random.default_rng(7)
    data = rng.normal(50.0, 10.0, size=(9, 7, 5))
    return Volume(data, (1.0, 1.0, 1.0), np.eye(4))


@pytest.fixture(scope="session")
def small_phantom():
    spec = PhantomSpec(grade=4, seed=5)
    vols, lm = generate_phantom(spec)
    return vols, lm


@pytest.fixture(scope="session")
def tiny_cohort():
    # 3 per grade keeps every test that only needs structure fast
    return generate_cohort(n_per_grade=(3, 3, 3), base_seed=11)


def make_labelmap(assignments, dims=(12, 12, 12), spacing=(1.0, 1.0, 1.0)):
    """Labelmap from {label: list of (x, y, z)} voxel assignments."""
    data = np.zeros(dims, dtype=np.int16)
    for label, voxels in assignments.items():
        for v in voxels:
            data[v] = label
    return LabelMap(data, spacing, np.diag([*spacing, 1.0]))
