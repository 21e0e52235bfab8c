import os

# one BLAS thread, set before numpy loads its BLAS: with more, each small
# banded factorisation of a 2D cell runs several times slower
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
