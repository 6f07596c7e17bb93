import numpy as np
import pytest


@pytest.fixture
def rng():
    # fresh generator per test so draw order stays test-local
    return np.random.default_rng(20260822)
