import numpy as np
import pytest

from magneton import specfun


@pytest.fixture
def rng():
    # fresh generator per test so draw order stays test-local
    return np.random.default_rng(20260822)


@pytest.fixture(scope="session")
def primes_1e6():
    return specfun.sieve_primes(10**6)


@pytest.fixture(scope="session")
def primes_2e6():
    return specfun.sieve_primes(2 * 10**6)
