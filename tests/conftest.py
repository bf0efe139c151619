import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import bridgerates as br

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def symmetric_two():
    """Unit-rate two-state chain; most closed forms below are for this one."""
    return br.validate_generator([[-1.0, 1.0], [1.0, -1.0]])


@pytest.fixture(scope="session")
def lopsided_two():
    return br.validate_generator([[-2.0, 2.0], [1.0, -1.0]])


@pytest.fixture(scope="session")
def ring_three():
    return br.validate_generator(
        [
            [-1.2, 1.0, 0.2],
            [0.3, -1.3, 1.0],
            [1.0, 0.4, -1.4],
        ]
    )


@pytest.fixture(scope="session")
def spread_three():
    """Exit rates 20 : 1 : 1, so the uniformized skeleton idles in the slow states."""
    return br.validate_generator([[-20.0, 12.0, 8.0], [0.6, -1.0, 0.4], [0.5, 0.5, -1.0]])


def random_generator(rng: np.random.Generator, n: int) -> "br.GeneratorMatrix":
    """Random irreducible generator with all off-diagonal rates positive."""
    rates = rng.uniform(0.2, 2.0, (n, n))
    np.fill_diagonal(rates, 0.0)
    rates[np.diag_indices(n)] = -rates.sum(axis=1)
    return br.validate_generator(rates)


def time_reversed(Q: "br.GeneratorMatrix") -> "br.GeneratorMatrix":
    """The time reversal of an irreducible chain: Q^_ab = pi_b Q_ba / pi_a."""
    pi = br.invariant_measure(Q).weights
    rates = Q.rates.T * pi[None, :] / pi[:, None]
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return br.validate_generator(rates)


def scaled_sweep_chains(count: int):
    """The first ``count`` of a seeded sweep of chains: n = 2 + i % 6 states,
    ``random_generator`` rates and a Dirichlet(0.5) occupation each."""
    rng = np.random.default_rng(2026)
    for i in range(count):
        n = 2 + i % 6
        Q = random_generator(rng, n)
        yield Q, rng.dirichlet(np.full(n, 0.5))
