from itertools import combinations
from math import fsum

import numpy as np
import pytest

from splitsamp import (
    DesignKind,
    ExactDesignDistribution,
    compute_pips,
    enumerate_design,
)

UNEQUAL_DESIGNS = (
    DesignKind.CHAO,
    DesignKind.TILLE_ELIMINATION,
    DesignKind.GENERALIZED_MIDZUNO,
    DesignKind.BREWER,
)

# At n = 4 the last unit is a certainty unit, and over the first ladder
# steps the other units leave the cap a few at a time.
X_CERTAIN = np.array(
    [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 40.0]
)

# Frames where capping one unit within CERTAINTY_TOL of 1 would leave
# the other free units no sample size, as (x, n).  In the third, that
# unit's exact share rounds to 1.0.
NEAR_ONE_CAP_FRAMES = (
    (np.array([1.2, 1.7, 1e-13, 1e-13]), 2),
    (np.array([0.2769, 2.42e-16, 30.48]), 2),
    (np.array([0.2424993950470044, 1.9248904058999543e-18,
               23.48157294309033, 280.53529153061976]), 3),
)


@pytest.fixture(scope="session")
def x123456():
    return np.arange(1.0, 7.0)


@pytest.fixture(scope="session")
def pi123456(x123456):
    return compute_pips(x123456, 3)


@pytest.fixture(scope="session")
def enumerated_123456(x123456, pi123456):
    """Exact distributions of the four unequal-probability designs on
    x = 1..6, n = 3.  Enumeration is the slow part; share it."""
    return {
        kind: enumerate_design(kind, x=x123456, pi=pi123456, n=3)
        for kind in UNEQUAL_DESIGNS
    }


def splitmix64_reference(state):
    """Textbook splitmix64, written independently of the library: the
    next state and its output."""
    mask = (1 << 64) - 1
    state = (state + 0x9E3779B97F4A7C15) & mask
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return state, (z ^ (z >> 31)) & mask


def splitmix64_mix(z):
    """The splitmix64 finalizer alone: the output of the state z."""
    return splitmix64_reference((z - 0x9E3779B97F4A7C15) % (1 << 64))[1]


class ReferenceStream:
    """A seed's uniforms in pure Python, one per ``random()`` call: the
    splitmix64 walk from the key mix(lo ^ mix(hi)) of the seed's 64-bit
    words, each output's top 53 bits scaled to [0, 1)."""

    def __init__(self, seed: int):
        mask = (1 << 64) - 1
        self.state = splitmix64_mix((seed & mask) ^ splitmix64_mix(seed >> 64))

    def random(self) -> float:
        self.state, out = splitmix64_reference(self.state)
        return (out >> 11) * 2.0**-53


def random_fixed_size(seed: int) -> ExactDesignDistribution:
    """A seeded fixed-size distribution with 4 <= N <= 7: Dirichlet(0.3)
    masses on a random third of the n-subsets, so that some conditioning
    sets have probability zero."""
    rng = np.random.default_rng(seed)
    N = int(rng.integers(4, 8))
    n = int(rng.integers(1, N + 1))
    subsets = list(combinations(range(N), n))
    keep = rng.permutation(len(subsets))[: max(1, len(subsets) // 3)]
    masses = rng.dirichlet(np.full(keep.size, 0.3))
    return ExactDesignDistribution.from_support(
        support={subsets[i]: m for i, m in zip(keep, masses)}, N=N, n=n
    )


def dirichlet_design(N: int, n: int, seed: int = 0) -> ExactDesignDistribution:
    """Dirichlet(0.3) masses on every n-subset of N units."""
    subsets = list(combinations(range(N), n))
    masses = np.random.default_rng(seed).dirichlet(np.full(len(subsets), 0.3))
    return ExactDesignDistribution.from_support(
        support=dict(zip(subsets, masses)), N=N, n=n
    )


def contains(dist: ExactDesignDistribution, *units: int) -> float:
    """P(units subset of S), summed over the support map."""
    return fsum(p for s, p in dist.support.items() if set(units) <= set(s))
