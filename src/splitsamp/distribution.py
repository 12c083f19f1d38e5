"""Exact distributions over samples, and the arrays the checks read.

The support map takes each sample, a sorted tuple of units, to its
probability.  ``support_arrays`` gives an int bitmask per sample (bit k
for unit k) with its probability, and ``containment`` the table of
P(A subset of S) for every set of units A, indexed by A's bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Probabilities below this magnitude may be negative due to rounding and
# are clamped to zero.
PROB_FLOOR = -1e-15

# Allowed |total probability - 1| after accounting for pruned mass.
MASS_TOL = 1e-9

# Largest population for a containment table: 2^20 floats, 8 MB.
MAX_CONTAINMENT_N = 20

# Masks are int64, so bitmask arrays hold at most this many units.
MAX_MASK_N = 63


@dataclass
class ExactDesignDistribution:
    """A sampling design given by the full map sample -> probability.

    Keys are sorted tuples of 0-based unit indices.  ``n`` is the target
    sample size; fixed-size designs have every support element of that
    size, which ``fixed_size`` reports.  ``pruned_mass`` records
    probability discarded by branch pruning during enumeration.
    """

    support: dict[tuple[int, ...], float]
    N: int
    n: int
    source: str = ""
    pruned_mass: float = 0.0

    def __post_init__(self) -> None:
        cleaned: dict[tuple[int, ...], float] = {}
        for key, p in self.support.items():
            t = tuple(sorted(int(k) for k in key))
            if len(set(t)) != len(t):
                raise InvalidInputError(f"repeated index in support element {key!r}")
            if t and (t[0] < 0 or t[-1] >= self.N):
                raise InvalidInputError(f"index out of range in {key!r}")
            p = float(p)
            if p < PROB_FLOOR:
                raise InvalidInputError(f"negative probability {p!r} for {key!r}")
            p = max(p, 0.0)
            if p > 0.0:
                cleaned[t] = cleaned.get(t, 0.0) + p
        total = sum(cleaned.values()) + self.pruned_mass
        if abs(total - 1.0) > MASS_TOL:
            raise InvalidInputError(
                f"support probabilities sum to {total!r}, expected 1"
            )
        self.support = cleaned

    @property
    def fixed_size(self) -> bool:
        return all(len(s) == self.n for s in self.support)

    def total_mass(self) -> float:
        return float(sum(self.support.values()))

    def tv_distance(self, other: "ExactDesignDistribution") -> float:
        """Total variation distance between two support maps."""
        if self.N != other.N:
            raise InvalidInputError("distributions live on different populations")
        keys = set(self.support) | set(other.support)
        return 0.5 * sum(
            abs(self.support.get(k, 0.0) - other.support.get(k, 0.0)) for k in keys
        )

    def complement(self) -> "ExactDesignDistribution":
        """Distribution of the complementary sample U minus S."""
        masks, probs = support_arrays(self)
        full = (1 << self.N) - 1
        return ExactDesignDistribution(
            support=dict(zip(map(mask_units, (full ^ masks).tolist()), probs.tolist())),
            N=self.N,
            n=self.N - self.n,
            source=f"complement({self.source})",
            pruned_mass=self.pruned_mass,
        )

    def dump(self, ids: tuple[str, ...] | None = None) -> str:
        """CSV dump, one support element per row: ``sample;probability``.

        Samples are hyphen-joined sorted ids (indices when no ids given).
        """
        if ids is not None and len(ids) != self.N:
            raise InvalidInputError("ids length must equal N")
        lines = ["sample;probability"]
        rows = []
        for s, p in self.support.items():
            label = "-".join(ids[k] if ids is not None else str(k) for k in s)
            rows.append((s, label, p))
        rows.sort(key=lambda r: r[0])
        for _, label, p in rows:
            lines.append(f"{label};{p!r}")
        return "\n".join(lines) + "\n"


def mask_units(mask: int) -> tuple[int, ...]:
    """The sorted units whose bits are set in ``mask``."""
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def support_arrays(
    dist: ExactDesignDistribution,
) -> tuple[np.ndarray, np.ndarray]:
    """The support as an int64 bitmask per sample and its probability."""
    if dist.N > MAX_MASK_N:
        raise InvalidInputError(
            f"bitmask arrays hold N <= {MAX_MASK_N} units, got N={dist.N}"
        )
    count = len(dist.support)
    masks = np.fromiter(
        (sum(1 << k for k in s) for s in dist.support), np.int64, count
    )
    return masks, np.fromiter(dist.support.values(), float, count)


def containment(dist: ExactDesignDistribution) -> np.ndarray:
    """P(A subset of S) for all 2^N sets A, indexed by A's bitmask.

    Starts from P(S = A) and, for each unit k, adds the entry of A + k
    to that of every A without k (a superset-sum pass).  Entry 0 is the
    total support mass.
    """
    if dist.N > MAX_CONTAINMENT_N:
        raise InvalidInputError(
            f"containment tables hold 2^N floats and support "
            f"N <= {MAX_CONTAINMENT_N}, got N={dist.N}"
        )
    masks, probs = support_arrays(dist)
    f = np.bincount(masks, weights=probs, minlength=1 << dist.N)
    for k in range(dist.N):
        half = f.reshape(-1, 2, 1 << k)
        half[:, 0] += half[:, 1]
    return f


def first_second_order(
    dist: ExactDesignDistribution,
) -> tuple[np.ndarray, np.ndarray]:
    """First- and second-order inclusion probabilities of a distribution.

    Returns (pi1, pi2) with pi2 symmetric and its diagonal equal to pi1.
    """
    masks, probs = support_arrays(dist)
    member = (masks[:, None] >> np.arange(dist.N)) & 1
    pi1 = probs @ member
    pi2 = (member.T * probs) @ member
    np.fill_diagonal(pi2, pi1)
    return pi1, pi2
