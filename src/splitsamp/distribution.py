"""Exact distributions over samples, and the arrays the checks read.

A distribution stores one int64 bitmask per sample (bit k for unit k)
and its probability; ``support`` is a read-only view, the map from each
sample as a sorted tuple of units to its probability.  ``containment``
gives P(A subset of S) for every set of units A, indexed by A's bitmask.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

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


@dataclass(eq=False)
class ExactDesignDistribution:
    """A sampling design given by the probability of every sample.

    Construction merges repeated masks, clamps rounding noise below zero
    and drops zero-probability samples, so ``masks`` ends sorted and
    distinct.  ``n`` is the target sample size; fixed-size designs have
    every sample of that size, which ``fixed_size`` reports.
    ``pruned_mass`` records probability discarded by branch pruning
    during enumeration.
    """

    masks: np.ndarray
    probs: np.ndarray
    N: int
    n: int
    source: str = ""
    pruned_mass: float = 0.0

    def __post_init__(self) -> None:
        if self.N > MAX_MASK_N:
            raise InvalidInputError(
                f"bitmask arrays hold N <= {MAX_MASK_N} units, got N={self.N}"
            )
        masks = np.asarray(self.masks, dtype=np.int64)
        probs = np.asarray(self.probs, dtype=float)
        if np.any((masks < 0) | (masks >> self.N != 0)):
            raise InvalidInputError(f"mask out of range for N={self.N}")
        if np.any(probs < PROB_FLOOR):
            i = int(np.argmax(probs < PROB_FLOOR))
            raise InvalidInputError(
                f"negative probability {float(probs[i])!r} for "
                f"{mask_units(int(masks[i]))!r}"
            )
        keep = probs > 0.0
        self.masks, merged = np.unique(masks[keep], return_inverse=True)
        self.probs = np.bincount(merged, weights=probs[keep])
        total = float(self.probs.sum()) + self.pruned_mass
        if abs(total - 1.0) > MASS_TOL:
            raise InvalidInputError(
                f"support probabilities sum to {total!r}, expected 1"
            )

    @classmethod
    def from_support(
        cls, support: Mapping, N: int, n: int, **fields
    ) -> "ExactDesignDistribution":
        """A distribution from a map of samples, each a collection of
        distinct 0-based unit indices, to probabilities."""
        masks = []
        for key in support:
            units = {int(k) for k in key}
            if len(units) != len(key):
                raise InvalidInputError(f"repeated index in support element {key!r}")
            if units and (min(units) < 0 or max(units) >= N):
                raise InvalidInputError(f"index out of range in {key!r}")
            masks.append(sum(1 << k for k in units))
        return cls(masks, list(support.values()), N, n, **fields)

    @cached_property
    def support(self) -> Mapping[tuple[int, ...], float]:
        """Read-only map from each sample, a sorted tuple of units, to its
        probability, built on first access."""
        member = members(self.masks, self.N)
        units = np.nonzero(member)[1].tolist()
        ends = np.cumsum(member.sum(axis=1)).tolist()
        keys = [tuple(units[a:b]) for a, b in zip([0] + ends, ends)]
        return MappingProxyType(dict(zip(keys, self.probs.tolist())))

    @property
    def fixed_size(self) -> bool:
        return bool(np.all(members(self.masks, self.N).sum(axis=1) == self.n))

    def total_mass(self) -> float:
        return float(self.probs.sum())

    def tv_distance(self, other: "ExactDesignDistribution") -> float:
        """Total variation distance between two distributions."""
        if self.N != other.N:
            raise InvalidInputError("distributions live on different populations")
        _, merged = np.unique(np.r_[self.masks, other.masks], return_inverse=True)
        gap = np.bincount(merged, weights=np.r_[self.probs, -other.probs])
        return 0.5 * float(np.abs(gap).sum())

    def complement(self) -> "ExactDesignDistribution":
        """Distribution of the complementary sample U minus S."""
        return ExactDesignDistribution(
            ((1 << self.N) - 1) ^ self.masks,
            self.probs,
            N=self.N,
            n=self.N - self.n,
            source=f"complement({self.source})",
            pruned_mass=self.pruned_mass,
        )

    def dump(self, ids: tuple[str, ...] | None = None) -> str:
        """CSV dump, one sample per row in sorted-tuple order:
        ``sample;probability``.

        Samples are hyphen-joined sorted ids (indices when no ids given).
        """
        if ids is not None and len(ids) != self.N:
            raise InvalidInputError("ids length must equal N")
        lines = ["sample;probability"]
        for s, p in sorted(self.support.items()):
            label = "-".join(ids[k] if ids is not None else str(k) for k in s)
            lines.append(f"{label};{p!r}")
        return "\n".join(lines) + "\n"


def mask_units(mask: int) -> tuple[int, ...]:
    """The sorted units whose bits are set in ``mask``."""
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def members(masks: np.ndarray, N: int) -> np.ndarray:
    """The 0/1 membership matrix: row i, column k is bit k of masks[i]."""
    return (masks[:, None] >> np.arange(N)) & 1


def set_sizes(N: int) -> np.ndarray:
    """|A| for all 2^N sets A, indexed by A's bitmask: the sets with bit
    k are those below 2^k, plus one."""
    size = np.zeros(1, dtype=np.int64)
    for _ in range(N):
        size = np.concatenate([size, size + 1])
    return size


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
    f = np.bincount(dist.masks, weights=dist.probs, minlength=1 << dist.N)
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
    member = members(dist.masks, dist.N)
    pi1 = dist.probs @ member
    pi2 = (member.T * dist.probs) @ member
    np.fill_diagonal(pi2, pi1)
    return pi1, pi2
