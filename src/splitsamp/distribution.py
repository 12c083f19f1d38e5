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
    pruned_mass: float = 0.0

    def __post_init__(self) -> None:
        if self.N > MAX_MASK_N:
            raise InvalidInputError(
                f"bitmask arrays hold N <= {MAX_MASK_N} units, got N={self.N}"
            )
        masks = np.array(self.masks, dtype=np.int64)
        probs = np.array(self.probs, dtype=float)
        if np.any((masks < 0) | (masks >> self.N != 0)):
            raise InvalidInputError(f"mask out of range for N={self.N}")
        # Written so that NaN fails it too.
        if not np.all(probs >= PROB_FLOOR):
            i = int(np.argmin(probs >= PROB_FLOOR))
            raise InvalidInputError(
                f"negative or NaN probability {float(probs[i])!r} for "
                f"{mask_units(int(masks[i]))!r}"
            )
        if np.all(probs > 0.0) and np.all(masks[1:] > masks[:-1]):
            # Already sorted, distinct and positive: the merge below would
            # return them unchanged.
            self.masks, self.probs = masks, probs
        else:
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
        """Every sample has n units: each mask's bits counted a byte at a
        time, without the membership matrix."""
        sizes = sum(_BYTE_SIZES[(self.masks >> b) & 0xFF] for b in range(0, self.N, 8))
        return bool(np.all(sizes == self.n))

    def tv_distance(self, other: "ExactDesignDistribution") -> float:
        """Total variation distance between two distributions."""
        if self.N != other.N:
            raise InvalidInputError("distributions live on different populations")
        # Both mask arrays are sorted and distinct, so the sorted union is
        # a merge: a mask's slot in it is its rank in its own array plus
        # the count of the other's masks below it that are not shared.
        a, b = self.masks, other.masks
        below = np.searchsorted(a, b)
        new = np.searchsorted(a, b, side="right") == below
        gap = np.zeros(a.size + int(np.count_nonzero(new)))
        gap[np.arange(a.size) + np.searchsorted(b[new], a)] = self.probs
        gap[below + np.cumsum(new) - new] -= other.probs
        return 0.5 * float(np.abs(gap).sum())

    def dump(self) -> str:
        """CSV dump, one sample per row in sorted-tuple order:
        ``sample;probability``, a sample as its hyphen-joined sorted unit
        indices."""
        lines = ["sample;probability"]
        for s, p in sorted(self.support.items()):
            lines.append(f"{'-'.join(map(str, s))};{p!r}")
        return "\n".join(lines) + "\n"


def mask_units(mask: int) -> tuple[int, ...]:
    """The sorted units whose bits are set in ``mask``."""
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def members(masks: np.ndarray, N: int) -> np.ndarray:
    """The 0/1 membership matrix: row i, column k is bit k of masks[i]."""
    return (masks[:, None] >> np.arange(N)) & 1


# The number of set bits of every byte.
_BYTE_SIZES = np.array([bin(b).count("1") for b in range(256)])


def set_sizes(N: int) -> np.ndarray:
    """|A| for all 2^N sets A, indexed by A's bitmask: the count of A's
    low byte from ``_BYTE_SIZES`` plus that of its higher bits."""
    low = _BYTE_SIZES[: 1 << min(N, 8)]
    if N <= 8:
        return low.copy()
    return (set_sizes(N - 8)[:, None] + low).ravel()


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
    pi1 = _first_order(dist, member)
    pi2 = (member.T * dist.probs) @ member
    np.fill_diagonal(pi2, pi1)
    return pi1, pi2


def _first_order(
    dist: ExactDesignDistribution, member: np.ndarray | None = None
) -> np.ndarray:
    """First-order inclusion probabilities alone, without the N x N pi2
    of ``first_second_order``; ``member`` is the membership matrix, if
    the caller has it."""
    if member is None:
        member = members(dist.masks, dist.N)
    return dist.probs @ member
