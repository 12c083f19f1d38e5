"""Monte Carlo estimation of tail probabilities and bound certification.

Replicates are driven by per-replicate seeds derived from one master
seed with a splitmix64 step, so runs are reproducible and independent of
replicate order.  ``derive_seed`` defines a replicate's seed; the Monte
Carlo loop computes a whole chunk's seeds as one uint64 array with the
same bits, and the samplers key that array in one more pass, so no
Python runs per replicate.  Empirical tail frequencies carry a Wilson
score upper confidence limit; a bound is certified against the estimate
only when the frequency exceeds it by more than that statistical margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .designs import (
    GOLDEN,
    MASK64,
    DesignKind,
    _is_integer,
    _mix,
    make_sampler,
    splitmix,
)
from .errors import InvalidInputError
from .population import InclusionProbabilities

# One-sided 99% normal quantile for the Wilson limit.
DEFAULT_Z = NormalDist().inv_cdf(0.99)

# Rows per lockstep chunk times the sampler's ``row_cells``, the widest
# block its kernel holds per row: keeps a chunk's largest block near 1 MB.
_CHUNK_CELLS = 1 << 17


def derive_seed(master_seed: int, index: int) -> int:
    """Seed for replicate ``index``: splitmix64 output ``index + 1``
    steps past ``master_seed``, a state in [0, 2**64)."""
    if not (_is_integer(master_seed) and 0 <= master_seed <= MASK64):
        raise InvalidInputError(
            f"master seed must be an integer in [0, 2**64), got {master_seed!r}"
        )
    if not (_is_integer(index) and index >= 0):
        raise InvalidInputError(
            f"replicate index must be a nonnegative integer, got {index!r}"
        )
    return splitmix((int(master_seed) + (int(index) + 1) * GOLDEN) & MASK64)


def _chunk_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """``derive_seed(master_seed, r)`` for r in [start, stop), as one
    uint64 array.  Array arithmetic wraps mod 2**64 without a warning."""
    z = np.arange(start + 1, stop + 1, dtype=np.uint64) * GOLDEN
    z += np.uint64(master_seed)
    return _mix(z)


def wilson_upper(successes: int, trials: int) -> float:
    """Upper Wilson score confidence limit for a binomial proportion, at
    the one-sided 99% quantile ``DEFAULT_Z``."""
    if trials <= 0:
        raise InvalidInputError("trials must be positive")
    if not 0 <= successes <= trials:
        raise InvalidInputError("successes outside 0..trials")
    p = successes / trials
    z = DEFAULT_Z
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (z / denom) * np.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    return float(min(1.0, center + half))


@dataclass(frozen=True)
class TailEstimate:
    """Empirical tail of the normalized estimation error on a grid.

    ``count_one[i]`` replicates of ``replicates`` have (t_hat - t_y)/N
    >= eps[i], and ``count_two[i]`` have |t_hat - t_y|/N >= eps[i];
    ``errors`` keeps the raw normalized errors for reuse.
    """

    kind: str
    N: int
    n: int
    replicates: int
    master_seed: int
    eps: np.ndarray
    count_one: np.ndarray
    count_two: np.ndarray
    errors: np.ndarray


def estimate_tail(
    kind: DesignKind,
    *,
    y: np.ndarray,
    eps_grid: Sequence[float] | np.ndarray,
    replicates: int,
    master_seed: int = 0,
    pi: InclusionProbabilities | None = None,
    x: np.ndarray | None = None,
    n: int | None = None,
    N: int | None = None,
) -> TailEstimate:
    """Estimate the error tail of a design by repeated sampling.

    One sample is drawn per replicate with its derived seed, the
    Horvitz-Thompson error is normalized by N, and exceedance counts are
    taken on the grid.  Replicates are drawn in chunks that step in
    lockstep, ``_CHUNK_CELLS // draw.row_cells`` rows each; each row
    still uses only its own seed, so ``errors[r]`` is exactly the error
    of ``draw(derive_seed(master_seed, r))``.  A chunk's seeds are one
    uint64 array, computed in one pass with the bits of ``derive_seed``.
    Chao streams the population in order.

    The design's plan is kept on pi (``designs._plan``), so calls on one
    pi build it once: keep the pi that ``make_sampler`` returns, or that
    ``compute_pips`` gave, and pass it.  A call with x and n but no pi
    computes a new pi and plans afresh.
    """
    # Rejects a master seed outside [0, 2**64) before any draw.
    derive_seed(master_seed, 0)
    if not _is_integer(replicates) or replicates < 1:
        raise InvalidInputError(
            f"replicates must be a positive integer, got {replicates!r}"
        )
    eps = np.asarray(eps_grid, dtype=float)
    # NaN fails >= 0, so a NaN point is rejected with the negative ones.
    if eps.ndim != 1 or eps.size == 0 or not np.all(eps >= 0):
        raise InvalidInputError(
            "eps grid must be a nonempty 1-D array of nonnegative numbers"
        )
    draw, pi = make_sampler(kind, pi=pi, x=x, n=n, N=N)
    y = np.asarray(y, dtype=float)
    if y.size != pi.N:
        raise InvalidInputError("y must have one entry per unit")
    if not np.all(np.isfinite(y)):
        raise InvalidInputError("y must be finite")
    y_check = y / pi.pi
    t_y = float(y.sum())
    scale = float(pi.N)
    errors = np.empty(replicates)
    chunk = max(1, _CHUNK_CELLS // draw.row_cells)
    for start in range(0, replicates, chunk):
        stop = min(start + chunk, replicates)
        seeds = _chunk_seeds(master_seed, start, stop)
        errors[start:stop] = (y_check[draw.rows(seeds)].sum(axis=1) - t_y) / scale
    signed = np.sort(errors)
    absolute = np.sort(np.abs(errors))
    count_one = replicates - np.searchsorted(signed, eps, side="left")
    count_two = replicates - np.searchsorted(absolute, eps, side="left")
    return TailEstimate(
        kind=kind.value,
        N=pi.N,
        n=pi.n,
        replicates=replicates,
        master_seed=master_seed,
        eps=eps,
        count_one=count_one.astype(int),
        count_two=count_two.astype(int),
        errors=errors,
    )


@dataclass(frozen=True)
class CertRow:
    """One grid point of a certification: does the bound hold up?"""

    eps: float
    freq: float
    wilson: float
    bound: float
    passed: bool


def certify(
    tail: TailEstimate,
    bound: Callable[[float], float] | Sequence[float] | np.ndarray,
    *,
    two_sided: bool = False,
) -> list[CertRow]:
    """Check an analytic tail bound against the empirical estimate.

    A grid point passes when the frequency, its count over the
    replicates, does not exceed the bound by more than the Wilson margin:
    freq <= bound + (wilson - freq), wilson the count's ``wilson_upper``.
    ``bound`` is either a vector aligned with the grid or a callable of
    eps.
    """
    if callable(bound):
        values = np.array([float(bound(float(e))) for e in tail.eps])
    else:
        values = np.asarray(bound, dtype=float)
        if values.size != tail.eps.size:
            raise InvalidInputError("bound vector does not match the eps grid")
    counts = tail.count_two if two_sided else tail.count_one
    rows = []
    for i, c in enumerate(counts.tolist()):
        freq = c / tail.replicates
        wilson = wilson_upper(c, tail.replicates)
        rows.append(
            CertRow(
                eps=float(tail.eps[i]),
                freq=freq,
                wilson=wilson,
                bound=float(values[i]),
                passed=bool(freq <= values[i] + (wilson - freq)),
            )
        )
    return rows
