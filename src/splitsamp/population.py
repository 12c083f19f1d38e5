"""Finite populations and capped probability-proportional-to-size probabilities.

A population is an ordered list of units, each carrying a positive size
value ``x`` and a study value ``y``.  Inclusion probabilities for an
integer sample size ``n`` are proportional to ``x`` with entries capped
at 1: every unit whose proportional share reaches 1 is fixed there and
the remaining sample size is redistributed over the free units, until
all entries lie in (0, 1].  The result is the unique vector
``pi_k = min(1, lam * x_k)`` with ``sum(pi) = n``.

Population files are plain comma-separated text with a mandatory header,
either ``id,x,y`` (sizes given, probabilities computed here) or
``id,pi,y`` (probabilities given directly).  No quoting or escaping is
supported; values use ``.`` as the decimal separator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidSizeError, PopulationFileError

# |pi - 1| below this counts as "equals 1" during capping and when
# classifying certainty units.
CERTAINTY_TOL = 1e-12

# Allowed |sum(pi) - n| for a valid probability vector.
SUM_TOL = 1e-9


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass
class Population:
    """Ordered finite population with unit ids, sizes and study values."""

    ids: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        self.ids = tuple(str(i) for i in self.ids)
        self.x = _as_readonly(self.x)
        self.y = _as_readonly(self.y)
        if self.x.ndim != 1 or self.y.ndim != 1:
            raise InvalidInputError("x and y must be one-dimensional")
        if len(self.ids) != self.x.size or self.x.size != self.y.size:
            raise InvalidInputError("ids, x and y must have equal length")
        if self.x.size < 1:
            raise InvalidInputError("population must contain at least one unit")
        if not np.all(np.isfinite(self.x)) or not np.all(np.isfinite(self.y)):
            raise InvalidInputError("x and y must be finite")
        if np.any(self.x <= 0.0):
            k = int(np.argmax(self.x <= 0.0))
            raise InvalidInputError(
                f"size values must be positive; unit {self.ids[k]!r} has x={self.x[k]}"
            )
        if len(set(self.ids)) != len(self.ids):
            seen: set[str] = set()
            for i in self.ids:
                if i in seen:
                    raise InvalidInputError(f"duplicate unit id {i!r}")
                seen.add(i)

    @property
    def N(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class InclusionProbabilities:
    """First-order inclusion probabilities for a fixed integer sample size.

    Entries lie in (0, 1]; entries within ``CERTAINTY_TOL`` of 1 are
    snapped to exactly 1 and flagged as certainty units.  The entries
    must sum to ``n`` within ``SUM_TOL``.  Checked once, here, and then
    frozen, with ``pi`` a read-only copy.  ``_plans`` holds the plans the
    designs draw this pi from, per design (``designs._plan``), so they
    live as long as the pi does.
    """

    pi: np.ndarray
    n: int
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pi = np.array(self.pi, dtype=float)
        if pi.ndim != 1 or pi.size < 1:
            raise InvalidInputError("pi must be a non-empty one-dimensional vector")
        if not np.all(np.isfinite(pi)):
            raise InvalidInputError("pi must be finite")
        if int(self.n) != self.n:
            raise InvalidInputError(f"n must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if not 1 <= self.n <= pi.size:
            raise InvalidSizeError(f"invalid size: n={self.n} outside 1..{pi.size}")
        if np.any(pi <= 0.0):
            raise InvalidInputError("inclusion probabilities must be positive")
        if np.any(pi > 1.0 + CERTAINTY_TOL):
            k = int(np.argmax(pi))
            raise InvalidInputError(
                f"inclusion probability above 1 at index {k}: {pi[k]!r}"
            )
        if abs(float(pi.sum()) - self.n) > SUM_TOL:
            raise InvalidInputError(
                f"inclusion probabilities sum to {pi.sum()!r}, expected n={self.n}"
            )
        pi[pi >= 1.0 - CERTAINTY_TOL] = 1.0
        object.__setattr__(self, "pi", _as_readonly(pi))

    @property
    def N(self) -> int:
        return self.pi.size

    @property
    def certain(self) -> np.ndarray:
        """Boolean mask of units included with probability one."""
        return self.pi == 1.0

    def is_equal_probability(self) -> bool:
        """True when every entry equals n/N within ``CERTAINTY_TOL``."""
        return bool(np.max(np.abs(self.pi - self.n / self.N)) <= CERTAINTY_TOL)


@dataclass
class StudyVector:
    """Expanded study values y_k / pi_k and the statistics used by bounds.

    ``sup_abs`` and ``sum_sq`` refer to the expanded values; ``sup_y_abs``
    and ``sup_y2_over_pi`` to the raw study values.
    """

    y_check: np.ndarray
    sup_abs: float = field(init=False)
    sum_sq: float = field(init=False)
    sup_y_abs: float = field(init=False)
    sup_y2_over_pi: float = field(init=False)
    _y: np.ndarray | None = None
    _pi: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.y_check = _as_readonly(self.y_check)
        if self.y_check.ndim != 1 or self.y_check.size < 1:
            raise InvalidInputError("y_check must be a non-empty vector")
        self.sup_abs = float(np.max(np.abs(self.y_check)))
        self.sum_sq = float(np.sum(self.y_check * self.y_check))
        if self._y is not None and self._pi is not None:
            self.sup_y_abs = float(np.max(np.abs(self._y)))
            self.sup_y2_over_pi = float(np.max(self._y * self._y / self._pi))
        else:
            # Without the raw values the expanded ones are the best we have.
            self.sup_y_abs = self.sup_abs
            self.sup_y2_over_pi = float(np.max(self.y_check * self.y_check))

    @property
    def N(self) -> int:
        return self.y_check.size


def study_vector(pop: Population, pi: InclusionProbabilities) -> StudyVector:
    """Expand a population's study values by its inclusion probabilities."""
    if pop.N != pi.N:
        raise InvalidInputError(
            f"population has {pop.N} units but pi has {pi.N} entries"
        )
    return StudyVector(y_check=pop.y / pi.pi, _y=pop.y, _pi=pi.pi)


def _check_sizes(x) -> np.ndarray:
    """Size values as a float array: one-dimensional, non-empty, positive
    and finite, or ``InvalidInputError``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise InvalidInputError("x must be a non-empty one-dimensional vector")
    # Two reductions; a NaN fails both.
    if not (x.min() > 0.0 and x.max() < np.inf):
        raise InvalidInputError("size values must be positive and finite")
    return x


def compute_pips(x: np.ndarray, n: int) -> InclusionProbabilities:
    """Capped probability-proportional-to-size inclusion probabilities.

    Starts from ``n * x_k / sum(x)``; while any entry reaches 1, those
    entries are fixed at 1 simultaneously and the remaining sample size
    is redistributed proportionally over the free units.  A share within
    ``CERTAINTY_TOL`` of 1 counts as reaching it, unless capping it would
    leave the other free units no sample size; then it stays exact.
    Terminates in at most N passes.  The result is scale invariant in
    ``x``.

    Args:
        x: positive size values, one per unit.
        n: integer sample size with 1 <= n <= len(x).

    Returns:
        InclusionProbabilities summing to ``n`` with entries in (0, 1].
    """
    x = _check_sizes(x)
    N = x.size
    if int(n) != n:
        raise InvalidInputError(f"n must be an integer, got {n!r}")
    n = int(n)
    if not 1 <= n <= N:
        raise InvalidSizeError(f"invalid size: n={n} outside 1..{N}")

    pi = np.empty(N, dtype=float)
    fixed = np.zeros(N, dtype=bool)
    # A total that overflows gives shares of 0 or NaN, with no warning:
    # the check below names the sizes.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(N):
            free = ~fixed
            remaining = n - int(fixed.sum())
            if not free.any():
                break
            pi[free] = remaining * x[free] / float(x[free].sum())
            over = free & (pi >= 1.0 - CERTAINTY_TOL)
            if over.sum() >= remaining and (free & ~over).any():
                # Capping by tolerance would leave the other free units no
                # sample size: only shares above 1 take the cap.
                over &= pi > 1.0
            if not over.any():
                break
            pi[over] = 1.0
            fixed |= over
    pi[fixed] = 1.0
    # A share that underflows to 0, or a total that overflows, is the
    # sizes' fault, not a pi the caller gave.
    if not pi.min() > 0.0:
        k = int(np.argmin(pi > 0.0))
        raise InvalidInputError(
            f"size values overflow or underflow their shares: unit {k} with "
            f"x={float(x[k])!r} gets the share {float(pi[k])!r}"
        )
    return InclusionProbabilities(pi=pi, n=n)


_SCHEMAS = {"x": ("id", "x", "y"), "pi": ("id", "pi", "y")}


def load_population(path: str) -> tuple[Population, InclusionProbabilities | None]:
    """Load a population file.

    The header row decides the schema: ``id,x,y`` carries sizes and the
    caller computes probabilities later; ``id,pi,y`` carries the
    probabilities directly, which must sum to an integer within
    ``SUM_TOL``.  For the ``pi`` schema the probabilities double as the
    size variable (capped shares are scale free, so this is exact).

    Args:
        path: file to read (UTF-8, with or without a byte-order mark).

    Returns:
        (population, probabilities); probabilities is None for the "x"
        schema.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # A byte-order mark is not part of the header.
            lines = fh.read().removeprefix("\ufeff").splitlines()
    except OSError as exc:
        raise PopulationFileError(f"cannot read {path!r}: {exc}") from exc
    if not lines:
        raise PopulationFileError(f"{path!r} is empty")

    header = tuple(f.strip() for f in lines[0].split(","))
    found = None
    for name, cols in _SCHEMAS.items():
        if header == cols:
            found = name
    if found is None:
        raise PopulationFileError(
            f"line 1: header must be 'id,x,y' or 'id,pi,y', got {lines[0]!r}"
        )

    ids: list[str] = []
    values: list[float] = []
    ys: list[float] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise PopulationFileError(
                f"line {lineno}: expected 3 comma-separated fields, got {len(fields)}"
            )
        uid = fields[0].strip()
        if not uid:
            raise PopulationFileError(f"line {lineno}: empty id")
        if uid in seen:
            raise PopulationFileError(f"line {lineno}: duplicate id {uid!r}")
        seen.add(uid)
        try:
            v, w = float(fields[1]), float(fields[2])
        except ValueError as exc:
            raise PopulationFileError(f"line {lineno}: {exc}") from exc
        if not math.isfinite(v) or not math.isfinite(w):
            raise PopulationFileError(f"line {lineno}: non-finite value")
        if found == "x" and v <= 0.0:
            raise PopulationFileError(f"line {lineno}: x must be positive, got {v}")
        if found == "pi" and not 0.0 < v <= 1.0 + CERTAINTY_TOL:
            raise PopulationFileError(
                f"line {lineno}: pi must lie in (0, 1], got {v}"
            )
        ids.append(uid)
        values.append(v)
        ys.append(w)
    if not ids:
        raise PopulationFileError(f"{path!r} contains a header but no rows")

    vals = np.asarray(values, dtype=float)
    if found == "x":
        return Population(ids=tuple(ids), x=vals, y=np.asarray(ys)), None

    total = float(vals.sum())
    n = round(total)
    if n < 1 or abs(total - n) > SUM_TOL:
        raise PopulationFileError(
            f"pi column sums to {total!r}, which is not a positive integer"
        )
    pop = Population(ids=tuple(ids), x=vals, y=np.asarray(ys))
    return pop, InclusionProbabilities(pi=vals, n=n)
