"""Exponential tail bounds for the Horvitz-Thompson estimator.

All bounds control Pr(t_hat - t_y >= N * eps) for fixed-size designs
whose indicator vector admits a splitting (martingale) representation
with per-step L1 increments at most 2.  Writing v_k = y_k / pi_k for
the expanded study values:

* concentration bound ("cna"):      exp(-N^2 eps^2 / (8 n sup_k v_k^2))
* same bound in (M, c) form:        exp(-n c^2 eps^2 / (8 M^2))
  under |y_k| <= M and pi_k >= c n / N
* Bernstein-type bound:             2 exp(-eps^2 N / (8 (1 - n/N) sup_k y_k^2/pi_k
                                      + (4/3) eps sup_k |v_k|))
* Lipschitz bound:                  exp(-N^2 eps^2 / (8 n sum_k v_k^2))

The first bound never exceeds the Lipschitz bound because
sup v^2 <= sum v^2.  Two-sided variants multiply by 2.  Reported values
are clamped to [0, 2]; the raw exponentials stay available.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError, NotApplicableError
from .population import StudyVector

# Grid size for dominance scans over an epsilon range.
DOMINANCE_GRID = 512

_SMALL_COEF = (math.log(2.0) * 8.0 / 9.0) ** (1.0 / 3.0)
_LARGE_COEF = math.log(2.0) * 8.0 / 9.0
_EPS_LIMIT_COEF = 3.0 - math.sqrt(2.0)


def _is_finite(v) -> bool:
    """Whether v converts to a finite float."""
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


def _square(name: str, v: float) -> float:
    """v squared as a float; raises InvalidInputError where the square
    overflows."""
    try:
        return float(v) ** 2
    except OverflowError:
        raise InvalidInputError(f"{name} is too large: its square overflows") from None


class VacuousToleranceWarning(UserWarning):
    """The requested tolerance is met by zero samples."""


@dataclass(frozen=True)
class BoundInputs:
    """Everything the bounds need, as plain statistics.

    ``n`` may be fractional (average sample size); ``equal_probability``
    marks the pi_k = n/N case, which unlocks ``eps_star``.  ``M`` and
    ``c`` feed the (M, c) form: |y_k| <= M and pi_k >= c n / N.
    """

    N: int
    n: float
    eps: float
    sup_ycheck: float
    sum_sq_ycheck: float
    sup_y: float
    sup_y2_over_pi: float
    M: float | None = None
    c: float | None = None
    equal_probability: bool = False

    def __post_init__(self) -> None:
        if self.N < 1:
            raise InvalidInputError("N must be at least 1")
        if not _is_finite(self.N**2):
            raise InvalidInputError("N is too large: N^2 overflows a float")
        if not 0 < self.n <= self.N:
            raise InvalidInputError(f"n must lie in (0, N], got {self.n!r}")
        if not _is_finite(self.eps) or self.eps < 0:
            raise InvalidInputError("eps must be finite and nonnegative")
        for name in ("sup_ycheck", "sum_sq_ycheck", "sup_y", "sup_y2_over_pi"):
            v = getattr(self, name)
            if not _is_finite(v) or v < 0:
                raise InvalidInputError(f"{name} must be finite and nonnegative")
        sup_sq = _square("sup_ycheck", self.sup_ycheck)
        if sup_sq > self.sum_sq_ycheck * (1.0 + 1e-9) + 1e-300:
            raise InvalidInputError(
                "inconsistent statistics: sup_ycheck^2 exceeds sum_sq_ycheck"
            )
        if self.M is not None:
            if not _is_finite(self.M) or self.M < 0:
                raise InvalidInputError("M must be finite and nonnegative")
            _square("M", self.M)
        if self.c is not None:
            if not _is_finite(self.c) or self.c <= 0:
                raise InvalidInputError("c must be finite and positive")
            _square("c", self.c)

    @classmethod
    def from_study(cls, sv: StudyVector, *, n: float, eps: float) -> "BoundInputs":
        return cls(
            N=sv.N,
            n=n,
            eps=eps,
            sup_ycheck=sv.sup_abs,
            sum_sq_ycheck=sv.sum_sq,
            sup_y=sv.sup_y_abs,
            sup_y2_over_pi=sv.sup_y2_over_pi,
        )


def _eps_of(inputs: BoundInputs, eps: float | None) -> float:
    if eps is None:
        return inputs.eps
    if not _is_finite(eps) or eps < 0:
        raise InvalidInputError("eps must be finite and nonnegative")
    return float(eps)


def _subgaussian_tail(e: float, a: float, denom: float) -> float:
    """exp(-a e^2 / denom), the shape the concentration bounds share:
    1 at e == 0, and 0 when denom is 0 (or so small it underflowed), as
    the exponent is then effectively -inf."""
    if e == 0.0:
        return 1.0
    if denom == 0.0:
        return 0.0
    return math.exp(-a * e * e / denom)


def cna_bound(inputs: BoundInputs, eps: float | None = None) -> float:
    """One-sided tail bound from the uniform L1-increment constant.

    Degenerate cases: eps == 0 gives 1; y identically zero with eps > 0
    gives 0.
    """
    e = _eps_of(inputs, eps)
    return _subgaussian_tail(e, inputs.N**2, 8.0 * inputs.n * inputs.sup_ycheck**2)


def cna_bound_Mc(inputs: BoundInputs, eps: float | None = None) -> float:
    """(M, c) form of the concentration bound.

    Needs |y_k| <= M and pi_k >= c n / N; raises NotApplicableError when
    M or c is missing.
    """
    if inputs.M is None or inputs.c is None:
        raise NotApplicableError("the (M, c) bound needs both M and c")
    e = _eps_of(inputs, eps)
    return _subgaussian_tail(e, inputs.n * inputs.c**2, 8.0 * inputs.M**2)


def bernstein_bound(inputs: BoundInputs, eps: float | None = None) -> float:
    """Bernstein-type one-sided tail bound (carries a leading factor 2).

    A zero denominator with eps == 0 returns the vacuous value 2; with
    eps > 0 the bound collapses to 0 (the estimator cannot move).
    """
    e = _eps_of(inputs, eps)
    s2, s1 = inputs.sup_y2_over_pi, inputs.sup_ycheck
    num = e * e * inputs.N
    denom = 8.0 * (1.0 - inputs.n / inputs.N) * s2 + (4.0 / 3.0) * e * s1
    if denom == 0.0 or not (math.isfinite(num) and math.isfinite(denom)):
        # A term overflowed a float, or the denominator may have
        # underflowed to 0: the same ratio in exact arithmetic.
        e, s2, s1 = Fraction(e), Fraction(s2), Fraction(s1)
        num = e * e * inputs.N
        denom = 8 * (1 - Fraction(inputs.n) / inputs.N) * s2 + Fraction(4, 3) * e * s1
    if denom == 0.0:
        return 2.0 if e == 0.0 else 0.0
    # exp(-r) is 0.0 for every float r >= 800, so the cap changes no
    # float ratio; it keeps an exact one too large for a float in range.
    return 2.0 * math.exp(-min(num / denom, 800.0))


def lipschitz_bound(inputs: BoundInputs, eps: float | None = None) -> float:
    """Tail bound through the Lipschitz norm of the HT sum.

    Same shape as the concentration bound with sum_k v_k^2 in place of
    sup_k v_k^2, so it is never smaller.
    """
    e = _eps_of(inputs, eps)
    return _subgaussian_tail(e, inputs.N**2, 8.0 * inputs.n * inputs.sum_sq_ycheck)


def eps_star(inputs: BoundInputs) -> float:
    """Largest per-unit error any sample can produce, equal-probability case.

    Equals 2 (1 - n/N) sup|y|; past it the one-sided event is impossible
    and every bound is vacuous.  Only applies when pi_k = n/N.
    """
    if not inputs.equal_probability:
        raise NotApplicableError(
            "eps_star applies to equal-probability designs only"
        )
    return 2.0 * (1.0 - inputs.n / inputs.N) * inputs.sup_y


@dataclass(frozen=True)
class DominanceRegime:
    """Where (N, n) falls in the bound-comparison classification.

    kind is one of "SmallN_AllEps" (concentration bound dominates the
    Bernstein-type bound at every eps > 0), "LargeN_EpsRange" (dominates
    for eps in (0, eps_limit]), or "Inconclusive" (neither sufficient
    condition holds).
    """

    kind: str
    eps_limit: float | None = None


def dominance_regime(N: int, n: float, sup_y: float | None = None) -> DominanceRegime:
    """Classify (N, n) for the concentration-vs-Bernstein comparison.

    The small-sample condition is n < (8 log(2) / 9)^(1/3) N^(2/3); the
    large-sample condition is n >= (8 log(2) / 9) (N/n)^2.  When both
    hold the small-sample tag wins.  ``eps_limit`` is
    (3 - sqrt(2)) (n/N) sup|y| and needs ``sup_y``.
    """
    if not _is_finite(N) or N < 1 or not 0 < n <= N:
        raise InvalidInputError("need 1 <= n <= N, with N a finite float")
    small = n < _SMALL_COEF * N ** (2.0 / 3.0)
    large = n >= _LARGE_COEF * _square("N / n", N / n)
    if small:
        return DominanceRegime(kind="SmallN_AllEps")
    if large:
        limit = None if sup_y is None else _EPS_LIMIT_COEF * (n / N) * sup_y
        if limit is not None and not math.isfinite(limit):
            raise InvalidInputError(f"the eps limit (3 - sqrt 2)(n/N) sup_y is {limit}")
        return DominanceRegime(kind="LargeN_EpsRange", eps_limit=limit)
    return DominanceRegime(kind="Inconclusive")


def solve_sample_size(
    M: float, c: float, eps: float, eta: float, two_sided: bool = False
) -> int:
    """Smallest n with the (M, c) bound at most eta.

    Solves f * exp(-n c^2 eps^2 / (8 M^2)) <= eta for integer n, where
    f is 1 (one-sided) or 2 (two-sided).  eta >= 1 is met by n = 0 and
    triggers a VacuousToleranceWarning.  Raises InvalidInputError where
    n is too large for a float.
    """
    if not all(_is_finite(v) and v > 0 for v in (M, c, eps, eta)):
        raise InvalidInputError("M, c, eps and eta must be finite and positive")
    if eta >= 1.0:
        warnings.warn(
            f"eta={eta} is at or above 1; any sample size works",
            VacuousToleranceWarning,
            stacklevel=2,
        )
        return 0
    factor = 2.0 if two_sided else 1.0
    denom = c * c * eps * eps
    raw = 8.0 * M * M * math.log(factor / eta) / denom if denom else math.inf
    if not math.isfinite(raw):
        raise InvalidInputError("the sample size overflows a float")
    return max(0, math.ceil(raw))


def solve_confidence_radius(
    inputs: BoundInputs, eta: float, two_sided: bool = False
) -> float:
    """Deviation scale eps at which the concentration bound equals eta."""
    if not _is_finite(eta) or eta <= 0:
        raise InvalidInputError("eta must be finite and positive")
    factor = 2.0 if two_sided else 1.0
    log_term = max(math.log(factor / eta), 0.0)
    eps = inputs.sup_ycheck * math.sqrt(8.0 * inputs.n * log_term) / inputs.N
    if not math.isfinite(eps):
        raise InvalidInputError("the confidence radius overflows a float")
    return eps


def _clamp(v: float) -> float:
    return min(max(v, 0.0), 2.0)


@dataclass(frozen=True)
class TailBoundReport:
    """All bounds evaluated at one eps, ready for serialization.

    ``cna``, ``bernstein`` and ``lipschitz`` carry the two-sided factor
    when requested and are clamped to [0, 2]; the ``*_raw`` fields are
    the unclamped values.  ``eps_star`` is present only for
    equal-probability inputs and ``cna_mc`` only when M and c are known.
    """

    eps: float
    two_sided_factor_applied: bool
    cna: float
    bernstein: float
    lipschitz: float
    cna_raw: float
    bernstein_raw: float
    lipschitz_raw: float
    cna_mc: float | None
    eps_star: float | None
    dominance_regime: str
    dominance_eps_limit: float | None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def evaluate_bounds(
    inputs: BoundInputs, two_sided: bool = False, eps: float | None = None
) -> TailBoundReport:
    """Evaluate every applicable bound at one deviation scale."""
    e = _eps_of(inputs, eps)
    factor = 2.0 if two_sided else 1.0
    cna_raw = factor * cna_bound(inputs, e)
    bern_raw = factor * bernstein_bound(inputs, e)
    lip_raw = factor * lipschitz_bound(inputs, e)
    mc = None
    if inputs.M is not None and inputs.c is not None:
        mc = _clamp(factor * cna_bound_Mc(inputs, e))
    star = eps_star(inputs) if inputs.equal_probability else None
    regime = dominance_regime(inputs.N, inputs.n, sup_y=inputs.sup_y)
    return TailBoundReport(
        eps=e,
        two_sided_factor_applied=bool(two_sided),
        cna=_clamp(cna_raw),
        bernstein=_clamp(bern_raw),
        lipschitz=_clamp(lip_raw),
        cna_raw=cna_raw,
        bernstein_raw=bern_raw,
        lipschitz_raw=lip_raw,
        cna_mc=mc,
        eps_star=star,
        dominance_regime=regime.kind,
        dominance_eps_limit=regime.eps_limit,
    )


def dominance_grid(upper: float) -> np.ndarray:
    """Log-spaced eps grid of ``DOMINANCE_GRID`` points on (0, upper]
    for dominance scans."""
    if upper <= 0:
        raise InvalidInputError("grid upper end must be positive")
    return np.logspace(math.log10(upper) - 6.0, math.log10(upper), DOMINANCE_GRID)
