"""Horvitz-Thompson estimation of a population total."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import Sample
from .errors import InvalidInputError
from .population import StudyVector


@dataclass(frozen=True)
class HTResult:
    """Estimate of a total, with its signed and per-unit error."""

    t_hat: float
    t_y: float
    error: float
    normalized_error: float


def ht_estimate(sample: Sample, study: StudyVector, t_y: float) -> HTResult:
    """Horvitz-Thompson estimate: sum of expanded values over the sample.

    Summation runs in population order so results are reproducible to
    the bit.  ``t_y`` is the known population total being estimated.
    """
    if sample.N != study.N:
        raise InvalidInputError(
            f"sample is over {sample.N} units but study vector has {study.N}"
        )
    idx = np.fromiter(sample.selected, np.intp, len(sample.selected))
    t_hat = float(np.sum(study.y_check[idx])) if idx.size else 0.0
    error = t_hat - float(t_y)
    return HTResult(
        t_hat=t_hat,
        t_y=float(t_y),
        error=error,
        normalized_error=error / study.N,
    )
