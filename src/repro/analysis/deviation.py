"""Lemma 4.4: an explicit, non-asymptotic binomial deviation *lower*
bound.

The paper proves (via Stirling) that for ``x ~ Bin(n, 1/2)`` and
``t < sqrt(n)/8``::

    Pr(x - E(x) >= t * sqrt(n))  >=  e^{-4 (t+1)^2} / sqrt(2 pi)

and Corollary 4.5 instantiates ``t = sqrt(log n)/8`` to get a
``sqrt(log n / n)`` escape probability — the engine of the upper-bound
proof (the adversary must pay for that much upward deviation every few
rounds).  This module provides the bound, the exact tail, and an
empirical estimator, so experiment E3 can tabulate all three.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional

import numpy as np

from repro._math import binomial_sum
from repro.errors import ConfigurationError

__all__ = [
    "lemma44_bound",
    "corollary45_bound",
    "corollary45_threshold",
    "exact_deviation_probability",
    "empirical_deviation_probability",
]


def lemma44_bound(t: float) -> float:
    """The right-hand side ``e^{-4(t+1)^2} / sqrt(2 pi)``.

    Valid (per the lemma) whenever ``t < sqrt(n)/8`` for the ``n`` in
    play; the bound itself does not depend on ``n``.
    """
    if t < 0:
        raise ConfigurationError(f"t must be >= 0, got {t}")
    return math.exp(-4.0 * (t + 1.0) ** 2) / math.sqrt(2.0 * math.pi)


def corollary45_threshold(n: int) -> float:
    """Corollary 4.5's deviation threshold ``sqrt(n log n) / 8``."""
    if n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    return math.sqrt(n * math.log(n)) / 8.0


def corollary45_bound(n: int) -> float:
    """Corollary 4.5's probability floor ``sqrt(log n / n)``.

    ``Pr(x - E(x) >= sqrt(n log n)/8) >= sqrt(log n / n)``.

    Note: the corollary plugs ``t = sqrt(log n)/8`` into Lemma 4.4,
    whose right side is ``e^{-4(sqrt(log n)/8 + 1)^2}/sqrt(2 pi)``; the
    paper states the clean form ``sqrt(log n / n)``, which holds for
    the parameter ranges the proof uses it in.  We expose the clean
    form (it is the one Lemma 4.6 consumes) and let experiment E3
    compare it to the exact tail.
    """
    if n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    return math.sqrt(math.log(n) / n)


def exact_deviation_probability(n: int, threshold: float) -> float:
    """Exact ``Pr(x - n/2 >= threshold)`` for ``x ~ Bin(n, 1/2)``.

    The tail's coefficient sum is an exact integer
    (:func:`repro._math.binomial_sum`), so there is no floating-point
    cancellation until the final division.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    total = binomial_sum(n, math.ceil(n / 2.0 + threshold), n)
    return float(Fraction(total, 1 << n))


def empirical_deviation_probability(
    n: int,
    threshold: float,
    *,
    trials: int = 100_000,
    rng: Optional[random.Random] = None,
) -> float:
    """Monte-Carlo estimate of the same tail, via numpy binomials."""
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    seed = (rng or random.Random(0)).getrandbits(32)
    gen = np.random.default_rng(seed)
    draws = gen.binomial(n, 0.5, size=trials)
    return float(np.mean(draws - n / 2.0 >= threshold))
