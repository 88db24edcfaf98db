"""Shared, guarded math helpers used across the package.

The paper's formulas involve ``log n`` factors that are zero or negative
for tiny ``n``; every helper here is total on its documented domain and
clamps the logarithm away from zero so that thresholds remain positive
and monotone for every ``n >= 1``.  All logarithms are natural logs —
the paper's bounds are asymptotic, so the base only changes constants,
and natural log keeps the formulas aligned with ``math``/``numpy``.
"""

from __future__ import annotations

import math

__all__ = [
    "safe_log",
    "safe_sqrt_log",
    "adversary_round_budget",
    "coin_control_budget",
    "deterministic_stage_threshold",
    "expected_rounds_bound",
    "lower_bound_rounds",
    "isqrt_ceil",
    "binomial_sum",
]


def safe_log(x: float, floor: float = 1.0) -> float:
    """Return ``max(log(x), log(floor))`` guarded against ``x <= 0``.

    The default floor of ``1.0`` makes ``safe_log(n)`` equal ``log n``
    for ``n >= e`` and never smaller than ``0``; combined with the
    ``max(..., 1.0)`` guards below this keeps every paper threshold
    positive for all ``n >= 1``.
    """
    if x <= 0:
        return math.log(floor) if floor > 0 else 0.0
    return max(math.log(x), math.log(floor) if floor > 0 else 0.0)


def safe_sqrt_log(n: int) -> float:
    """Return ``sqrt(max(log n, 1))`` — the recurring ``sqrt(log n)`` factor.

    Clamping the log at 1 keeps divisions by ``sqrt(log n)`` finite for
    ``n <= e`` without affecting the asymptotics the experiments test.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.sqrt(max(math.log(n), 1.0))


def adversary_round_budget(n: int) -> int:
    """Per-round failure budget ``4 * sqrt(n log n)`` from Section 3.

    This is the number of processes the lower-bound adversary is allowed
    to fail in a single round (Lemma 3.1); the composite strategy uses
    ``adversary_round_budget(n) + 1`` (Corollary 3.4).  Rounded up so the
    simulated adversary is never weaker than the paper's.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return max(1, math.ceil(4.0 * math.sqrt(n * max(math.log(n), 1.0))))


def coin_control_budget(n: int, k: int) -> int:
    """Hiding budget ``k * 4 * sqrt(n log n)`` from Lemma 2.1.

    An adversary that can hide more than this many of the ``n`` inputs of
    a one-round game with ``k`` outcomes controls some outcome with
    probability greater than ``1 - 1/n``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return max(1, math.ceil(k * 4.0 * math.sqrt(n * max(math.log(n), 1.0))))


def deterministic_stage_threshold(n: int) -> float:
    """Survivor-count threshold ``sqrt(n / log n)`` from Section 4.

    When a SynRan process receives fewer than this many messages in a
    round it hands off to the deterministic stage.  ``log n`` is clamped
    at 1 so the threshold is positive (and at most ``sqrt(n)``) for every
    ``n >= 1``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.sqrt(n / max(math.log(n), 1.0))


def expected_rounds_bound(n: int, t: int) -> float:
    """The paper's headline bound ``t / sqrt(n * log(2 + t / sqrt(n)))``.

    Theorem 3: the expected number of rounds of SynRan — and the matching
    lower bound — is Θ of this quantity.  Returns a strictly positive
    float for ``t >= 1`` (and ``0.0`` for ``t == 0``: with no failures a
    constant number of rounds suffices, which the Θ hides).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if t < 0 or t > n:
        raise ValueError(f"t must be in [0, n]={n}, got {t}")
    if t == 0:
        return 0.0
    return t / math.sqrt(n * math.log(2.0 + t / math.sqrt(n)))


def lower_bound_rounds(n: int, t: int) -> float:
    """The Theorem-1 forced-round count ``t / (4 sqrt(n log n) + 1)``.

    The number of rounds the Section-3 adversary keeps the execution
    alive with probability greater than ``1 - 1/sqrt(log n)``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if t < 0 or t > n:
        raise ValueError(f"t must be in [0, n]={n}, got {t}")
    return t / (4.0 * math.sqrt(n * max(math.log(n), 1.0)) + 1.0)


def isqrt_ceil(x: int) -> int:
    """Return ``ceil(sqrt(x))`` for a non-negative integer ``x``."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def binomial_sum(n: int, lo: int, hi: int) -> int:
    """Exact ``sum(C(n, i) for lo <= i <= hi)``, the range clipped to
    ``[0, n]`` (``0`` when empty).

    Steps the coefficient, ``C(n, i + 1) = C(n, i) * (n - i) // (i + 1)``
    (the division is exact), instead of computing each term from
    scratch: one big-integer multiply per term rather than a fresh
    ``math.comb``, which is what makes exact binomial tails affordable
    at ``n`` in the tens of thousands.
    """
    lo, hi = max(lo, 0), min(hi, n)
    total = 0
    c = math.comb(n, lo) if lo <= hi else 0
    for i in range(lo, hi + 1):
        total += c
        c = c * (n - i) // (i + 1)
    return total
