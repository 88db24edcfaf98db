"""Schechtman-style blow-up concentration on product spaces.

Lemma 2.1's proof uses Schechtman's theorem [Sch81]: for ``A`` in a
product probability space ``X^n`` with ``Pr(A) = alpha`` and
``l >= l0 = 2 sqrt(n log(1/alpha))``::

    Pr(B(A, l)) >= 1 - e^{-(l - l0)^2 / (4 n)}

where ``B(A, l)`` is the set of points differing from ``A`` in at most
``l`` coordinates.  With ``alpha >= 1/n`` and ``l = h = 4 sqrt(n log n)``
the right side is ``1 - 1/n`` — the step that lets the paper intersect
the blow-ups of all ``k < sqrt(n)`` outcome classes.

This module provides:

* the closed forms (:func:`schechtman_l0`,
  :func:`schechtman_lower_bound`),
* the exact blow-up measure for *threshold sets* on the hypercube
  (Hamming balls around the all-zeros point are the isoperimetric
  near-extremals, so they are the sharpest test of the inequality), and
* a sampling-based estimator for arbitrary explicit sets at small ``n``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Set, Tuple

from repro._math import binomial_sum
from repro.errors import ConfigurationError

__all__ = [
    "schechtman_l0",
    "schechtman_lower_bound",
    "paper_h",
    "blowup_probability_threshold_set",
    "threshold_set_for_mass",
    "sampled_blowup_probability",
]


def schechtman_l0(n: int, alpha: float) -> float:
    """The critical radius ``l0 = 2 sqrt(n log(1/alpha))``."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if not 0.0 < alpha <= 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
    return 2.0 * math.sqrt(n * math.log(1.0 / alpha))


def schechtman_lower_bound(n: int, alpha: float, l: float) -> float:
    """``Pr(B(A, l)) >= 1 - e^{-(l - l0)^2 / 4n}`` for ``l >= l0``.

    Returns the right-hand side; for ``l < l0`` the theorem gives
    nothing and we return 0.
    """
    l0 = schechtman_l0(n, alpha)
    if l < l0:
        return 0.0
    return 1.0 - math.exp(-((l - l0) ** 2) / (4.0 * n))


def paper_h(n: int) -> float:
    """The paper's blow-up radius ``h = 4 sqrt(n log n)`` (§2.1)."""
    if n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    return 4.0 * math.sqrt(n * math.log(n))


# ----------------------------------------------------------------------
# exact blow-up for threshold sets on the uniform hypercube
# ----------------------------------------------------------------------


def _binom_cdf(n: int, m: int) -> float:
    """``Pr(Bin(n, 1/2) <= m)`` exactly (integer arithmetic throughout;
    the final division is done as a Fraction so large ``n`` cannot
    overflow a float)."""
    if m < 0:
        return 0.0
    if m >= n:
        return 1.0
    return float(Fraction(binomial_sum(n, 0, m), 1 << n))


def blowup_probability_threshold_set(n: int, m: int, l: int) -> float:
    """Exact ``Pr(B(A, l))`` for the threshold set ``A = {x : |x| <= m}``.

    On the uniform hypercube, a point ``y`` is within Hamming distance
    ``l`` of some point with at most ``m`` ones iff ``|y| <= m + l``
    (flip ``|y| - m`` of its ones), so the blow-up measure is a plain
    binomial CDF — making threshold sets the one family where the
    blow-up can be computed exactly at any ``n``.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if l < 0:
        raise ConfigurationError(f"l must be >= 0, got {l}")
    return _binom_cdf(n, m + l)


def threshold_set_for_mass(n: int, alpha: float) -> Tuple[int, float]:
    """Smallest ``m`` with ``Pr(|x| <= m) >= alpha``; returns
    ``(m, actual_mass)``.

    Used to build a test set of (at least) the target measure before
    measuring its blow-up against the Schechtman bound.
    """
    if not 0.0 < alpha <= 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
    running = 0
    denom = 1 << n
    for m in range(0, n + 1):
        running += math.comb(n, m)
        mass = float(Fraction(running, denom))
        if mass >= alpha:
            return m, mass
    return n, 1.0  # pragma: no cover - running reaches 1 at m = n


# ----------------------------------------------------------------------
# sampled blow-up for arbitrary explicit sets (small n)
# ----------------------------------------------------------------------


def _min_hamming_distance(
    point: Sequence[int], members: Sequence[Sequence[int]]
) -> int:
    best = len(point)
    for member in members:
        d = sum(1 for a, b in zip(point, member) if a != b)
        if d < best:
            best = d
            if best == 0:
                break
    return best


def sampled_blowup_probability(
    n: int,
    members: Iterable[Sequence[int]],
    l: int,
    *,
    trials: int = 2000,
    rng: Optional[random.Random] = None,
) -> float:
    """Estimate ``Pr(B(A, l))`` for an explicit set ``A`` of bit vectors
    by uniform sampling (O(trials * |A| * n) work)."""
    member_list = [tuple(m) for m in members]
    if not member_list:
        raise ConfigurationError("the base set A must be non-empty")
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    rng = rng or random.Random(0)
    hits = 0
    for _ in range(trials):
        point = tuple(rng.randrange(2) for _ in range(n))
        if _min_hamming_distance(point, member_list) <= l:
            hits += 1
    return hits / trials
