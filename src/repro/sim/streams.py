"""Counter-derived per-trial random streams for the batch engine.

The batch engine advances ``M`` independent trials in lockstep, one
NumPy computation per round, so it cannot draw from ``M`` stateful
generator objects without a Python loop.  This module provides the
alternative: *counter-based* randomness, where every random word is a
pure function of ``(trial_key, counter)`` — a SplitMix64-style hash of
a per-trial key plus a draw counter.  That purity is load-bearing for
the execution core's contracts:

* **Chunk invariance.**  Trial ``i``'s draws depend only on its own
  key (derived from its hash-based trial seed) and the round index —
  never on which other trials share the batch, how the batch was
  chunked across workers, or which trials have already finished.
  Splitting a batch any way therefore yields byte-identical outcomes.
* **No global state.**  Nothing here touches ``random`` or
  ``numpy.random``; every function is deterministic in its arguments.

Primitives:

* :func:`stream_keys` — per-trial ``uint64`` keys from integer seeds.
* :func:`counter_words` / :func:`counter_uniforms` — raw 64-bit words
  and ``[0, 1)`` doubles at a given counter.
* :func:`fair_binomial` — **exact** ``Binomial(c, 1/2)`` samples via
  popcount of ``c`` hashed bits (a fair coin flip *is* a random bit,
  so summing ``c`` masked bits is the distribution itself, not an
  approximation).
* :func:`binomial` — general ``Binomial(c, p)`` by inverse-CDF walk on
  one uniform per trial (exact up to float64 CDF rounding); used by
  the batched random-crash adversary.

All arithmetic is unsigned 64-bit with silent wraparound; constants
are wrapped in ``np.uint64`` throughout because mixing a ``uint64``
array with a signed Python scalar silently promotes to ``float64``.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "binomial",
    "counter_uniforms",
    "counter_words",
    "fair_binomial",
    "stream_keys",
]

_MASK64 = (1 << 64) - 1
#: SplitMix64's golden-ratio increment (kept as a Python int so counter
#: offsets can be computed with arbitrary-precision arithmetic and
#: masked, avoiding NumPy scalar-overflow warnings).
_GAMMA = 0x9E3779B97F4A7C15

_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(1)
#: ``_LOW_BITS[k]`` keeps a word's low ``k`` bits, ``0 <= k <= 64``.
_LOW_BITS = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64)

#: ``2**-53``: scales a 53-bit integer into ``[0, 1)``.
_INV53 = float(2.0**-53)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: a bijective avalanche mix on ``uint64``."""
    z = (z ^ (z >> _U30)) * _M1
    z = (z ^ (z >> _U27)) * _M2
    return z ^ (z >> _U31)


def stream_keys(
    seeds: Union[Sequence[int], np.ndarray], salt: int = 0
) -> np.ndarray:
    """Per-trial ``uint64`` stream keys from integer seeds.

    ``salt`` separates named substreams sharing the same seeds (e.g.
    an adversary's 1-sender and 0-sender crash draws); the same
    ``(seed, salt)`` always yields the same key.
    """
    raw = np.asarray(
        [int(s) & _MASK64 for s in seeds], dtype=np.uint64
    )
    salted = raw ^ np.uint64((salt * _GAMMA + 0x1F0A2B3C4D5E6F77) & _MASK64)
    return _mix64(_mix64(salted))


def counter_words(
    keys: np.ndarray, counter: int, width: int = 1
) -> np.ndarray:
    """``(M, width)`` hashed words at counters ``counter..counter+width-1``.

    ``words[i, j] = mix(keys[i] + (counter + j) * gamma)`` — SplitMix64
    evaluated at an arbitrary stream position, so any (trial, counter)
    pair can be generated independently and in any order.
    """
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    if counter < 0:
        raise ConfigurationError(f"counter must be >= 0, got {counter}")
    offsets = np.asarray(
        [((counter + j) * _GAMMA) & _MASK64 for j in range(width)],
        dtype=np.uint64,
    )
    return _mix64(keys[:, None] + offsets[None, :])


def counter_uniforms(keys: np.ndarray, counter: int) -> np.ndarray:
    """One ``float64`` uniform in ``[0, 1)`` per trial at ``counter``."""
    words = counter_words(keys, counter, 1)[:, 0]
    return (words >> _U11).astype(np.float64) * _INV53


if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def _popcount(words: np.ndarray) -> np.ndarray:
        return np.bitwise_count(words).astype(np.int64)

else:  # pragma: no cover - exercised only on numpy < 2.0

    def _popcount(words: np.ndarray) -> np.ndarray:
        """SWAR 64-bit popcount for NumPy builds without bitwise_count."""
        x = words.copy()
        x = x - ((x >> _ONE) & np.uint64(0x5555555555555555))
        x = (x & np.uint64(0x3333333333333333)) + (
            (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
        )
        x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        return (
            (x * np.uint64(0x0101010101010101)) >> np.uint64(56)
        ).astype(np.int64)


def fair_binomial(
    keys: np.ndarray, counter: int, counts: np.ndarray
) -> np.ndarray:
    """Exact ``Binomial(counts[i], 1/2)`` per trial.

    Generates ``counts[i]`` hashed bits for trial ``i`` (64 per word,
    the last word masked to the remainder, later words masked out) and
    popcounts the whole ``(M, width)`` word block in one pass.  Word
    ``j`` of trial ``i`` sits at stream position ``counter + j``, so
    the caller must advance ``counter`` by at least
    ``ceil(max_count / 64)`` between independent draws (the batch
    engine strides by round index).
    """
    counts = np.asarray(counts, dtype=np.int64)
    max_count = int(counts.max()) if counts.size else 0
    if max_count <= 0:
        return np.zeros(counts.shape, dtype=np.int64)
    width = (max_count + 63) // 64
    words = counter_words(keys, counter, width)
    nbits = np.clip(counts[:, None] - 64 * np.arange(width), 0, 64)
    return _popcount(words & _LOW_BITS[nbits]).sum(axis=1)


def binomial(
    keys: np.ndarray, counter: int, counts: np.ndarray, p: float
) -> np.ndarray:
    """``Binomial(counts[i], p)`` per trial by inverse-CDF walk.

    Consumes exactly one uniform (stream position ``counter``) per
    trial and walks the binomial CDF upward in log space until it
    covers the uniform, so the expected work is ``O(mean + sd)``
    vectorized steps regardless of how small the point masses near
    zero are (the log-space recurrence never stalls on underflow).
    Exact inverse-CDF sampling up to float64 rounding of the CDF.
    """
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must be in [0, 1], got {p}")
    counts = np.asarray(counts, dtype=np.int64)
    if p == 0.0:
        return np.zeros(counts.shape, dtype=np.int64)
    if p == 1.0:
        return counts.copy()
    u = counter_uniforms(keys, counter)
    c = counts.astype(np.float64)
    logit = float(np.log(p) - np.log1p(-p))
    logpmf = c * np.log1p(-p)
    cdf = np.exp(logpmf)
    result = np.zeros(counts.shape, dtype=np.int64)
    done = (u < cdf) | (counts <= 0)
    k = 0
    max_count = int(counts.max()) if counts.size else 0
    while not done.all() and k < max_count:
        k += 1
        num = np.where(counts >= k, c - (k - 1), 1.0)
        step = np.log(num / k) + logit
        logpmf = np.where(counts >= k, logpmf + step, -np.inf)
        cdf = cdf + np.exp(logpmf)
        newly = ~done & (u < cdf)
        result[newly] = k
        done |= newly
        exhausted = ~done & (counts <= k)
        result[exhausted] = counts[exhausted]
        done |= exhausted
    result[~done] = counts[~done]
    return result
