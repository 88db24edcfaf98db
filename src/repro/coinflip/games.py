"""Concrete one-round coin-flipping games.

Each game documents how it treats hidden ("—") values, because that
choice is what decides which outcomes a fail-stop adversary can force:

* :class:`MajorityGame` — hidden values are *absent* (majority of the
  visible); controllable to the nearer side for ~|bias| hidings.
* :class:`MajorityDefaultZeroGame` — the paper's §2.1 example: hidden
  counts as **0**, so the game can be biased towards 0 but *never*
  towards 1.  This is the shape of SynRan's one-side-biased coin.
* :class:`ParityGame` — XOR of the visible bits; flippable either way
  with a single hiding, the cheapest-to-control extreme.
* :class:`QuantileGame` — a ``k``-outcome game (which ``k``-quantile
  the 1-count lands in); hidings only ever lower the bucket.
* :class:`LeaderGame` — the first visible player's bit; force either
  value by hiding the (geometrically few) players before the first
  occurrence.
* :class:`RandomFunctionGame` — a pseudorandom outcome function with no
  structure, for exercising the *generic* adversary search on small
  ``n`` (Lemma 2.1 quantifies over *all* games).

The exact force-set oracles implemented here are used both by the
experiments (cost-of-control curves) and as ground truth for testing
the generic search in :mod:`repro.coinflip.control`.
"""

from __future__ import annotations

import hashlib
import operator
import random
from itertools import compress, count, islice, repeat
from typing import Any, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.coinflip.game import HIDDEN, OneRoundGame

__all__ = [
    "LeaderGame",
    "MajorityDefaultZeroGame",
    "MajorityGame",
    "ParityGame",
    "QuantileGame",
    "RandomFunctionGame",
]


class _BitGame(OneRoundGame):
    """Shared base: players draw independent fair bits."""

    def __init__(self, n: int, k: int = 2, bias: float = 0.5) -> None:
        super().__init__(n, k)
        if not 0.0 <= bias <= 1.0:
            raise ConfigurationError(f"bias must be in [0, 1], got {bias}")
        self.bias = bias

    def sample(self, rng: random.Random) -> Tuple[int, ...]:
        """Player ``i`` draws 1 iff the ``i``-th ``rng.random()`` < bias.

        The draw consumes exactly ``2n`` generator words through one
        ``rng.getrandbits(64 * n)`` call: the same words, in the same
        order, that ``n`` calls of ``random()`` would use, so the vector
        and the generator's state afterwards equal the per-player loop's.
        A ``Random`` subclass that overrides only ``random()`` is
        therefore not consulted.

        CPython fills ``getrandbits`` with 32-bit Mersenne Twister words,
        least significant first, and builds ``random()`` from two of
        them as ``m * 2**-53`` with ``m = (w0 >> 5) << 26 | (w1 >> 6)``.
        Each little-endian 64-bit chunk holds one ``(w0, w1)`` pair, and
        ``random() < bias`` exactly when ``m < bias * 2**53`` (scaling
        by a power of two is exact, and ``m < 2**53`` converts exactly).
        """
        n = self.n
        pairs = np.frombuffer(
            rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u8"
        )
        m = ((pairs & 0xFFFFFFFF) >> 5 << 26) | (pairs >> 38)
        ones = m < self.bias * 9007199254740992.0
        return tuple(ones.view(np.uint8).tobytes())

    @staticmethod
    def _counts(values: Sequence[Any]) -> Tuple[int, int]:
        """(ones, zeros) among the visible values."""
        return values.count(1), values.count(0)

    @staticmethod
    def _first_positions(
        values: Sequence[Any], bit: int, need: int
    ) -> Set[int]:
        """The first ``need`` positions holding ``bit``, found by a scan
        that stops at the ``need``-th."""
        hits = compress(count(), map(operator.eq, values, repeat(bit)))
        return set(islice(hits, need))


class MajorityGame(_BitGame):
    """Majority of the *visible* bits (ties and all-hidden give 0)."""

    force_set_exact = True

    def outcome(self, values: Sequence[Any]) -> int:
        ones, zeros = self._counts(values)
        return 1 if ones > zeros else 0

    def force_set(
        self, values: Sequence[Any], target: int, t: int
    ) -> Optional[Set[int]]:
        ones, zeros = self._counts(values)
        if target == 1:
            # Hide zeros until ones > zeros.
            need = max(0, zeros - ones + 1)
            if need <= min(t, zeros):
                return self._first_positions(values, 0, need)
            return None
        # Hide ones until ones <= zeros.
        need = max(0, ones - zeros)
        if need <= min(t, ones):
            return self._first_positions(values, 1, need)
        return None


class MajorityDefaultZeroGame(_BitGame):
    """0-1 majority where any hidden value is counted as **0**.

    The paper's canonical one-side example: outcome 1 requires more than
    ``n/2`` *actual* ones, and hiding only ever destroys ones — so a
    fail-stop adversary can force 0 whenever it can afford to hide the
    surplus ones, but can force 1 only when the coins already landed
    that way.  (Lemma 2.1 is consistent: it promises control of *some*
    outcome, and here that outcome is 0.)
    """

    force_set_exact = True

    def outcome(self, values: Sequence[Any]) -> int:
        return 1 if 2 * values.count(1) > self.n else 0

    def force_set(
        self, values: Sequence[Any], target: int, t: int
    ) -> Optional[Set[int]]:
        ones = values.count(1)
        if target == 1:
            return set() if 2 * ones > self.n else None
        need = max(0, ones - self.n // 2)
        if need <= min(t, ones):
            return self._first_positions(values, 1, need)
        return None


class ParityGame(_BitGame):
    """XOR of the visible bits (hidden counts as 0).

    The opposite extreme from majority: one hiding of any 1-valued
    player flips the outcome, so a 1-adversary controls the game in
    every vector that contains a 1.
    """

    force_set_exact = True

    def outcome(self, values: Sequence[Any]) -> int:
        return values.count(1) & 1

    def force_set(
        self, values: Sequence[Any], target: int, t: int
    ) -> Optional[Set[int]]:
        if self.outcome(values) == target:
            return set()
        if t >= 1 and 1 in values:
            return {values.index(1)}
        return None


class QuantileGame(_BitGame):
    """Which of ``k`` equal buckets the visible 1-count falls into.

    ``outcome = min(k - 1, ones * k // (n + 1))`` — a natural
    ``k``-outcome game for exercising Lemma 2.1 beyond binary.  Hidden
    counts as 0, so the adversary can only lower the bucket.
    """

    force_set_exact = True

    def __init__(self, n: int, k: int, bias: float = 0.5) -> None:
        super().__init__(n, k=k, bias=bias)

    def outcome(self, values: Sequence[Any]) -> int:
        return self._bucket_of(values.count(1))

    def _bucket_of(self, ones: int) -> int:
        return min(self.k - 1, ones * self.k // (self.n + 1))

    def force_set(
        self, values: Sequence[Any], target: int, t: int
    ) -> Optional[Set[int]]:
        ones = values.count(1)
        if not 0 <= target <= self._bucket_of(ones):
            return None  # can only lower the count
        # The largest 1-count up to ``ones`` whose bucket is at most the
        # target (buckets are monotone in the count).  Its bucket falls
        # short of the target only when k > n + 1 leaves that bucket
        # empty.
        ones_left = min(ones, ((target + 1) * (self.n + 1) - 1) // self.k)
        if self._bucket_of(ones_left) != target:
            return None
        need = ones - ones_left
        if need <= t:
            return self._first_positions(values, 1, need)
        return None


class LeaderGame(_BitGame):
    """The first visible player's bit (0 if everyone is hidden).

    Controllable to either value at geometric expected cost: hide the
    players before the first occurrence of the target bit.
    """

    force_set_exact = True

    def outcome(self, values: Sequence[Any]) -> int:
        for v in values:
            if v is not HIDDEN:
                return int(v)
        return 0

    def force_set(
        self, values: Sequence[Any], target: int, t: int
    ) -> Optional[Set[int]]:
        for i, v in enumerate(values):
            if v == target:
                if i <= t:
                    return set(range(i))
                return None
        # Target bit absent: hiding everyone yields the default 0.
        if target == 0 and self.n <= t:
            return set(range(self.n))
        return None


class RandomFunctionGame(_BitGame):
    """A structureless pseudorandom outcome function over bit vectors.

    ``f`` maps the visible/hidden pattern through a salted digest to
    ``range(k)``.  There is no exact oracle; the generic searches in
    :mod:`repro.coinflip.control` must do real work — which is the
    point: Lemma 2.1 quantifies over arbitrary ``f``, and the tests
    verify the generic adversary on these games by exhaustion at small
    ``n``.
    """

    force_set_exact = False

    def __init__(self, n: int, k: int = 2, seed: int = 0) -> None:
        super().__init__(n, k=k)
        self.seed = seed

    def outcome(self, values: Sequence[Any]) -> int:
        pattern = ",".join(
            "-" if v is HIDDEN else str(int(v)) for v in values
        )
        digest = hashlib.sha256(
            f"{self.seed}|{pattern}".encode("ascii")
        ).digest()
        return int.from_bytes(digest[:4], "big") % self.k
