"""Further one-round games from the collective coin-flipping
literature the paper cites ([BOL89], [Lin94]).

These extend the §2 menagerie in :mod:`repro.coinflip.games` with the
classic structured outcome functions, each with an exact fail-stop
force-set oracle:

* :class:`TribesGame` — Ben-Or–Linial's tribes function (OR of ANDs):
  an adversary kills any winning tribe by hiding a single member, so
  the game is extremely cheap to bias towards 0 and (like the
  default-0 majority) impossible to bias towards 1.
* :class:`WeightedMajorityGame` — majority with per-player weights;
  the adversary's optimal hiding is greedy by weight.
* :class:`ThresholdGame` — "at least m visible ones"; hiding can only
  destroy ones, the purest one-sided game.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.coinflip.games import _BitGame

__all__ = ["ThresholdGame", "TribesGame", "WeightedMajorityGame"]


class TribesGame(_BitGame):
    """OR over tribes of AND over each tribe's players (hidden = 0).

    Players are split into ``n // tribe_size`` consecutive tribes (a
    trailing partial tribe is allowed and behaves like a small tribe).
    The outcome is 1 iff some tribe is unanimously 1 *and fully
    visible* — so hiding one member of each winning tribe forces 0,
    while no hiding can ever force 1.
    """

    force_set_exact = True

    def __init__(self, n: int, tribe_size: int, bias: float = 0.5) -> None:
        super().__init__(n, k=2, bias=bias)
        if not 1 <= tribe_size <= n:
            raise ConfigurationError(
                f"tribe_size must be in [1, n]={n}, got {tribe_size}"
            )
        self.tribe_size = tribe_size

    def tribes(self) -> List[range]:
        """Index ranges of the tribes, in order."""
        return [
            range(start, min(start + self.tribe_size, self.n))
            for start in range(0, self.n, self.tribe_size)
        ]

    def _winning_tribes(self, values: Sequence[Any]) -> List[range]:
        return [
            tribe
            for tribe in self.tribes()
            if all(values[i] == 1 for i in tribe)
        ]

    def outcome(self, values: Sequence[Any]) -> int:
        return 1 if self._winning_tribes(values) else 0

    def force_set(
        self, values: Sequence[Any], target: int, t: int
    ) -> Optional[Set[int]]:
        winning = self._winning_tribes(values)
        if target == 1:
            return set() if winning else None
        if len(winning) <= t:
            return {tribe[0] for tribe in winning}
        return None


class WeightedMajorityGame(_BitGame):
    """Weighted majority of the visible bits (ties and empties give 0).

    The outcome is 1 iff the total weight of visible 1s strictly
    exceeds the total weight of visible 0s.  The exact oracle hides
    adverse players heaviest-first, which is optimal for minimising
    the number of hidings.
    """

    force_set_exact = True

    def __init__(
        self, weights: Sequence[float], bias: float = 0.5
    ) -> None:
        if not weights:
            raise ConfigurationError("weights must be non-empty")
        if any(w <= 0 for w in weights):
            raise ConfigurationError(
                "weights must be strictly positive"
            )
        super().__init__(len(weights), k=2, bias=bias)
        self.weights = tuple(float(w) for w in weights)

    def _side_weights(
        self, values: Sequence[Any]
    ) -> Tuple[float, float]:
        w1 = sum(
            self.weights[i] for i, v in enumerate(values) if v == 1
        )
        w0 = sum(
            self.weights[i] for i, v in enumerate(values) if v == 0
        )
        return w1, w0

    def outcome(self, values: Sequence[Any]) -> int:
        w1, w0 = self._side_weights(values)
        return 1 if w1 > w0 else 0

    def force_set(
        self, values: Sequence[Any], target: int, t: int
    ) -> Optional[Set[int]]:
        adverse_bit = 1 - target
        adverse = sorted(
            (i for i, v in enumerate(values) if v == adverse_bit),
            key=lambda i: self.weights[i],
            reverse=True,
        )
        hidden: Set[int] = set()

        def reached() -> bool:
            # Recompute from scratch each step: incremental float
            # subtraction can disagree with the summation `outcome`
            # uses at exact ties, yielding an unsound witness.
            masked = tuple(
                None if i in hidden else v for i, v in enumerate(values)
            )
            w1, w0 = self._side_weights(masked)
            return w1 > w0 if target == 1 else w1 <= w0

        for i in adverse:
            if reached():
                return hidden
            if len(hidden) == t:
                return None
            hidden.add(i)
        return hidden if reached() else None


class ThresholdGame(_BitGame):
    """1 iff at least ``threshold`` *visible* ones (hidden = absent).

    Hiding never raises the 1-count, so the game can be forced to 0 by
    hiding surplus ones and to 1 only when the coins already cleared
    the threshold — the cleanest expression of fail-stop
    one-sidedness.
    """

    force_set_exact = True

    def __init__(self, n: int, threshold: int, bias: float = 0.5) -> None:
        super().__init__(n, k=2, bias=bias)
        if not 1 <= threshold <= n:
            raise ConfigurationError(
                f"threshold must be in [1, n]={n}, got {threshold}"
            )
        self.threshold = threshold

    def outcome(self, values: Sequence[Any]) -> int:
        return 1 if values.count(1) >= self.threshold else 0

    def force_set(
        self, values: Sequence[Any], target: int, t: int
    ) -> Optional[Set[int]]:
        ones = values.count(1)
        if target == 1:
            return set() if ones >= self.threshold else None
        need = ones - self.threshold + 1
        if need <= 0:
            return set()
        if need <= min(t, ones):
            return self._first_positions(values, 1, need)
        return None
