"""The user-BS association game: better-reply sets, Nash equilibrium
predicates, enumeration, the unilateral-deviation identity, and efficiency
ratios.

Cell values depend on the association profile only through the set of
users in the cell, so an Evaluator memoizes per-(BS, user-set) solves;
enumeration and the dynamic mechanism both ride on that cache.  A user
that is not a contender of a cell (`per_bs_alloc.contenders`) cannot change
it by joining or leaving, so its utility there is exactly 0 without a solve.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .net_model import InvalidArgumentError, NetworkInstance
from .per_bs_alloc import CAPA, cells_of, contenders, reported_rates, solve_cell

STRICT_TOL = 1e-12
ENUM_CAP = 10 ** 7


@dataclass(frozen=True)
class GameMode:
    strategy: str = CAPA          # CA | CAPA
    taxed: bool = True            # False reproduces the taxless game


@dataclass
class CellResult:
    value: float                  # weighted cell throughput from reports
    rates: Dict[int, float]       # reported per-user rates
    contenders: Optional[Tuple[bool, ...]] = None   # per user, filled on first use


class Evaluator:
    """Memoized per-cell solves for a fixed instance / reports / mode, plus
    the member sets of the last profile queried."""

    def __init__(self, net: NetworkInstance, mode: GameMode,
                 reports: Optional[np.ndarray] = None):
        self.net = net
        self.mode = mode
        self.reports = net.normalized_gain() if reports is None else np.asarray(reports, float)
        self._cache: Dict[Tuple[int, FrozenSet[int]], CellResult] = {}
        self._cells_key: Optional[Tuple[int, ...]] = None
        self._cells: Tuple[FrozenSet[int], ...] = ()

    def cell(self, w: int, users: FrozenSet[int]) -> CellResult:
        key = (w, users)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if not users:
            res = CellResult(0.0, {})
        else:
            alloc = solve_cell(self.net, w, users, self.reports, self.mode.strategy)
            rates = reported_rates(self.net, alloc, self.reports)
            for u in users:
                rates.setdefault(u, 0.0)
            res = CellResult(self.net.weight[w] * sum(rates.values()), rates)
        self._cache[key] = res
        return res

    def cells_of(self, a: Sequence[int]) -> Tuple[FrozenSet[int], ...]:
        """Per-BS member sets of profile `a`, reused while the profile
        queried stays the same."""
        key = tuple(a)
        if key != self._cells_key:
            self._cells_key, self._cells = key, cells_of(a, self.net.num_bss)
        return self._cells

    def system_value(self, a: Sequence[int]) -> float:
        return sum(self.cell(w, s).value for w, s in enumerate(self.cells_of(a)))

    def utility_in(self, i: int, w: int, members: FrozenSet[int]) -> float:
        """Utility of user i if cell w's user set were `members` (i included),
        from the cell solves with and without i."""
        with_i = self.cell(w, members)
        if not self.mode.taxed:
            return with_i.rates.get(i, 0.0)
        without_i = self.cell(w, members - {i})
        return with_i.value - without_i.value

    def _contends(self, res: CellResult, w: int, members: FrozenSet[int],
                  i: int) -> bool:
        """Whether user i joining or leaving cell (w, members), whose cached
        result is `res`, can change the cell."""
        if res.contenders is None:
            res.contenders = tuple(contenders(
                self.net, w, members, self.reports, self.mode.strategy).tolist())
        return res.contenders[i]

    def utility(self, a: Sequence[int], i: int) -> float:
        """`utility_in` at i's own cell, without the solve of the cell
        less i when i's departure cannot change it."""
        w = a[i]
        members = self.cells_of(a)[w]
        here = self.cell(w, members)
        if not self.mode.taxed:
            return here.rates.get(i, 0.0)
        if not self._contends(here, w, members, i):
            return 0.0
        return here.value - self.cell(w, members - {i}).value

    def move_utility(self, a: Sequence[int], i: int, w: int) -> float:
        """Utility of user i after a unilateral move to BS w: `utility_in`
        at the joined cell, without its solve when i's arrival cannot
        change the cell."""
        members = self.cells_of(a)[w]
        there = self.cell(w, members)
        if not self._contends(there, w, members, i):
            return 0.0
        joined = self.cell(w, members | {i})
        if not self.mode.taxed:
            return joined.rates.get(i, 0.0)
        return joined.value - there.value


def _eval(net, mode, evaluator: Optional[Evaluator]) -> Evaluator:
    return evaluator if evaluator is not None else Evaluator(net, mode)


def better_reply_set(net: NetworkInstance, a: Sequence[int], i: int,
                     mode: GameMode, evaluator: Optional[Evaluator] = None,
                     margin: float = 0.0) -> List[int]:
    """BSs offering user i strictly higher utility than its current one.
    `margin` adds a switching cost to the comparison."""
    ev = _eval(net, mode, evaluator)
    current = ev.utility(a, i)
    out = []
    for w in range(net.num_bss):
        if w == a[i]:
            continue
        if ev.move_utility(a, i, w) > current + margin + STRICT_TOL:
            out.append(w)
    return out


def is_ne(net: NetworkInstance, a: Sequence[int], mode: GameMode,
          evaluator: Optional[Evaluator] = None) -> bool:
    ev = _eval(net, mode, evaluator)
    return all(not better_reply_set(net, a, i, mode, ev)
               for i in range(net.num_users))


def system_throughput(net: NetworkInstance, a: Sequence[int],
                      strategy: str = CAPA,
                      evaluator: Optional[Evaluator] = None) -> float:
    """Weighted system throughput: the weight enters once, inside the
    per-cell value."""
    ev = _eval(net, GameMode(strategy=strategy), evaluator)
    return ev.system_value(a)


def deviation_identity_check(net: NetworkInstance, a: Sequence[int], i: int,
                             w_new: int, mode: GameMode = GameMode(),
                             evaluator: Optional[Evaluator] = None) -> float:
    """|dU_i - dR| for a unilateral move of user i to w_new; the taxed
    utility change must equal the system throughput change."""
    if w_new == a[i]:
        raise InvalidArgumentError("move target equals current BS")
    ev = _eval(net, mode, evaluator)
    moved = list(a)
    moved[i] = w_new
    du = ev.move_utility(a, i, w_new) - ev.utility(a, i)
    dr = ev.system_value(moved) - ev.system_value(a)
    return abs(du - dr)


@dataclass
class EnumerationResult:
    nes: List[Tuple[Tuple[int, ...], float]]
    optimum: Tuple[int, ...]
    optimum_value: float


def enumerate_nes(net: NetworkInstance, mode: GameMode,
                  evaluator: Optional[Evaluator] = None) -> EnumerationResult:
    """Exhaustive scan over all W^N profiles: all pure NEs plus the global
    optimum (lexicographic tie-break)."""
    n, w_cnt = net.num_users, net.num_bss
    if w_cnt ** n > ENUM_CAP:
        raise InvalidArgumentError("profile space exceeds enumeration cap")
    ev = _eval(net, mode, evaluator)
    nes = []
    best_profile, best_value = None, -math.inf
    for a in itertools.product(range(w_cnt), repeat=n):
        value = ev.system_value(a)
        if value > best_value + STRICT_TOL:
            best_profile, best_value = a, value
        if is_ne(net, a, mode, ev):
            nes.append((a, value))
    return EnumerationResult(nes=nes, optimum=best_profile,
                             optimum_value=best_value)


def efficiency_ratio(net: NetworkInstance, ne_profile: Sequence[int],
                     mode: GameMode,
                     evaluator: Optional[Evaluator] = None,
                     enumeration: Optional[EnumerationResult] = None) -> float:
    """R(NE) / R(opt); the input profile must actually be a NE."""
    ev = _eval(net, mode, evaluator)
    if not is_ne(net, ne_profile, mode, ev):
        raise InvalidArgumentError("profile is not a Nash equilibrium")
    if enumeration is None:
        enumeration = enumerate_nes(net, mode, ev)
    if enumeration.optimum_value <= 0.0:
        return 1.0
    return ev.system_value(ne_profile) / enumeration.optimum_value
