"""The user-BS association game: better-reply sets, Nash equilibrium
predicates, enumeration, the unilateral-deviation identity, and efficiency
ratios.

Cell values depend on the association profile only through the set of
users in the cell, so an Evaluator memoizes per-(BS, user-set) solves;
enumeration and the dynamic mechanism both ride on that cache.  A user
that is not a contender of a cell (`per_bs_alloc.contenders`) cannot change
it by joining or leaving, so its utility there is exactly 0 without a solve.
Each cached cell also keeps every user's utility there (`utilities`).
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


@dataclass(slots=True)            # one per cached cell: no per-instance dict
class CellResult:
    value: float                  # weighted cell throughput from reports
    rates: Dict[int, float]       # reported per-user rates
    contenders: Optional[Tuple[bool, ...]] = None   # per user, filled on first use
    row: Optional[Tuple[float, ...]] = None         # per user utility, filled on first use
    # the solve's (held, best, bound) for `contenders`, dropped once it ran
    solve: Optional[Tuple[np.ndarray, np.ndarray, float]] = None


class Evaluator:
    """Memoized per-cell solves and utility rows for a fixed instance /
    reports / mode, plus the member sets and rows of the last profile."""

    def __init__(self, net: NetworkInstance, mode: GameMode,
                 reports: Optional[np.ndarray] = None):
        self.net = net
        self.mode = mode
        self.reports = net.normalized_gain() if reports is None else np.asarray(reports, float)
        self._cache: Dict[Tuple[int, FrozenSet[int]], CellResult] = {}
        self._cells_key: Optional[Tuple[int, ...]] = None
        self._cells: Tuple[FrozenSet[int], ...] = ()
        self._rows: Optional[Tuple[Tuple[float, ...], ...]] = None

    def cell(self, w: int, users: FrozenSet[int]) -> CellResult:
        key = (w, users)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if not users:
            res = CellResult(0.0, {})
        else:
            alloc = solve_cell(self.net, w, users, self.reports, self.mode.strategy)
            rates = reported_rates(self.net, alloc)
            for u in users:
                rates.setdefault(u, 0.0)
            res = CellResult(self.net.weight[w] * sum(rates.values()), rates,
                             solve=(alloc.held, alloc.best, alloc.bound))
        self._cache[key] = res
        return res

    def cells_of(self, a: Sequence[int]) -> Tuple[FrozenSet[int], ...]:
        """Per-BS member sets of profile `a`, reused while the profile
        queried stays the same; a new profile also drops its rows."""
        key = tuple(a)
        if key != self._cells_key:
            self._cells_key, self._cells = key, cells_of(a, self.net.num_bss)
            self._rows = None
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

    def _contenders(self, res: CellResult, w: int,
                    members: FrozenSet[int]) -> Tuple[bool, ...]:
        """Per user, whether joining or leaving cell (w, members), whose
        cached result is `res`, can change the cell."""
        if res.contenders is None:
            res.contenders = tuple(contenders(
                self.net, w, members, self.reports, self.mode.strategy,
                *(res.solve or ())).tolist())
            res.solve = None
        return res.contenders

    def utility(self, a: Sequence[int], i: int) -> float:
        """`utility_in` at i's own cell, without the solve of the cell
        less i when i's departure cannot change it."""
        w = a[i]
        members = self.cells_of(a)[w]
        here = self.cell(w, members)
        if not self.mode.taxed:
            return here.rates.get(i, 0.0)
        if not self._contenders(here, w, members)[i]:
            return 0.0
        return here.value - self.cell(w, members - {i}).value

    def move_utility(self, a: Sequence[int], i: int, w: int) -> float:
        """Utility of user i after a unilateral move to BS w: `utility_in`
        at the joined cell, without its solve when i's arrival cannot
        change the cell."""
        members = self.cells_of(a)[w]
        there = self.cell(w, members)
        if not self._contenders(there, w, members)[i]:
            return 0.0
        joined = self.cell(w, members | {i})
        if not self.mode.taxed:
            return joined.rates.get(i, 0.0)
        return joined.value - there.value

    def utilities(self, a: Sequence[int]) -> Tuple[Tuple[float, ...], ...]:
        """Per BS w, every user's utility at w's cell under profile `a`:
        `utility` for its members, `move_utility` for the others.  A row
        depends only on its cell, so it is kept with the cached cell."""
        cells = self.cells_of(a)
        if self._rows is None:
            key = self._cells_key
            self._rows = tuple(self._row(key, w, s) for w, s in enumerate(cells))
        return self._rows

    def _row(self, a: Tuple[int, ...], w: int, members: FrozenSet[int]):
        res = self.cell(w, members)
        if res.row is None:
            # a taxed non-contender's utility is 0 (see `utility`)
            con, taxed = self._contenders(res, w, members), self.mode.taxed
            res.row = tuple(
                0.0 if taxed and not con[i]
                else self.utility(a, i) if a[i] == w
                else self.move_utility(a, i, w)
                for i in range(len(a)))
        return res.row


def mask_members(mask: int) -> FrozenSet[int]:
    """The users whose bits are set in `mask`."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _eval(net, mode, evaluator: Optional[Evaluator]) -> Evaluator:
    return evaluator if evaluator is not None else Evaluator(net, mode)


def better_reply_set(net: NetworkInstance, a: Sequence[int], i: int,
                     mode: GameMode, evaluator: Optional[Evaluator] = None,
                     margin: float = 0.0) -> List[int]:
    """BSs offering user i strictly higher utility than its current one.
    `margin` adds a switching cost.  Reads all N·W `Evaluator.utilities`
    of `a`: share an `evaluator` across users, or each call builds them."""
    rows = _eval(net, mode, evaluator).utilities(a)
    here = a[i]
    bar = rows[here][i] + margin + STRICT_TOL
    return [w for w, row in enumerate(rows) if w != here and row[i] > bar]


def is_ne(net: NetworkInstance, a: Sequence[int], mode: GameMode,
          evaluator: Optional[Evaluator] = None) -> bool:
    """No user has a better reply; builds all N·W utilities first."""
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
    optimum (lexicographic tie-break).

    Every profile's system value comes from one table of cell values (see
    `_profile_values`).  `is_ne` decides each NE; in the taxed game it sees
    only the profiles that pass the potential screen of `_dominated`.  The
    screen needs utilities that are differences of cell values, which a NaN
    report breaks (it is no contender, yet it changes a cell), so NaN
    reports turn it off."""
    n, w_cnt = net.num_users, net.num_bss
    size = w_cnt ** n
    if size > ENUM_CAP:
        raise InvalidArgumentError("profile space exceeds enumeration cap")
    ev = _eval(net, mode, evaluator)
    profiles = itertools.product(range(w_cnt), repeat=n)
    keep = itertools.repeat(True)
    if size > 1:
        values, scale = _profile_values(ev, n, w_cnt)
        if mode.taxed and not np.isnan(ev.reports).any():
            keep = (~_dominated(values, scale, n, w_cnt)).tolist()
    else:                         # no user or at most one BS: nothing to tabulate
        profiles = list(profiles)
        values = [ev.system_value(a) for a in profiles]
    nes = []
    best_profile, best_value = None, -math.inf
    for a, value, survivor in zip(profiles, values, keep):
        if value > best_value + STRICT_TOL:
            best_profile, best_value = a, value
        if survivor and is_ne(net, a, mode, ev):
            nes.append((a, value))
    return EnumerationResult(nes=nes, optimum=best_profile,
                             optimum_value=best_value)


def _profile_values(ev: Evaluator, n: int,
                    w_cnt: int) -> Tuple[np.ndarray, float]:
    """System value of every profile, in `itertools.product` order, summed
    over the BSs left to right from 0 as `Evaluator.system_value` sums,
    and the sum over BSs of the largest |cell value|, which bounds every
    partial sum.  With two or more BSs every user set is cell w of some
    profile, so each of the W·2^N cells is solved once through `ev.cell`;
    a profile's cell w is found by its member bitmask."""
    shape = (w_cnt,) * n
    sets = [mask_members(m) for m in range(1 << n)]
    total = np.zeros(shape)
    scale = 0.0
    for w in range(w_cnt):
        table = np.array([ev.cell(w, s).value for s in sets])
        scale += np.abs(table).max()
        here = (np.arange(w_cnt) == w).astype(np.int64)
        mask = np.zeros(shape, dtype=np.int64)
        for i in range(n):        # bit i set where user i is at w
            mask += (here << i).reshape((1,) * i + (w_cnt,) + (1,) * (n - 1 - i))
        total += table[mask]
    return total.ravel(), scale


def _dominated(values: np.ndarray, scale: float, n: int,
               w_cnt: int) -> np.ndarray:
    """Per profile, whether some unilateral move reaches a system value
    above its own by more than 1e-9·(1 + scale), `scale` bounding every
    |cell value| sum (see `_profile_values`).

    The taxed game is an exact potential game with the system value as its
    potential (Monderer & Shapley 1996): a user's taxed utility is its
    cell's marginal value, so a move changes the mover's utility by exactly
    the change in system value, over the same cell values.  A NE admits no
    move gaining more than STRICT_TOL, and the slack is far above that plus
    the rounding of a W-term sum, so no NE is dominated.  A NaN comparison
    dominates nothing."""
    phi = values.reshape((w_cnt,) * n)
    bar = phi + 1e-9 * (1.0 + scale)
    out = np.zeros(phi.shape, dtype=bool)
    for i in range(n):            # the moves of user i run along axis i
        out |= phi.max(axis=i, keepdims=True) > bar
    return out.ravel()


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
