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
    reports / mode.  Every query names its cell: a BS and its members."""

    def __init__(self, net: NetworkInstance, mode: GameMode,
                 reports: Optional[np.ndarray] = None):
        self.net = net
        self.mode = mode
        self.reports = net.normalized_gain() if reports is None else np.asarray(reports, float)
        self._cache: Dict[Tuple[int, FrozenSet[int]], CellResult] = {}

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

    def system_value(self, a: Sequence[int]) -> float:
        return sum(self.cell(w, s).value for w, s in enumerate(cells_of(self.net, a)))

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

    def utility(self, w: int, members: FrozenSet[int], i: int) -> float:
        """Utility of member i of cell (w, members): its reported rate, or
        taxed, the cell value less the value of the cell without i, whose
        solve is skipped when i's departure cannot change the cell."""
        here = self.cell(w, members)
        if not self.mode.taxed:
            return here.rates.get(i, 0.0)
        if not self._contenders(here, w, members)[i]:
            return 0.0
        return here.value - self.cell(w, members - {i}).value

    def move_utility(self, w: int, members: FrozenSet[int], i: int) -> float:
        """Utility of user i, not a member, after it joins cell (w, members):
        its rate in the joined cell, or taxed, the value it adds; 0 without
        a solve when i's arrival cannot change the cell."""
        there = self.cell(w, members)
        if not self._contenders(there, w, members)[i]:
            return 0.0
        joined = self.cell(w, members | {i})
        if not self.mode.taxed:
            return joined.rates.get(i, 0.0)
        return joined.value - there.value

    def utilities(self, a: Sequence[int]) -> Tuple[Tuple[float, ...], ...]:
        """Per BS w, every user's utility at w's cell under profile `a`:
        `utility` for its members, `move_utility` for the others."""
        return tuple(self._row(w, s) for w, s in enumerate(cells_of(self.net, a)))

    def _row(self, w: int, members: FrozenSet[int]) -> Tuple[float, ...]:
        """The utility row of cell (w, members), kept with the cached cell."""
        res = self.cell(w, members)
        if res.row is None:
            # a taxed non-contender's utility is 0 (see `utility`)
            con, taxed = self._contenders(res, w, members), self.mode.taxed
            res.row = tuple(
                0.0 if taxed and not con[i]
                else self.utility(w, members, i) if i in members
                else self.move_utility(w, members, i)
                for i in range(self.net.num_users))
        return res.row


def mask_members(mask: int) -> FrozenSet[int]:
    """The users whose bits are set in `mask`."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _eval(net: NetworkInstance, mode: GameMode,
          evaluator: Optional[Evaluator]) -> Evaluator:
    """The game's Evaluator: a new one, or `evaluator` if it is of this very
    `net` object and of `mode`; one of another game is an error."""
    if evaluator is None:
        return Evaluator(net, mode)
    if evaluator.net is not net or (evaluator.mode is not mode
                                    and evaluator.mode != mode):
        raise InvalidArgumentError("evaluator must be of this net and mode")
    return evaluator


def better_reply_set(net: NetworkInstance, a: Sequence[int], mode: GameMode,
                     evaluator: Optional[Evaluator] = None,
                     margins: Optional[Sequence[float]] = None) -> List[List[int]]:
    """Per user, the BSs offering it strictly higher utility than its
    current one, from one read of the profile's utility rows.  `margins[i]`
    adds user i's switching cost."""
    rows = _eval(net, mode, evaluator).utilities(a)
    if margins is None:
        margins = [0.0] * len(a)
    out = []
    for here, col, margin in zip(a, zip(*rows), margins):   # col[w]: at BS w
        bar = col[here] + margin + STRICT_TOL
        out.append([w for w, u in enumerate(col) if u > bar and w != here])
    return out


def is_ne(net: NetworkInstance, a: Sequence[int], mode: GameMode,
          evaluator: Optional[Evaluator] = None) -> bool:
    """No user has a better reply."""
    return not any(better_reply_set(net, a, mode, _eval(net, mode, evaluator)))


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
    cells = cells_of(net, a)
    moved = list(a)
    moved[i] = w_new
    du = ev.move_utility(w_new, cells[w_new], i) - ev.utility(a[i], cells[a[i]], i)
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
