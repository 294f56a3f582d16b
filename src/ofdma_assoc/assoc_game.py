"""The user-BS association game: better-reply sets, Nash equilibrium
predicates, enumeration, the unilateral-deviation identity, and efficiency
ratios.

Cell values depend on the association profile only through the set of
users in the cell, so an Evaluator memoizes per-(BS, user-set) solves;
enumeration and the dynamic mechanism both ride on that cache.  A user
that is not a contender of a cell (`per_bs_alloc.contenders`) cannot change
it by joining or leaving, so its utility there is exactly 0 without a solve.
Each cached cell also keeps a row of user utilities there, each entry filled
the first time it is asked for.  `better_reply_set` asks for an entry only
when the user's single-user bound at that BS can clear its bar (see
`Evaluator.utility_bounds`), so most join cells it cannot win are never
solved.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .net_model import InvalidArgumentError, NetworkInstance
from .per_bs_alloc import (CAPA, Allocation, cells_of, contenders,
                           reported_rates, solve_cell, solve_cells)

STRICT_TOL = 1e-12
ENUM_CAP = 10 ** 7
CHUNK = 32                        # cells per batched solve in `_solve_masks`


@dataclass(frozen=True)
class GameMode:
    strategy: str = CAPA          # CA | CAPA
    taxed: bool = True            # False reproduces the taxless game


@dataclass(slots=True)            # one per cached cell: no per-instance dict
class CellResult:
    value: float                  # weighted cell throughput from reports
    rates: Dict[int, float]       # reported per-user rates
    contenders: Optional[Tuple[bool, ...]] = None   # per user, filled on first use
    row: Optional[List[Optional[float]]] = None     # per user utility, filled entry by entry
    # the solve's (held, best, bound) for `contenders`, dropped once it ran
    solve: Optional[Tuple[np.ndarray, np.ndarray, float]] = None


class Evaluator:
    """Memoized per-cell solves and utility rows for a fixed instance /
    reports / mode.  Every query names its cell: a BS and its members.
    The reports pass `NetworkInstance.reports`, so they are an (N, K)
    table of finite, nonnegative entries, as the screens below and in
    `enumerate_nes` and `baselines.exhaustive_opt` need.

    Each cell's row holds the users' utilities there, an entry filled the
    first time `utilities` or `better_reply_set` asks for it.
    `better_reply_set` leaves unasked an entry that cannot clear the user's
    bar by the single-user bound of `utility_bounds`,
    U[w][i] = K_w·df_w·log1p(g·P_w / (K_w·tau)), g being user i's largest
    report on BS w's K_w channels, times weight[w] in the taxed game.  In
    two steps:
    1. A taxed entry is a marginal value, V_w(S | {i}) - V_w(S) <= V_w({i})
       by subadditivity (proved in `baselines.exhaustive_opt`; it holds
       under CA and CAPA).  An untaxed entry is i's own rate in the cell.
    2. Both V_w({i}) / weight[w] and that rate are df_w·sum_k
       log1p(r_k·p_k / tau) over channels k of BS w, with r_k <= g, powers
       p_k >= 0 and sum(p) <= P_w; by Jensen (log1p is concave) that is at
       most U, weighted or not.
    A taxed non-contender's entry is an exact 0.  The computed entry can
    round a few ulps above U where the bound is exact (one channel, an
    empty cell), hence the slack of `better_reply_set`.  The table is
    built the first time `better_reply_set` needs it, so an Evaluator used
    only for values never pays for it.

    `_rounds` keeps DBSA's rounds (see `mechanism.step`): per profile and
    switching costs, a `[values, replies]` slot of the trace values and
    the better replies, each filled on first use.  With the reports fixed,
    they depend on nothing else and are never dropped; `better_reply_set`
    and `is_ne` keep nothing per profile."""

    def __init__(self, net: NetworkInstance, mode: GameMode,
                 reports: Optional[np.ndarray] = None):
        self.net = net
        self.mode = mode
        self.reports = net.reports(reports)
        self._cache: Dict[Tuple[int, FrozenSet[int]], CellResult] = {}
        self._bounds: Optional[List[List[float]]] = None
        self._rounds: Dict[Tuple[Tuple[int, ...], Tuple[float, ...]], List] = {}

    def cell(self, w: int, users: FrozenSet[int]) -> CellResult:
        key = (w, users)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if not users:
            res = self._cache[key] = CellResult(0.0, {})
            return res
        return self._enter(w, users, solve_cell(self.net, w, users, self.reports,
                                                self.mode.strategy))

    def _enter(self, w: int, users: FrozenSet[int], alloc: Allocation) -> CellResult:
        """Cache and return the result of the non-empty cell (w, users)
        from its solve `alloc`."""
        rates = reported_rates(self.net, alloc)
        for u in users:
            rates.setdefault(u, 0.0)
        res = self._cache[(w, users)] = CellResult(
            self.net.weight[w] * sum(rates.values()), rates,
            solve=(alloc.held, alloc.best, alloc.bound))
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
        `utility` for its members, `move_utility` for the others.  Every
        entry of the W rows is filled."""
        n = self.net.num_users
        return tuple(tuple(self._entry(w, s, res, i) for i in range(n))
                     for w, s, res in self._cells(a))

    def _cells(self, a: Sequence[int]) -> List[Tuple[int, FrozenSet[int], CellResult]]:
        """(w, members, cached result) of each cell of profile `a`, each
        result with its row."""
        out = []
        for w, s in enumerate(cells_of(self.net, a)):
            res = self.cell(w, s)
            if res.row is None:
                res.row = [None] * self.net.num_users
            out.append((w, s, res))
        return out

    def _entry(self, w: int, members: FrozenSet[int], res: CellResult,
               i: int) -> float:
        """User i's utility at cell (w, members), whose cached result is
        `res`, from its row, or computed and kept there."""
        u = res.row[i]
        if u is None:
            # a taxed non-contender's utility is 0 (see `utility`)
            if self.mode.taxed and not self._contenders(res, w, members)[i]:
                u = 0.0
            elif i in members:
                u = self.utility(w, members, i)
            else:
                u = self.move_utility(w, members, i)
            res.row[i] = u
        return u

    def utility_bounds(self) -> List[List[float]]:
        """The (W, N) table U[w][i] of single-user bounds (see the class
        docstring), built on first use in one NumPy pass.  A BS without
        channels caps at 0.  A negative bandwidth, possible only on an
        instance whose bandwidths were rebound after it was built, voids
        the argument, and every bound is then +inf."""
        if self._bounds is None:
            net, reports = self.net, self.reports
            shape = (net.num_bss, net.num_users)
            if not (net.bandwidth >= 0).all():
                bounds = np.full(shape, math.inf)
            else:
                best = np.zeros(shape)
                for w, chans in enumerate(net.channels_of_bs):
                    best[w] = reports[:, chans].max(axis=1, initial=0.0)
                # no channel: best is 0, so any K >= 1 gives the bound 0
                k = np.array([[max(len(c), 1)] for c in net.channels_of_bs],
                             dtype=float)
                bounds = k * net.bandwidth[:, None] * np.log1p(
                    best * net.budget[:, None] / (k * net.tau))
                if self.mode.taxed:
                    bounds *= net.weight[:, None]
            self._bounds = bounds.tolist()
        return self._bounds


def mask_members(mask: int) -> FrozenSet[int]:
    """The users whose bits are set in `mask`."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _eval(net: NetworkInstance, mode: GameMode,
          evaluator: Optional[Evaluator]) -> Evaluator:
    """The game's Evaluator: a new one, or `evaluator` if it is of this very
    `net` object and of `mode`, whatever reports it holds (estimated ones,
    or those of an interference round); one of another game is an
    error."""
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
    current one, read from the profile's utility rows.  `margins[i]` adds
    user i's switching cost.

    User i's bar is its utility here plus its margin plus STRICT_TOL.  An
    entry not yet in the row of BS w's cell (w, S) is asked for only if
    i's bound there, U = `ev.utility_bounds()[w][i]` =
    K_w·df_w·log1p(g·P_w / (K_w·tau)) (weighted when taxed), plus a slack
    of 1e-9·(1 + |V_w(S)| + U) is above the bar.  Otherwise the entry is at
    most the bar, w is no reply, nothing is solved, and the entry stays
    unasked.  U caps every entry: a taxed entry is at most V_w({i}) by
    subadditivity, and V_w({i}) or i's own rate is at most U by Jensen
    over the channels' powers (see `Evaluator`).  The slack covers the
    entry's rounding, a few ulps of U or, for a taxed difference, of
    V_w(S); so the lists equal those read from every entry."""
    ev = _eval(net, mode, evaluator)
    cells = ev._cells(a)
    bounds = ev.utility_bounds()
    if margins is None:
        margins = [0.0] * len(a)
    out = []
    for i, (here, margin) in enumerate(zip(a, margins)):
        bar = ev._entry(*cells[here], i) + margin + STRICT_TOL
        replies = []
        for w, members, res in cells:
            if w == here:
                continue
            u = res.row[i]
            if u is None:
                cap = bounds[w][i]
                if cap + 1e-9 * (1.0 + abs(res.value) + cap) <= bar:
                    continue
                u = ev._entry(w, members, res, i)
            if u > bar:
                replies.append(w)
        out.append(replies)
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
    only the profiles that pass the potential screen of `_dominated`."""
    n, w_cnt = net.num_users, net.num_bss
    size = w_cnt ** n
    if size > ENUM_CAP:
        raise InvalidArgumentError("profile space exceeds enumeration cap")
    ev = _eval(net, mode, evaluator)
    profiles = itertools.product(range(w_cnt), repeat=n)
    keep = itertools.repeat(True)
    if size > 1:
        values, scale = _profile_values(ev, n, w_cnt)
        if mode.taxed:
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
    profile, so each of the W·2^N cells is needed: `_solve_masks` enters
    those `ev` has not cached, solved in batches from per-channel winners
    that a DP over member bitmasks builds, and the table reads them through
    `ev.cell`.  A profile's cell w is found by its member bitmask."""
    shape = (w_cnt,) * n
    sets = [mask_members(m) for m in range(1 << n)]
    total = np.zeros(shape)
    scale = 0.0
    for w in range(w_cnt):
        _solve_masks(ev, w, sets)
        table = np.array([ev.cell(w, s).value for s in sets])
        scale += np.abs(table).max()
        here = (np.arange(w_cnt) == w).astype(np.int64)
        mask = np.zeros(shape, dtype=np.int64)
        for i in range(n):        # bit i set where user i is at w
            mask += (here << i).reshape((1,) * i + (w_cnt,) + (1,) * (n - 1 - i))
        total += table[mask]
    return total.ravel(), scale


def _solve_masks(ev: Evaluator, w: int, sets: List[FrozenSet[int]]) -> None:
    """Enter in `ev` every cell (w, sets[m]) it has not cached, m > 0 over
    all 2^N member bitmasks, as the same results `ev.cell` would build, from
    batched solves of CHUNK cells each (`solve_cells`).

    A cell's per-channel winners are merged from those of its lower and its
    upper users (bits below and from N // 2), each half tabulated for all
    its masks by `_mask_winners`.  Every upper user is above every lower
    one, so it takes a channel only with a strictly larger report, as
    argmax's lowest-index rule gives it.  A BS without channels is left to
    `ev.cell`."""
    chans = ev.net.channels_of_bs[w]
    if not len(chans):
        return
    sub = ev.reports[:, chans]
    low = sub.shape[0] // 2
    low_beta, low_best = _mask_winners(sub[:low])
    high_beta, high_best = _mask_winners(sub[low:])
    high_beta += low
    for start in range(1, len(sets), CHUNK):
        rows = [m for m in range(start, min(start + CHUNK, len(sets)))
                if (w, sets[m]) not in ev._cache]
        if not rows:
            continue
        masks = np.array(rows)
        lo, hi = masks & ((1 << low) - 1), masks >> low
        # the upper users' winner takes a channel on a strictly larger
        # report, or whenever the cell has no lower user
        win = (high_best[hi] > low_best[lo]) | (lo == 0)[:, None]
        win &= (hi > 0)[:, None]
        beta = np.where(win, high_beta[hi], low_beta[lo])
        best = np.where(win, high_best[hi], low_best[lo])
        for m, alloc in zip(rows, solve_cells(ev.net, w, beta, best,
                                              ev.mode.strategy)):
            ev._enter(w, sets[m], alloc)


def _mask_winners(sub: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per bitmask m of the rows of `sub`, the lowest-index argmax row and
    its value per column (row 0, the empty mask, is zero), by a DP over
    masks: m is m' plus its top bit i, and row i, above every row of m',
    wins a column only with a strictly larger value."""
    size = 1 << sub.shape[0]
    beta = np.zeros((size, sub.shape[1]), dtype=int)
    best = np.zeros((size, sub.shape[1]))
    for i, row in enumerate(sub):
        lo, hi = 1 << i, 2 << i
        beta[lo], best[lo] = i, row
        win = row > best[1:lo]
        beta[lo + 1:hi] = np.where(win, i, beta[1:lo])
        best[lo + 1:hi] = np.where(win, row, best[1:lo])
    return beta, best


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
    the rounding of a W-term sum, so no NE is dominated."""
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
