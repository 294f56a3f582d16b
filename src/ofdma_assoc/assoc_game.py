"""The user-BS association game: better-reply sets, Nash equilibrium
predicates, enumeration, the unilateral-deviation identity, and efficiency
ratios.

Cell values depend on the association profile only through the set of
users in the cell, so an Evaluator memoizes per-(BS, member bitmask) solves;
enumeration and the dynamic mechanism both ride on that cache.  Each
cached cell keeps one record per user, its row of utilities there: built
on first use with an exact 0 for every user that is not a contender of the
cell (`per_bs_alloc.contenders`), which cannot change it by joining or
leaving, and every other entry filled the first time it is asked for.
`better_reply_set` reads the entries a row holds and asks for another only
when the user's single-user bound at that BS can clear its bar (see
`Evaluator.utility_bounds`), so most join cells it cannot win are never
solved.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .net_model import InvalidArgumentError, NetworkInstance
from .per_bs_alloc import (CAPA, Allocation, cells_of, contenders, members,
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
    row: Optional[List[Optional[float]]] = None     # per user utility (`Evaluator._row`)
    # the solve's (held, best, bound) for the row's contenders, kept until it is built
    solve: Optional[Tuple[List[int], List[float], float]] = None


class Evaluator:
    """Memoized per-cell solves and utility rows for a fixed instance /
    reports / mode.  Every query names its cell by a BS w and its member
    bitmask (bit i for user i; see `cells_of`), solved on `members(mask)`.
    The reports pass `NetworkInstance.reports`, so they are an (N, K)
    table of finite, nonnegative entries, as the screens below and in
    `enumerate_nes` and `baselines.exhaustive_opt` need.

    Each cell's row (`_row`) is its one record per user: built the first
    time `utility` or `move_utility` asks about the cell, it holds an exact
    0 for each user whose joining or leaving cannot change the cell, and
    every other entry is filled the first time it is asked for.  An
    untaxed member's utility is its rate, read from the cell and not kept.
    `better_reply_set` reads an entry the row holds and leaves unasked one
    that cannot clear the user's bar by the single-user bound of
    `utility_bounds`,
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
    A non-contender's entry is an exact 0.  The computed entry can
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
        self._cache: Dict[Tuple[int, int], CellResult] = {}
        self._bounds: Optional[List[List[float]]] = None
        self._rounds: Dict[Tuple[Tuple[int, ...], Tuple[float, ...]], List] = {}

    def cell(self, w: int, mask: int) -> CellResult:
        hit = self._cache.get((w, mask))
        if hit is not None:
            return hit
        if not mask:
            return self._cache.setdefault((w, mask), CellResult(0.0, {}))
        users = members(mask)
        return self._enter(w, mask, users, solve_cell(
            self.net, w, users, self.reports, self.mode.strategy))

    def _enter(self, w: int, mask: int, users: List[int],
               alloc: Allocation) -> CellResult:
        """Cache and return the result of the non-empty cell (w, mask),
        whose members are `users`, from its solve `alloc`."""
        rates = reported_rates(self.net, alloc)
        for u in users:
            rates.setdefault(u, 0.0)
        res = self._cache[(w, mask)] = CellResult(
            self.net.weight[w] * sum(rates.values()), rates,
            solve=(alloc.held, alloc.best, alloc.bound))
        return res

    def system_value(self, a: Sequence[int]) -> float:
        return sum(self.cell(w, s).value for w, s in enumerate(cells_of(self.net, a)))

    def _row(self, res: CellResult, w: int, mask: int) -> List[Optional[float]]:
        """The utility row of cell (w, mask), whose cached result is
        `res`, built on first use: an exact 0.0 for each user whose joining
        or leaving cannot change the cell (not one of its
        `per_bs_alloc.contenders`), None for the others until asked."""
        if res.row is None:
            flags = contenders(self.net, w, members(mask), self.reports,
                               self.mode.strategy, *(res.solve or ()))
            res.row = [None if f else 0.0 for f in flags.tolist()]
            res.solve = None
        return res.row

    def utility(self, w: int, mask: int, i: int) -> float:
        """Utility of member i of cell (w, mask): its reported rate, or
        taxed, its row entry, the cell value less the value of the cell
        without i."""
        here = self.cell(w, mask)
        if not self.mode.taxed:
            return here.rates.get(i, 0.0)
        row = self._row(here, w, mask)
        if row[i] is None:
            row[i] = here.value - self.cell(w, mask & ~(1 << i)).value
        return row[i]

    def move_utility(self, w: int, mask: int, i: int) -> float:
        """Utility of user i, not a member, after it joins cell (w, mask),
        kept as its row entry: its rate in the joined cell, or taxed, the
        value it adds."""
        there = self.cell(w, mask)
        row = self._row(there, w, mask)
        if row[i] is None:
            joined = self.cell(w, mask | 1 << i)
            row[i] = (joined.value - there.value if self.mode.taxed
                      else joined.rates.get(i, 0.0))
        return row[i]

    def utilities(self, a: Sequence[int]) -> Tuple[Tuple[float, ...], ...]:
        """Per BS w, every user's utility at w's cell under profile `a`:
        `utility` for its members, `move_utility` for the others."""
        return tuple(tuple(self.utility(w, s, i) if s >> i & 1
                           else self.move_utility(w, s, i)
                           for i in range(self.net.num_users))
                     for w, s in enumerate(cells_of(self.net, a)))

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
    user i's switching cost; there must be one per user of `a`.

    User i's bar is its utility here plus its margin plus STRICT_TOL.  An
    entry the row of BS w's cell (w, S) holds is read, exact 0s included.
    Any other (the row may not be built yet) is asked for only if
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
    cells = cells_of(net, a)
    results = [ev.cell(w, s) for w, s in enumerate(cells)]
    bounds = ev.utility_bounds()
    if margins is None:
        margins = [0.0] * len(a)
    elif len(margins) != len(a):
        raise InvalidArgumentError(f"{len(margins)} margins for {len(a)} users")
    out = []
    for i, (here, margin) in enumerate(zip(a, margins)):
        row = results[here].row
        u = None if row is None else row[i]
        if u is None:
            u = ev.utility(here, cells[here], i)
        bar = u + margin + STRICT_TOL
        replies = []
        for w, (mask, res) in enumerate(zip(cells, results)):
            if w == here:
                continue
            u = None if res.row is None else res.row[i]
            if u is None:
                cap = bounds[w][i]
                if cap + 1e-9 * (1.0 + abs(res.value) + cap) <= bar:
                    continue
                u = ev.move_utility(w, mask, i)
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
    partial sum.  With two or more BSs every bitmask is the cell w of some
    profile, so each of the W·2^N cells is needed: `_solve_masks` enters
    those `ev` has not cached, solved in batches, and the table reads them
    through `ev.cell`, indexed by the member bitmask as the cache is."""
    shape = (w_cnt,) * n
    size = 1 << n
    total = np.zeros(shape)
    scale = 0.0
    for w in range(w_cnt):
        _solve_masks(ev, w, size)
        table = np.array([ev.cell(w, m).value for m in range(size)])
        scale += np.abs(table).max()
        here = (np.arange(w_cnt) == w).astype(np.int64)
        mask = np.zeros(shape, dtype=np.int64)
        for i in range(n):        # bit i set where user i is at w
            mask += (here << i).reshape((1,) * i + (w_cnt,) + (1,) * (n - 1 - i))
        total += table[mask]
    return total.ravel(), scale


def _solve_masks(ev: Evaluator, w: int, size: int) -> None:
    """Enter in `ev` every cell (w, m) it has not cached, over the member
    bitmasks 0 < m < `size`, as the same results `ev.cell` would build, from
    batched solves of CHUNK cells each (`solve_cells`).

    A chunk's per-channel winners are one argmax over BS w's report block,
    in which each cell's non-members read -1: numpy's first-occurrence rule
    gives each channel to the lowest-index member with the best report, as
    `per_bs_alloc._best_user_per_channel` does.  A BS without channels is
    left to `ev.cell`."""
    chans = ev.net.channels_of_bs[w]
    if not len(chans):
        return
    sub = ev.reports[:, chans]
    bits = 1 << np.arange(sub.shape[0])
    for start in range(1, size, CHUNK):
        rows = [m for m in range(start, min(start + CHUNK, size))
                if (w, m) not in ev._cache]
        if not rows:
            continue
        member = (np.array(rows)[:, None] & bits) > 0
        block = np.where(member[:, :, None], sub, -1.0)
        beta = block.argmax(axis=1)
        best = np.take_along_axis(block, beta[:, None], axis=1)[:, 0]
        for m, alloc in zip(rows, solve_cells(ev.net, w, beta, best,
                                              ev.mode.strategy)):
            ev._enter(w, m, members(m), alloc)


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
