"""Reference association policies and bounds: nearest-BS, pruned exhaustive
optimum, steepest-ascent local search, and the multiple-connectivity upper
bound."""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .assoc_game import STRICT_TOL, Evaluator, GameMode, _eval, mask_members
from .mechanism import nearest_bs_profile
from .net_model import InvalidArgumentError, NetworkInstance
from .per_bs_alloc import CAPA

SEARCH_CAP = 10 ** 7


class SearchSpaceTooLargeError(ValueError):
    pass


@dataclass
class BaselineResult:
    profile: Optional[Tuple[int, ...]]
    throughput: float
    evaluations: int


def nearest_bs(net: NetworkInstance, strategy: str = CAPA,
               evaluator: Optional[Evaluator] = None) -> BaselineResult:
    ev = _eval(net, GameMode(strategy=strategy), evaluator)
    profile = nearest_bs_profile(net)
    return BaselineResult(profile=profile,
                          throughput=ev.system_value(profile), evaluations=1)


def candidate_bss(net: NetworkInstance,
                  reports: Optional[np.ndarray] = None) -> List[List[int]]:
    """Per-user candidate BS lists: BSs where all the user's reports are
    zero are pruned, unless the user reports zero everywhere.  `reports`
    defaults to the true normalized gains."""
    g = net.normalized_gain() if reports is None else reports
    out = []
    for i in range(net.num_users):
        cands = [w for w, chans in enumerate(net.channels_of_bs)
                 if g[i, chans].max() > 0.0]
        out.append(cands if cands else [0])
    return out


def exhaustive_opt(net: NetworkInstance, strategy: str = CAPA,
                   evaluator: Optional[Evaluator] = None,
                   cap: int = SEARCH_CAP) -> BaselineResult:
    """Global optimum over the pruned profile space, by depth-first branch
    and bound (Land & Doig 1960).  `evaluations` counts the leaves reached,
    each of which raises the incumbent.

    The bound rests on cell throughput being subadditive in the user set,
    V_w(S | T) <= V_w(S) + V_w(T): the union's powers are feasible for S and
    for T, and log(1+max(x,y)) <= log(1+x) + log(1+y) for x, y >= 0.  So
    users i..N-1 add at most the sum of their best singleton values, and
    user i adds at most V_w({i}) to cell w.  A child (i, w) whose value,
    with that singleton bound, cannot beat the incumbent by more than a
    1e-9 relative slack is skipped before its cell is looked up; every such
    child would fail the child's own entry check (value + bound <= best +
    1e-15), so the search visits the same nodes.  Cell values are kept per
    BS by member bitmask; `ev.cell` solves only the cells not yet seen."""
    ev = _eval(net, GameMode(strategy=strategy), evaluator)
    reports = ev.reports
    if np.isnan(reports).any() or (reports < 0).any():
        raise InvalidArgumentError("the search bound needs non-negative reports")
    cands = candidate_bss(net, reports)
    space = 1
    for c in cands:
        space *= len(c)
        if space > cap:
            raise SearchSpaceTooLargeError(
                f"pruned profile space exceeds cap {cap}")

    n = net.num_users
    if n == 0:
        return BaselineResult(profile=(), throughput=0.0, evaluations=1)
    singleton = [{w: ev.cell(w, frozenset([i])).value for w in cands[i]}
                 for i in range(n)]
    # upper bound on the total value the users i..N-1 can still add
    suffix_bound = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_bound[i] = suffix_bound[i + 1] + max(singleton[i].values())
    # per BS: cell value by member bitmask, and the current cell
    values = [{} for _ in range(net.num_bss)]
    masks = [0] * net.num_bss
    current = [0.0] * net.num_bss

    best_value = cut = -math.inf
    best_profile: Optional[Tuple[int, ...]] = None
    profile = [0] * n
    evals = 0

    def dfs(i: int, value: float):
        """Visit the children of a node at depth i that passed its entry
        check."""
        nonlocal best_value, best_profile, cut, evals
        rest = suffix_bound[i + 1]
        bit = 1 << i
        for w, single in singleton[i].items():
            if value + single + rest <= cut:
                continue
            new = masks[w] | bit
            cell = values[w].get(new)
            if cell is None:
                cell = values[w][new] = ev.cell(w, mask_members(new)).value
            child = value + (cell - current[w])
            if child + rest <= best_value + 1e-15:
                continue
            profile[i] = w
            if i + 1 == n:
                evals += 1
                if child > best_value + 1e-15:
                    best_value = child
                    best_profile = tuple(profile)
                    cut = best_value - 1e-9 * (1.0 + abs(best_value))
                continue
            old, held = masks[w], current[w]
            masks[w], current[w] = new, cell
            dfs(i + 1, child)
            masks[w], current[w] = old, held

    dfs(0, 0.0)
    return BaselineResult(profile=best_profile, throughput=best_value,
                          evaluations=evals)


def greedy0(net: NetworkInstance, strategy: str = CAPA,
            evaluator: Optional[Evaluator] = None,
            start: Optional[Sequence[int]] = None) -> BaselineResult:
    """Steepest single-user-move ascent on the system objective, starting
    from the nearest-BS profile."""
    ev = _eval(net, GameMode(strategy=strategy), evaluator)
    a = [int(w) for w in (nearest_bs_profile(net) if start is None else start)]
    value = ev.system_value(a)
    evals = 1
    while True:
        best_move, best_gain = None, STRICT_TOL
        for i in range(net.num_users):
            for w in range(net.num_bss):
                if w == a[i]:
                    continue
                cand = list(a)
                cand[i] = w
                evals += 1
                gain = ev.system_value(cand) - value
                if gain > best_gain:
                    best_move, best_gain = (i, w), gain
        if best_move is None:
            break
        a[best_move[0]] = best_move[1]
        value = ev.system_value(a)
    return BaselineResult(profile=tuple(a), throughput=value, evaluations=evals)


def multi_connect_bound(net: NetworkInstance, strategy: str = CAPA,
                        evaluator: Optional[Evaluator] = None) -> float:
    """Strict upper bound: every BS allocates as if all users were in its
    cell simultaneously."""
    ev = _eval(net, GameMode(strategy=strategy), evaluator)
    everyone = frozenset(range(net.num_users))
    return sum(ev.cell(w, everyone).value for w in range(net.num_bss))
