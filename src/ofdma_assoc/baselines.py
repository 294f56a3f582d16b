"""Reference association policies and bounds: nearest-BS, pruned exhaustive
optimum, steepest-ascent local search, and the multiple-connectivity upper
bound."""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .assoc_game import Evaluator, GameMode, _eval
from .mechanism import nearest_bs_profile
from .net_model import NetworkInstance
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


def candidate_bss(net: NetworkInstance) -> List[List[int]]:
    """Per-user candidate BS lists: BSs where all the user's gains are zero
    are pruned, unless the user has zero gain everywhere."""
    g = net.normalized_gain()
    out = []
    for i in range(net.num_users):
        cands = [w for w, chans in enumerate(net.channels_of_bs)
                 if g[i, chans].max() > 0.0]
        out.append(cands if cands else [0])
    return out


def exhaustive_opt(net: NetworkInstance, strategy: str = CAPA,
                   evaluator: Optional[Evaluator] = None,
                   cap: int = SEARCH_CAP) -> BaselineResult:
    """Global optimum over the pruned profile space, by depth-first search
    with an additive upper bound from singleton cell values (valid because
    cell throughput is monotone submodular in the user set)."""
    ev = _eval(net, GameMode(strategy=strategy), evaluator)
    cands = candidate_bss(net)
    space = 1
    for c in cands:
        space *= len(c)
        if space > cap:
            raise SearchSpaceTooLargeError(
                f"pruned profile space exceeds cap {cap}")

    n = net.num_users
    singleton = [{w: ev.cell(w, frozenset([i])).value for w in cands[i]}
                 for i in range(n)]
    # upper bound on the total value the users i..N-1 can still add
    suffix_bound = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_bound[i] = suffix_bound[i + 1] + max(singleton[i].values())

    best_value = -math.inf
    best_profile: Optional[Tuple[int, ...]] = None
    profile = [0] * n
    cells: List[frozenset] = [frozenset() for _ in range(net.num_bss)]
    evals = 0

    def dfs(i: int, value: float):
        nonlocal best_value, best_profile, evals
        if value + suffix_bound[i] <= best_value + 1e-15:
            return
        if i == n:
            evals += 1
            if value > best_value + 1e-15:
                best_value = value
                best_profile = tuple(profile)
            return
        for w in cands[i]:
            old = cells[w]
            new = old | {i}
            delta = ev.cell(w, new).value - ev.cell(w, old).value
            cells[w] = new
            profile[i] = w
            dfs(i + 1, value + delta)
            cells[w] = old

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
        best_move, best_gain = None, 1e-12
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
        value += best_gain
        value = ev.system_value(a)   # re-anchor to avoid drift
    return BaselineResult(profile=tuple(a), throughput=value, evaluations=evals)


def multi_connect_bound(net: NetworkInstance, strategy: str = CAPA,
                        evaluator: Optional[Evaluator] = None) -> float:
    """Strict upper bound: every BS allocates as if all users were in its
    cell simultaneously."""
    ev = _eval(net, GameMode(strategy=strategy), evaluator)
    everyone = frozenset(range(net.num_users))
    return sum(ev.cell(w, everyone).value for w in range(net.num_bss))
