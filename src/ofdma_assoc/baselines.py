"""Reference association policies and bounds: nearest-BS, pruned exhaustive
optimum, steepest-ascent local search, and the multiple-connectivity upper
bound."""

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .assoc_game import STRICT_TOL, Evaluator, GameMode, _eval, mask_members
from .mechanism import nearest_bs_profile
from .net_model import NetworkInstance
from .per_bs_alloc import CAPA, cells_of

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
    (the true normalized gains by default) pass `NetworkInstance.reports`."""
    g = net.reports(reports)
    out = []
    for i in range(net.num_users):
        cands = [w for w, chans in enumerate(net.channels_of_bs)
                 if g[i, chans].max(initial=0.0) > 0.0]
        out.append(cands if cands else [0])
    return out


def exhaustive_opt(net: NetworkInstance, strategy: str = CAPA,
                   evaluator: Optional[Evaluator] = None) -> BaselineResult:
    """Global optimum over the pruned profile space, by depth-first branch
    and bound (Land & Doig 1960).  A node is valued by the sum of its W
    cell values in BS order, as `Evaluator.system_value` sums, so the
    returned throughput is `ev.system_value(profile)`.  `evaluations`
    counts the leaves reached, each of which raises the incumbent.

    Warm start: the incumbent starts, with no profile, at g - 1e-9·(1+|g|),
    g being `greedy0`'s value on the same Evaluator.  A user of greedy0's
    profile adds nothing at a BS where all its reports are zero, and cells
    are monotone in their user set, so moving it to a candidate BS loses
    nothing: the optimum over candidate BSs is at least g.  The slack
    absorbs rounding, so the optimum leaf is still recorded.

    Entry check: a child is entered only if its value plus the best
    singleton values of the users after it beats the incumbent by more
    than STRICT_TOL, as a profile must in the optimum scan of
    `enumerate_nes`.  By subadditivity, V_w(S | T) <= V_w(S) + V_w(T) (the
    union's powers are feasible for S and for T, and log(1+max(x,y)) <=
    log(1+x) + log(1+y)), that sum bounds the child's leaves.

    A child (i, w) is skipped before its cell is looked up when a bound on
    its leaves is at or below `cut`, a further 1e-9 relative below the
    incumbent, so that rounding in the bound cannot skip a leaf the entry
    check would keep.  By monotonicity (criterion 07), with R_w the users
    after i that may pick w, A_w = V_w(S_w | R_w) - V_w(S_w), and B_w the
    same with user i in R_w, the child's leaves are worth at most
    sum_w V_w(S_w) + sum(A) - A_w + B_w.  Where one or two users are left
    after i, those unions are all but leaf cells and solving them costs
    more than they prune, so A_w is bounded instead by min(B_w, the sum of
    their singleton values at w).  So the search reaches the same leaves,
    in the same order, as one from the same warm start that looked up
    every child and ran only the entry check."""
    ev = _eval(net, GameMode(strategy=strategy), evaluator)
    cands = candidate_bss(net, ev.reports)
    space = 1
    for c in cands:
        space *= len(c)
        if space > SEARCH_CAP:
            raise SearchSpaceTooLargeError(
                f"pruned profile space exceeds cap {SEARCH_CAP}")

    n, num_bss = net.num_users, net.num_bss
    if n == 0:
        return BaselineResult(profile=(), throughput=0.0, evaluations=1)
    singleton = [{w: ev.cell(w, frozenset([i])).value for w in cands[i]}
                 for i in range(n)]
    # upper bound on the total value the users i..N-1 can still add
    suffix_bound = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_bound[i] = suffix_bound[i + 1] + max(singleton[i].values())
    # per depth i and BS w: the users i..N-1 that may pick w, as a bitmask
    # (reach), and the sum of their singleton values at w (spread)
    reach = [[0] * num_bss for _ in range(n + 1)]
    spread = [[0.0] * num_bss for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        reach[i], spread[i] = list(reach[i + 1]), list(spread[i + 1])
        for w, single in singleton[i].items():
            reach[i][w] |= 1 << i
            spread[i][w] += single
    # per BS: cell value by member bitmask (the unions included; `ev.cell`
    # solves only the cells not yet seen), and the current cell
    values = [{} for _ in range(num_bss)]
    masks = [0] * num_bss
    current = [0.0] * num_bss

    def value_of(w: int, mask: int) -> float:
        cell = values[w].get(mask)
        if cell is None:
            cell = values[w][mask] = ev.cell(w, mask_members(mask)).value
        return cell

    def unions(i: int) -> List[float]:
        """Per BS w, V_w(S_w | the users i..N-1 that may pick w)."""
        out = list(current)
        for w, r in enumerate(reach[i]):
            if r:
                cell = values[w].get(masks[w] | r)
                out[w] = value_of(w, masks[w] | r) if cell is None else cell
        return out

    g = greedy0(net, strategy, ev).throughput
    best_value = g - 1e-9 * (1.0 + abs(g))
    cut = best_value - 1e-9 * (1.0 + abs(best_value))
    best_profile: Optional[Tuple[int, ...]] = None
    profile = [0] * n
    evals = 0

    def dfs(i: int, upper: List[float]):
        """Visit the children of a node at depth i that passed its entry
        check; upper[w] bounds V_w(S_w | R_w) with user i in R_w."""
        nonlocal best_value, best_profile, cut, evals
        rest = suffix_bound[i + 1]
        bit = 1 << i
        if i + 1 < n <= i + 3:
            # one or two users left after i: their unions are all but leaf
            # cells, so A_w is bounded by B_w and by their singletons instead
            after = [c + min(u - c, s)
                     for c, u, s in zip(current, upper, spread[i + 1])]
        else:
            after = unions(i + 1)
        gains = sum(after)        # sum(V(S)) + sum(A)
        for w in singleton[i]:
            if gains + (upper[w] - after[w]) <= cut:
                continue
            new = masks[w] | bit
            cell = values[w].get(new)
            if cell is None:
                cell = value_of(w, new)
            old, held = masks[w], current[w]
            masks[w], current[w] = new, cell
            child = sum(current)
            if child + rest > best_value + STRICT_TOL:
                profile[i] = w
                if i + 1 == n:    # rest is 0: the leaf beats the incumbent
                    evals += 1
                    best_value, best_profile = child, tuple(profile)
                    cut = best_value - 1e-9 * (1.0 + abs(best_value))
                else:
                    below = list(after)
                    below[w] = upper[w]
                    dfs(i + 1, below)
            masks[w], current[w] = old, held

    dfs(0, unions(0))
    return BaselineResult(profile=best_profile, throughput=best_value,
                          evaluations=evals)


def greedy0(net: NetworkInstance, strategy: str = CAPA,
            evaluator: Optional[Evaluator] = None) -> BaselineResult:
    """Steepest single-user-move ascent on the system objective, starting
    from the nearest-BS profile.  A move changes two cells: it is valued by
    replacing their values in the list of W cell values and summing it in
    BS order, as `Evaluator.system_value` sums."""
    ev = _eval(net, GameMode(strategy=strategy), evaluator)
    a = list(nearest_bs_profile(net))
    evals = 1
    while True:
        sets = cells_of(net, a)
        cells = [ev.cell(w, s).value for w, s in enumerate(sets)]
        value = sum(cells)
        best_move, best_gain = None, STRICT_TOL
        for i, here in enumerate(a):
            left = ev.cell(here, sets[here] - {i}).value
            for w, members in enumerate(sets):
                if w == here:
                    continue
                cand = list(cells)
                cand[here] = left
                cand[w] = ev.cell(w, members | {i}).value
                evals += 1
                gain = sum(cand) - value
                if gain > best_gain:
                    best_move, best_gain = (i, w), gain
        if best_move is None:
            break
        a[best_move[0]] = best_move[1]
    return BaselineResult(profile=tuple(a), throughput=value, evaluations=evals)


def multi_connect_bound(net: NetworkInstance, strategy: str = CAPA,
                        evaluator: Optional[Evaluator] = None) -> float:
    """Strict upper bound: every BS allocates as if all users were in its
    cell simultaneously."""
    ev = _eval(net, GameMode(strategy=strategy), evaluator)
    everyone = frozenset(range(net.num_users))
    return sum(ev.cell(w, everyone).value for w in range(net.num_bss))
