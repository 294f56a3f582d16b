"""Per-BS resource allocation: channel assignment (CA), joint channel
assignment and water-filling power allocation (CAPA), and the
proportional-fair variant (CA-PF).

Allocations are computed from *reported* normalized gains; realized rates
are computed from the instance's true channels.  All argmax tie-breaks go
to the lowest user index so runs replay deterministically.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .net_model import InvalidArgumentError, NetworkInstance

CA = "CA"
CAPA = "CAPA"
CA_PF = "CA-PF"
STRATEGIES = (CA, CAPA, CA_PF)

PF_EXHAUSTIVE_CAP = 10 ** 6


class NoUsableChannelError(ValueError):
    """Water-filling over channels that are all unusable (zero gain)."""


@dataclass
class Allocation:
    """Channel-to-user assignment and per-channel powers for one BS.

    beta[j] is the user assigned to the j-th channel of the BS (-1 when the
    cell is empty or the channel is left unassigned); channels[j] is the
    global channel index.  water_level is the CAPA dual variable.
    """

    bs: int
    channels: np.ndarray
    beta: np.ndarray
    power: np.ndarray
    water_level: Optional[float] = None
    pf_excluded: Tuple[int, ...] = ()

    def users_served(self) -> List[int]:
        return sorted(set(int(u) for u in self.beta if u >= 0))


def _empty_allocation(net: NetworkInstance, w: int) -> Allocation:
    chans = net.channels_of_bs[w]
    return Allocation(bs=w, channels=chans,
                      beta=np.full(len(chans), -1, dtype=int),
                      power=np.zeros(len(chans)))


def _best_user_per_channel(reports: np.ndarray, users: Sequence[int],
                           chans: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Argmax user (lowest index on ties) and best reported gain per channel."""
    users = np.asarray(sorted(users), dtype=int)
    sub = reports[np.ix_(users, chans)]
    idx = np.argmax(sub, axis=0)          # first occurrence = lowest user index
    return users[idx], sub[idx, np.arange(len(chans))]


def solve_ca(net: NetworkInstance, w: int, users: Iterable[int],
             reports: np.ndarray) -> Allocation:
    """Equal power per channel; each channel goes to the user with the best
    reported normalized gain."""
    users = sorted(users)
    if not users:
        return _empty_allocation(net, w)
    chans = net.channels_of_bs[w]
    beta, _ = _best_user_per_channel(reports, users, chans)
    power = np.full(len(chans), net.budget[w] / len(chans))
    return Allocation(bs=w, channels=chans, beta=beta, power=power)


def water_fill(inv_gains: np.ndarray, budget: float) -> Tuple[np.ndarray, float]:
    """Water-filling over parallel channels with effective inverse gains.

    Returns powers p_k = max(0, lam - inv_gains[k]) with sum(p) == budget,
    and the water level lam.  Entries may be +inf (unusable channels).
    """
    if budget <= 0:
        raise InvalidArgumentError("budget must be positive")
    inv = np.asarray(inv_gains, dtype=float)
    finite = np.isfinite(inv)
    if not finite.any():
        raise NoUsableChannelError("all channels have zero gain")
    order = np.argsort(inv, kind="stable")
    inv_sorted = inv[order]
    n_fin = int(finite.sum())
    # grow the active set while the candidate water level still covers the
    # next-cheapest channel
    active = 1
    csum = inv_sorted[0]
    while active < n_fin:
        lam = (budget + csum) / active
        if lam > inv_sorted[active]:
            csum += inv_sorted[active]
            active += 1
        else:
            break
    lam = (budget + csum) / active
    powers = np.maximum(lam - inv, 0.0)
    powers[~finite] = 0.0
    # exactness of the budget despite float accumulation
    s = powers.sum()
    if s > 0:
        powers *= budget / s
    return powers, float(lam)


def solve_capa(net: NetworkInstance, w: int, users: Iterable[int],
               reports: np.ndarray) -> Allocation:
    """Best-user channel assignment plus water-filling over the per-channel
    best reported gains.  A cell whose best gains are all zero gets the
    zero-power allocation (throughput 0) rather than an error."""
    users = sorted(users)
    if not users:
        return _empty_allocation(net, w)
    chans = net.channels_of_bs[w]
    beta, best = _best_user_per_channel(reports, users, chans)
    with np.errstate(divide="ignore"):
        inv = np.where(best > 0, net.tau / np.where(best > 0, best, 1.0), np.inf)
    if not np.isfinite(inv).any():
        alloc = _empty_allocation(net, w)
        alloc.beta = beta
        return alloc
    power, lam = water_fill(inv, net.budget[w])
    return Allocation(bs=w, channels=chans, beta=beta, power=power,
                      water_level=lam)


def _rates_from_alloc(net: NetworkInstance, alloc: Allocation,
                      norm_gains: np.ndarray) -> Dict[int, float]:
    """Per-user rates of an allocation under the given normalized gains."""
    df = net.bandwidth[alloc.bs]
    rates: Dict[int, float] = {}
    for j, user in enumerate(alloc.beta):
        if user < 0 or alloc.power[j] <= 0:
            continue
        g = norm_gains[user, alloc.channels[j]]
        rates[int(user)] = rates.get(int(user), 0.0) + df * math.log1p(
            g * alloc.power[j] / net.tau)
    return rates


def reported_rates(net: NetworkInstance, alloc: Allocation,
                   reports: np.ndarray) -> Dict[int, float]:
    """Rates as the BS evaluates them, i.e. from the reported gains."""
    return _rates_from_alloc(net, alloc, reports)


def realized_rates(net: NetworkInstance, w: int, alloc: Allocation,
                   users: Optional[Iterable[int]] = None) -> Dict[int, float]:
    """Actual rates from the true channels; users holding no channel get 0."""
    rates = _rates_from_alloc(net, alloc, net.normalized_gain())
    if users is not None:
        for u in users:
            rates.setdefault(int(u), 0.0)
    return rates


def _pf_objective(net: NetworkInstance, w: int, rates: Dict[int, float],
                  members: Sequence[int]) -> float:
    alpha = net.weight[w]
    total = 0.0
    for u in members:
        r = rates.get(u, 0.0)
        if r <= 0:
            return -math.inf
        total += alpha * math.log(r)
    return total


def solve_ca_pf(net: NetworkInstance, w: int, users: Iterable[int],
                reports: np.ndarray) -> Allocation:
    """Equal-power channel assignment maximizing the sum of log rates.

    Exhaustive over assignments when |users|^|K_w| is small; otherwise a
    greedy round-robin seeding (guaranteeing each user a channel) followed
    by single-channel reassignment local search.  When there are more users
    than channels, the overflow users (lowest best-gain first) are excluded
    from the objective and flagged on the allocation.
    """
    users = sorted(users)
    if not users:
        return _empty_allocation(net, w)
    chans = net.channels_of_bs[w]
    n_ch = len(chans)
    excluded: Tuple[int, ...] = ()
    if len(users) > n_ch:
        best = reports[np.ix_(users, chans)].max(axis=1)
        keep_order = sorted(range(len(users)), key=lambda j: (-best[j], users[j]))
        kept = sorted(users[j] for j in keep_order[:n_ch])
        excluded = tuple(sorted(set(users) - set(kept)))
        users = kept
    power = np.full(n_ch, net.budget[w] / n_ch)

    def rates_of(beta: np.ndarray) -> Dict[int, float]:
        alloc = Allocation(bs=w, channels=chans, beta=beta, power=power)
        return _rates_from_alloc(net, alloc, reports)

    if len(users) ** n_ch <= PF_EXHAUSTIVE_CAP:
        # seed with the greedy assignment so a uniformly -inf objective
        # (some user has zero gain everywhere) still yields an allocation
        best_beta = _pf_greedy_local(net, w, users, reports, chans, power)
        best_obj = _pf_objective(net, w, rates_of(best_beta), users)
        for combo in itertools.product(users, repeat=n_ch):
            beta = np.asarray(combo, dtype=int)
            obj = _pf_objective(net, w, rates_of(beta), users)
            if obj > best_obj:
                best_beta, best_obj = beta, obj
        beta = best_beta
    else:
        beta = _pf_greedy_local(net, w, users, reports, chans, power)
    return Allocation(bs=w, channels=chans, beta=beta, power=power,
                      pf_excluded=excluded)


def _pf_greedy_local(net, w, users, reports, chans, power) -> np.ndarray:
    sub = reports[np.ix_(users, chans)]
    beta = np.full(len(chans), -1, dtype=int)
    taken = np.zeros(len(chans), dtype=bool)
    # round-robin: every user grabs its best remaining channel first
    for rounds in range(math.ceil(len(chans) / len(users))):
        for j, u in enumerate(users):
            if taken.all():
                break
            masked = np.where(taken, -1.0, sub[j])
            k = int(np.argmax(masked))
            beta[k] = u
            taken[k] = True
    beta[beta < 0] = users[0]

    def obj(b):
        alloc = Allocation(bs=w, channels=chans, beta=b, power=power)
        return _pf_objective(net, w, _rates_from_alloc(net, alloc, reports), users)

    cur = obj(beta)
    improved = True
    while improved:
        improved = False
        # single-channel reassignment
        for k in range(len(chans)):
            for u in users:
                if u == beta[k]:
                    continue
                cand = beta.copy()
                cand[k] = u
                val = obj(cand)
                if val > cur + 1e-12:
                    beta, cur = cand, val
                    improved = True
        # pairwise channel swaps escape single-move local optima
        for k1 in range(len(chans)):
            for k2 in range(k1 + 1, len(chans)):
                if beta[k1] == beta[k2]:
                    continue
                cand = beta.copy()
                cand[k1], cand[k2] = cand[k2], cand[k1]
                val = obj(cand)
                if val > cur + 1e-12:
                    beta, cur = cand, val
                    improved = True
    return beta


def solve_cell(net: NetworkInstance, w: int, users: Iterable[int],
               reports: np.ndarray, strategy: str) -> Allocation:
    if strategy == CA:
        return solve_ca(net, w, users, reports)
    if strategy == CAPA:
        return solve_capa(net, w, users, reports)
    if strategy == CA_PF:
        return solve_ca_pf(net, w, users, reports)
    raise InvalidArgumentError(f"unknown strategy {strategy!r}")


def cells_of(a: Sequence[int], num_bss: int) -> Tuple[FrozenSet[int], ...]:
    """Per-BS member sets of the association profile `a`."""
    sets: List[set] = [set() for _ in range(num_bss)]
    for i, w in enumerate(a):
        sets[w].add(i)
    return tuple(frozenset(s) for s in sets)


def bs_throughput(net: NetworkInstance, w: int, a: Sequence[int],
                  reports: np.ndarray, strategy: str) -> float:
    """Weighted realized cell throughput alpha_w * sum of true-channel rates
    under the allocation the BS computes from the reports."""
    users = cells_of(a, net.num_bss)[w]
    if not users:
        return 0.0
    alloc = solve_cell(net, w, users, reports, strategy)
    return net.weight[w] * sum(realized_rates(net, w, alloc, users).values())
