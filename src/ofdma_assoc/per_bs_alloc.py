"""Per-BS resource allocation: channel assignment (CA) and joint channel
assignment and water-filling power allocation (CAPA).

Allocations are computed from *reported* normalized gains; realized rates
are computed from the instance's true channels.  All argmax tie-breaks go
to the lowest user index so runs replay deterministically.
"""

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .net_model import InvalidArgumentError, NetworkInstance

CA = "CA"
CAPA = "CAPA"
STRATEGIES = (CA, CAPA)


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


def solve_cell(net: NetworkInstance, w: int, users: Iterable[int],
               reports: np.ndarray, strategy: str) -> Allocation:
    if strategy == CA:
        return solve_ca(net, w, users, reports)
    if strategy == CAPA:
        return solve_capa(net, w, users, reports)
    raise InvalidArgumentError(f"unknown strategy {strategy!r}")


def cells_of(a: Sequence[int], num_bss: int) -> Tuple[FrozenSet[int], ...]:
    """Per-BS member sets of the association profile `a`."""
    sets: List[set] = [set() for _ in range(num_bss)]
    for i, w in enumerate(a):
        sets[w].add(i)
    return tuple(frozenset(s) for s in sets)

