"""Per-BS resource allocation: channel assignment (CA) and joint channel
assignment and water-filling power allocation (CAPA).

Allocations are computed from *reported* normalized gains; realized rates
are computed from the instance's true channels.  All argmax tie-breaks go
to the lowest user index so runs replay deterministically.
"""

import bisect
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
    sub = reports.take(users, 0).take(chans, 1)
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


def _active_set(inv: np.ndarray, budget: float) -> Tuple[List[float], int, int, float]:
    """The water-filling active-set rule over inverse gains `inv`.

    Returns the inverse gains in ascending order, how many of them are
    finite, how many the rule admits, and the water level lam (nan when no
    entry is finite).  The admitted channels are the cheapest ones, grown
    while the candidate water level still covers the next-cheapest channel.
    """
    inv_sorted = np.sort(inv, kind="stable").tolist()
    n_fin = bisect.bisect_left(inv_sorted, math.inf)
    if n_fin == 0:
        return inv_sorted, 0, 0, math.nan
    budget = float(budget)
    active = 1
    csum = inv_sorted[0]
    while active < n_fin:
        lam = (budget + csum) / active
        if lam > inv_sorted[active]:
            csum += inv_sorted[active]
            active += 1
        else:
            break
    return inv_sorted, n_fin, active, (budget + csum) / active


def water_fill(inv_gains: np.ndarray, budget: float) -> Tuple[np.ndarray, float]:
    """Water-filling over parallel channels with effective inverse gains.

    Returns powers p_k = max(0, lam - inv_gains[k]) with sum(p) == budget,
    and the water level lam.  Entries may be +inf (unusable channels).
    """
    if budget <= 0:
        raise InvalidArgumentError("budget must be positive")
    inv = np.asarray(inv_gains, dtype=float)
    inv_sorted, n_fin, _, lam = _active_set(inv, budget)
    if n_fin == 0:
        raise NoUsableChannelError("all channels have zero gain")
    powers = np.maximum(lam - inv, 0.0)
    if n_fin < len(inv_sorted):
        powers[~np.isfinite(inv)] = 0.0
    # exactness of the budget despite float accumulation
    s = powers.sum()
    if s > 0:
        powers *= budget / s
    return powers, lam


def _inverse_gains(tau: float, best: np.ndarray) -> np.ndarray:
    """tau / best per channel, +inf where the best gain is not positive."""
    if best.min(initial=math.inf) > 0:
        return tau / best
    with np.errstate(divide="ignore"):
        return np.where(best > 0, tau / np.where(best > 0, best, 1.0), np.inf)


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
    inv = _inverse_gains(net.tau, best)
    if inv.min(initial=math.inf) == math.inf:
        alloc = _empty_allocation(net, w)
        alloc.beta = beta
        return alloc
    power, lam = water_fill(inv, net.budget[w])
    return Allocation(bs=w, channels=chans, beta=beta, power=power,
                      water_level=lam)


def _rates_from_alloc(net: NetworkInstance, alloc: Allocation,
                      norm_gains: np.ndarray) -> Dict[int, float]:
    """Per-user rates of an allocation under the given normalized gains,
    summed per user in channel order."""
    powers = alloc.power.tolist()
    if max(powers, default=0.0) <= 0:
        return {}                         # an empty cell or no usable channel
    df = float(net.bandwidth[alloc.bs])
    tau = float(net.tau)
    held = alloc.beta.tolist()
    rows = alloc.beta if min(held) >= 0 else np.maximum(alloc.beta, 0)
    gains = norm_gains[rows, alloc.channels].tolist()
    rates: Dict[int, float] = {}
    for user, p, g in zip(held, powers, gains):
        if user < 0 or p <= 0:
            continue
        rates[user] = rates.get(user, 0.0) + df * math.log1p(g * p / tau)
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


def contenders(net: NetworkInstance, w: int, users: Iterable[int],
               reports: np.ndarray, strategy: str) -> np.ndarray:
    """(N,) bool: the users whose arrival in cell w (non-members) or
    departure from it (members of `users`) can change the cell.  For any
    other user, the cell with and without it gives every remaining user the
    same reported rate, in the same order, and the user itself rate 0; so
    the cell value is bit-identical and the user's marginal value is 0.

    A member contends if it holds a channel that carries power: under CA
    any channel, under CAPA a channel the water-fill admitted (its power
    may still round to 0).  A non-member contends if on some channel its
    report reaches the best member report (ties count: the lowest index
    wins them) and, under CAPA, its inverse gain tau / r is below the
    admission bound.  The bound is the first inverse gain the active-set
    rule rejected, or max(lam, last admitted) when it admitted every usable
    channel; an inverse gain at or above it sorts after the admitted prefix
    and is rejected in turn, so the prefix, its running sum, lam and every
    power stay bit-identical.  In an empty cell a user contends if it has
    a positive report (CA) or a finite inverse gain (CAPA).
    """
    if strategy not in STRATEGIES:
        raise InvalidArgumentError(f"unknown strategy {strategy!r}")
    chans = net.channels_of_bs[w]
    sub = reports[:, chans]
    users = sorted(users)
    if not users:
        if strategy == CA:
            return (sub > 0).any(axis=1)
        with np.errstate(divide="ignore"):
            return (net.tau / sub < math.inf).any(axis=1)
    beta, best = _best_user_per_channel(reports, users, chans)
    if strategy == CA:
        flags = (sub >= best).any(axis=1)
        held = beta
    else:
        inv = _inverse_gains(net.tau, best)
        inv_sorted, n_fin, active, lam = _active_set(inv, net.budget[w])
        if n_fin == 0:
            bound = math.inf
        elif active < n_fin:
            bound = inv_sorted[active]
        else:
            bound = max(lam, inv_sorted[active - 1])
        with np.errstate(divide="ignore"):
            flags = ((sub >= best) & (net.tau / sub < bound)).any(axis=1)
        held = beta[np.argsort(inv, kind="stable")[:active]]
    flags[users] = False
    flags[held] = True
    return flags


def cells_of(a: Sequence[int], num_bss: int) -> Tuple[FrozenSet[int], ...]:
    """Per-BS member sets of the association profile `a`, whose entries
    must be BS indices in 0..num_bss-1."""
    sets: List[set] = [set() for _ in range(num_bss)]
    for i, w in enumerate(a):
        if not 0 <= w < num_bss:
            raise InvalidArgumentError(
                f"user {i} has BS index {w}, outside 0..{num_bss - 1}")
        sets[w].add(i)
    return tuple(frozenset(s) for s in sets)

