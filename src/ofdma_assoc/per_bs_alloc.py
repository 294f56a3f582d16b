"""Per-BS resource allocation: channel assignment (CA) and joint channel
assignment and water-filling power allocation (CAPA).

Allocations are computed from *reported* normalized gains; realized rates
are computed from the instance's true channels.  All argmax tie-breaks go
to the lowest user index so runs replay deterministically.
"""

import bisect
import math
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

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
    global channel index; best[j] is the report the channel was assigned
    on, reports[beta[j], channels[j]].  water_level is the CAPA dual
    variable.  held and bound are what `contenders` reads: the users
    holding a channel that can carry power, and the CAPA admission bound
    on a newcomer's inverse gain (inf under CA).
    """

    bs: int
    channels: np.ndarray
    beta: np.ndarray
    power: np.ndarray
    best: np.ndarray
    water_level: Optional[float] = None
    held: Optional[np.ndarray] = None
    bound: float = math.inf


def _empty_allocation(net: NetworkInstance, w: int) -> Allocation:
    chans = net.channels_of_bs[w]
    return Allocation(bs=w, channels=chans,
                      beta=np.full(len(chans), -1, dtype=int),
                      power=np.zeros(len(chans)), best=np.zeros(len(chans)),
                      held=np.zeros(0, dtype=int))


def _best_user_per_channel(reports: np.ndarray, users: Sequence[int],
                           chans: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Argmax user (lowest index on ties) and best reported gain per channel."""
    users = sorted(users)
    if len(users) == 1:                   # the most common cell: no argmax
        return np.full(len(chans), users[0]), reports[users[0]].take(chans)
    rows = np.array(users, dtype=int)
    sub = reports.take(rows, 0).take(chans, 1)
    idx = sub.argmax(0)                   # first occurrence = lowest user index
    return rows.take(idx), sub[idx, np.arange(len(chans))]


def solve_ca(net: NetworkInstance, w: int, users: Iterable[int],
             reports: np.ndarray) -> Allocation:
    """Equal power per channel; each channel goes to the user with the best
    reported normalized gain."""
    users = sorted(users)
    if not users:
        return _empty_allocation(net, w)
    chans = net.channels_of_bs[w]
    beta, best = _best_user_per_channel(reports, users, chans)
    power = np.full(len(chans), net.budget[w] / len(chans))
    return Allocation(bs=w, channels=chans, beta=beta, power=power,
                      best=best, held=beta)


class ActiveSet(NamedTuple):
    """The water-filling active-set rule over inverse gains `inv`.

    The admitted channels are the cheapest ones, grown while the candidate
    water level still covers the next-cheapest channel.  bound is the
    first inverse gain the rule rejected, or max(lam, last admitted) when
    it admitted every finite entry (inf when none is finite): an added
    inverse gain at or above it sorts after the admitted prefix and is
    rejected in turn.
    """

    order: np.ndarray             # stable ascending order of inv
    finite: int                   # how many entries are finite
    active: int                   # how many the rule admits
    lam: float                    # water level (nan when none is finite)
    bound: float


def _active_set(inv: np.ndarray, budget: float) -> ActiveSet:
    order = inv.argsort(kind="stable")
    inv_sorted = inv.take(order).tolist()
    n_fin = bisect.bisect_left(inv_sorted, math.inf)
    if n_fin == 0:
        return ActiveSet(order, 0, 0, math.nan, math.inf)
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
    bound = (inv_sorted[active] if active < n_fin
             else max(lam, inv_sorted[active - 1]))
    return ActiveSet(order, n_fin, active, lam, bound)


def water_fill(inv_gains: np.ndarray, budget: float,
               active_set: Optional[ActiveSet] = None) -> Tuple[np.ndarray, float]:
    """Water-filling over parallel channels with effective inverse gains.

    Returns powers p_k = max(0, lam - inv_gains[k]) with sum(p) == budget,
    and the water level lam.  Entries may be +inf (unusable channels).
    A caller that already ran `_active_set` on these inputs passes it.
    """
    budget = float(budget)
    if budget <= 0:
        raise InvalidArgumentError("budget must be positive")
    inv = np.asarray(inv_gains, dtype=float)
    rule = _active_set(inv, budget) if active_set is None else active_set
    if rule.finite == 0:
        raise NoUsableChannelError("all channels have zero gain")
    lam = rule.lam
    powers = lam - inv
    np.maximum(powers, 0.0, out=powers)
    if rule.finite < len(inv):
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
    budget = float(net.budget[w])
    beta, best = _best_user_per_channel(reports, users, chans)
    inv = _inverse_gains(net.tau, best)
    rule = _active_set(inv, budget)
    held = beta[rule.order[:rule.active]]
    if rule.finite == 0:
        return Allocation(bs=w, channels=chans, beta=beta,
                          power=np.zeros(len(chans)), best=best, held=held)
    power, lam = water_fill(inv, budget, rule)
    return Allocation(bs=w, channels=chans, beta=beta, power=power, best=best,
                      water_level=lam, held=held, bound=rule.bound)


def solve_cells(net: NetworkInstance, w: int, beta: np.ndarray,
                best: np.ndarray, strategy: str) -> List[Allocation]:
    """`solve_cell` for C non-empty cells of BS w at once, each given by its
    per-channel winners `beta` and their reports `best` ((C, K_w) arrays,
    as `_best_user_per_channel` returns them; no NaN).  Every field of each
    Allocation is bit-identical to `solve_cell`'s: under CAPA the rows are
    sorted stably, `cumsum` adds in sequence as `_active_set` does, the
    active set is the first k whose level lam_k = (budget + csum_k) / k does
    not cover the next inverse gain, and each row's powers are summed and
    renormalized on their own, as `water_fill` does."""
    if strategy not in STRATEGIES:
        raise InvalidArgumentError(f"unknown strategy {strategy!r}")
    chans = net.channels_of_bs[w]
    cells = [(b.copy(), r.copy()) for b, r in zip(beta, best)]
    if strategy == CA:
        power = np.full(len(chans), net.budget[w] / len(chans))
        return [Allocation(bs=w, channels=chans, beta=b, power=power.copy(),
                           best=r, held=b) for b, r in cells]
    budget = float(net.budget[w])
    with np.errstate(divide="ignore"):
        inv = np.where(best > 0, net.tau / np.where(best > 0, best, 1.0), np.inf)
    order = inv.argsort(axis=1, kind="stable")
    inv_sorted = np.take_along_axis(inv, order, axis=1)
    finite = np.isfinite(inv_sorted).sum(axis=1)
    k = np.arange(1, inv.shape[1] + 1)
    lam = (budget + np.cumsum(inv_sorted, axis=1)) / k
    stop = np.ones(inv.shape, dtype=bool)     # the rule stops at k channels
    stop[:, :-1] = ~(lam[:, :-1] > inv_sorted[:, 1:])
    active = stop.argmax(axis=1) + 1
    rows = np.arange(len(inv))
    level = lam[rows, active - 1]
    past = inv_sorted[rows, np.minimum(active, inv.shape[1] - 1)]
    last = inv_sorted[rows, active - 1]
    with np.errstate(invalid="ignore"):       # inf - inf: no finite entry
        power = np.maximum(level[:, None] - inv, 0.0)
    out = []
    for (b, r), o, p, n_fin, n_act, lv, nxt, top in zip(
            cells, order, power, finite.tolist(), active.tolist(),
            level.tolist(), past.tolist(), last.tolist()):
        if n_fin == 0:
            out.append(Allocation(bs=w, channels=chans, beta=b,
                                  power=np.zeros(len(chans)), best=r,
                                  held=b[o[:0]]))
            continue
        p = p.copy()
        s = p.sum()
        if s > 0:
            p *= budget / s
        out.append(Allocation(bs=w, channels=chans, beta=b, power=p, best=r,
                              water_level=lv, held=b[o[:n_act]],
                              bound=nxt if n_act < n_fin else max(lv, top)))
    return out


def _rates(net: NetworkInstance, w: int, beta: List[int], powers: List[float],
           gains: List[float]) -> Dict[int, float]:
    """Per-user rates in cell w from the per-channel users, powers and
    normalized gains, summed per user in channel order."""
    df = float(net.bandwidth[w])
    tau = float(net.tau)
    rates: Dict[int, float] = {}
    for user, p, g in zip(beta, powers, gains):
        if user < 0 or p <= 0:
            continue
        rates[user] = rates.get(user, 0.0) + df * math.log1p(g * p / tau)
    return rates


def _rates_from_alloc(net: NetworkInstance, alloc: Allocation,
                      norm_gains: np.ndarray) -> Dict[int, float]:
    """Per-user rates of an allocation under the given normalized gains."""
    powers = alloc.power.tolist()
    if max(powers, default=0.0) <= 0:
        return {}                         # an empty cell or no usable channel
    beta = alloc.beta.tolist()
    rows = alloc.beta if min(beta) >= 0 else np.maximum(alloc.beta, 0)
    gains = norm_gains[rows, alloc.channels].tolist()
    return _rates(net, alloc.bs, beta, powers, gains)


def reported_rates(net: NetworkInstance, alloc: Allocation) -> Dict[int, float]:
    """Rates as the BS evaluates them, i.e. from the reports the allocation
    was solved on (`alloc.best`)."""
    powers = alloc.power.tolist()
    if max(powers, default=0.0) <= 0:
        return {}                         # an empty cell or no usable channel
    return _rates(net, alloc.bs, alloc.beta.tolist(), powers, alloc.best.tolist())


def realized_rates(net: NetworkInstance, alloc: Allocation,
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
               reports: np.ndarray, strategy: str,
               held: Optional[np.ndarray] = None,
               best: Optional[np.ndarray] = None,
               bound: float = math.inf) -> np.ndarray:
    """(N,) bool: the users whose arrival in cell w (non-members) or
    departure from it (members of `users`) can change the cell.  For any
    other user, the cell with and without it gives every remaining user the
    same reported rate, in the same order, and the user itself rate 0; so
    the cell value is bit-identical and the user's marginal value is 0.

    `held`, `best` and `bound` are those of the cell's solve on `reports`
    (see `Allocation`); an empty cell needs none.  A member contends if it
    holds a channel that carries power: under CA any channel, under CAPA a
    channel the water-fill admitted (its power may still round to 0).  A
    non-member contends if on some channel its report reaches the best
    member report (ties count: the lowest index wins them) and, under CAPA,
    its inverse gain tau / r is below the admission bound, so that the
    admitted prefix, its running sum, lam and every power would change.  In
    an empty cell a user contends if it has a positive report (CA) or a
    finite inverse gain (CAPA).
    """
    if strategy not in STRATEGIES:
        raise InvalidArgumentError(f"unknown strategy {strategy!r}")
    sub = reports[:, net.channels_of_bs[w]]
    users = list(users)
    if not users:
        if strategy == CA:
            return (sub > 0).any(axis=1)
        with np.errstate(divide="ignore"):
            return (net.tau / sub < math.inf).any(axis=1)
    if strategy == CA:
        flags = (sub >= best).any(axis=1)
    else:
        with np.errstate(divide="ignore"):
            flags = ((sub >= best) & (net.tau / sub < bound)).any(axis=1)
    flags[users] = False
    flags[held] = True
    return flags


def cells_of(net: NetworkInstance,
             a: Sequence[int]) -> Tuple[FrozenSet[int], ...]:
    """Per-BS member sets of the association profile `a`, which must hold
    one BS index in 0..W-1 per user of `net`."""
    if len(a) != net.num_users:
        raise InvalidArgumentError(
            f"profile has {len(a)} entries for {net.num_users} users")
    num_bss = net.num_bss
    sets: List[set] = [set() for _ in range(num_bss)]
    for i, w in enumerate(a):
        if not 0 <= w < num_bss:
            raise InvalidArgumentError(
                f"user {i} has BS index {w}, outside 0..{num_bss - 1}")
        sets[w].add(i)
    return tuple(frozenset(s) for s in sets)
