"""Per-BS resource allocation: channel assignment (CA) and joint channel
assignment and water-filling power allocation (CAPA).

Allocations are computed from *reported* normalized gains; realized rates
are computed from the instance's true channels.  All argmax tie-breaks go
to the lowest user index so runs replay deterministically.
"""

import bisect
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .net_model import InvalidArgumentError, NetworkInstance

CA = "CA"
CAPA = "CAPA"
STRATEGIES = (CA, CAPA)

# Above this many challenger entries (members after the first, times
# channels) `_best_user_per_channel` takes one `argmax` instead of its
# Python loop.
ARGMAX_ENTRIES = 40


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

    beta, power, best and held are Python lists of ints and floats, and
    channels is the BS's index array.  A cell has a handful of channels,
    where a NumPy call costs more than the arithmetic it does; the kernel
    works on Python floats from the report block on, with every operation
    in NumPy's order (see `_sum`), so each float is the one the array
    kernel computed.
    """

    bs: int
    channels: np.ndarray
    beta: List[int]
    power: List[float]
    best: List[float]
    water_level: Optional[float] = None
    held: Optional[List[int]] = None
    bound: float = math.inf


def _empty_allocation(net: NetworkInstance, w: int) -> Allocation:
    chans = net.channels_of_bs[w]
    k = len(chans)
    return Allocation(bs=w, channels=chans, beta=[-1] * k, power=[0.0] * k,
                      best=[0.0] * k, held=[])


def _best_user_per_channel(reports: np.ndarray, users: Sequence[int],
                           chans: np.ndarray) -> Tuple[List[int], List[float]]:
    """Argmax user (lowest index on ties) and best reported gain per
    channel.  A later user takes a channel only with a strictly higher
    report, which is NumPy's first-occurrence argmax.  Beyond
    `ARGMAX_ENTRIES` challenger entries one `argmax` call is cheaper than
    the loop, and gives the same lists."""
    users = sorted(users)
    if len(users) == 1:                   # the most common cell: no argmax
        return [users[0]] * len(chans), reports[users[0]].take(chans).tolist()
    sub = reports.take(users, 0).take(chans, 1)
    if (len(users) - 1) * len(chans) > ARGMAX_ENTRIES:
        idx = sub.argmax(0)
        return (np.array(users).take(idx).tolist(),
                sub[idx, np.arange(len(chans))].tolist())
    rows = sub.tolist()
    best = rows[0]
    beta = [users[0]] * len(best)
    for u, row in zip(users[1:], rows[1:]):
        for k, r in enumerate(row):
            if r > best[k]:
                best[k] = r
                beta[k] = u
    return beta, best


def solve_ca(net: NetworkInstance, w: int, users: Iterable[int],
             reports: np.ndarray) -> Allocation:
    """Equal power per channel; each channel goes to the user with the best
    reported normalized gain."""
    users = sorted(users)
    if not users:
        return _empty_allocation(net, w)
    chans = net.channels_of_bs[w]
    beta, best = _best_user_per_channel(reports, users, chans)
    # a BS without channels gets an empty power list, not a 1/0 error
    power = [float(net.budget[w]) / max(len(chans), 1)] * len(chans)
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

    order: List[int]              # stable ascending order of inv
    finite: int                   # how many entries are finite
    active: int                   # how many the rule admits
    lam: float                    # water level (nan when none is finite)
    bound: float


def _active_set(inv: List[float], budget: float) -> ActiveSet:
    order = sorted(range(len(inv)), key=inv.__getitem__)     # stable
    inv_sorted = sorted(inv)
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


def _sum(xs: List[float]) -> float:
    """`np.add.reduce` of the floats `xs`, bit for bit: NumPy's pairwise
    summation, which `water_fill` renormalizes by.  Under 8 entries it
    adds them in sequence.  Up to 128 it adds entry j of the longest run of
    whole blocks of 8 into accumulator j mod 8, combines the eight as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and adds the rest in sequence.
    Above 128 it sums the two halves split at the multiple of 8 at or
    below n // 2 and adds them.  Each total starts from the identity 0.0,
    which only turns a -0.0 into 0.0."""
    n = len(xs)
    if n < 8:
        s = 0.0
        for x in xs:
            s += x
        return s
    if n > 128:
        h = n // 2 - n // 2 % 8
        return _sum(xs[:h]) + _sum(xs[h:])
    r0, r1, r2, r3, r4, r5, r6, r7 = xs[:8]
    m = n - n % 8
    for i in range(8, m, 8):
        x0, x1, x2, x3, x4, x5, x6, x7 = xs[i:i + 8]
        r0 += x0
        r1 += x1
        r2 += x2
        r3 += x3
        r4 += x4
        r5 += x5
        r6 += x6
        r7 += x7
    s = 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    for x in xs[m:]:
        s += x
    return s


def water_fill(inv_gains: Sequence[float], budget: float,
               active_set: Optional[ActiveSet] = None) -> Tuple[List[float], float]:
    """Water-filling over parallel channels with effective inverse gains.

    Returns powers p_k = max(0, lam - inv_gains[k]) with sum(p) == budget,
    and the water level lam.  Entries may be +inf (unusable channels).
    The budget must be finite and positive.  A caller that already ran
    `_active_set` on these inputs, as a list, passes it.
    """
    budget = float(budget)
    if not 0 < budget < math.inf:
        raise InvalidArgumentError(f"budget must be finite and positive, got {budget}")
    inv = (inv_gains if isinstance(inv_gains, list)
           else np.asarray(inv_gains, dtype=float).tolist())
    rule = _active_set(inv, budget) if active_set is None else active_set
    if rule.finite == 0:
        raise NoUsableChannelError("all channels have zero gain")
    lam = rule.lam
    powers = [lam - x if x < lam else 0.0 for x in inv]
    # exactness of the budget despite float accumulation
    s = _sum(powers)
    if s > 0:
        scale = budget / s
        powers = [p * scale for p in powers]
    return powers, lam


def _inverse_gains(tau: float, reports: np.ndarray) -> np.ndarray:
    """tau / r for each report r, of any shape: the one place the array
    paths compute an inverse gain, and the rule `solve_capa` follows on
    Python floats.  It is +inf where r <= 0 or where tau / r overflows (a
    subnormal r), so such a channel is unusable, and nothing warns.
    Reports all above tau * 1e-300 cannot overflow and are divided at
    once."""
    if reports.min(initial=math.inf) > tau * 1e-300:
        return tau / reports
    with np.errstate(over="ignore"):
        return np.where(reports > 0,
                        tau / np.where(reports > 0, reports, 1.0), np.inf)


def solve_capa(net: NetworkInstance, w: int, users: Iterable[int],
               reports: np.ndarray) -> Allocation:
    """Best-user channel assignment plus water-filling over the per-channel
    best reported gains.  A cell whose best gains are all zero gets the
    zero-power allocation (throughput 0) rather than an error.  The inverse
    gains follow `_inverse_gains`: a Python float division overflows to
    +inf where NumPy's does."""
    users = sorted(users)
    if not users:
        return _empty_allocation(net, w)
    chans = net.channels_of_bs[w]
    budget = float(net.budget[w])
    beta, best = _best_user_per_channel(reports, users, chans)
    tau = float(net.tau)
    inv = [tau / r if r > 0 else math.inf for r in best]
    rule = _active_set(inv, budget)
    held = [beta[j] for j in rule.order[:rule.active]]
    if rule.finite == 0:
        return Allocation(bs=w, channels=chans, beta=beta,
                          power=[0.0] * len(chans), best=best, held=held)
    power, lam = water_fill(inv, budget, rule)
    return Allocation(bs=w, channels=chans, beta=beta, power=power, best=best,
                      water_level=lam, held=held, bound=rule.bound)


def solve_cells(net: NetworkInstance, w: int, beta: np.ndarray,
                best: np.ndarray, strategy: str) -> List[Allocation]:
    """`solve_cell` for C non-empty cells of BS w at once, each given by its
    per-channel winners `beta` and their reports `best` ((C, K_w) arrays,
    `_best_user_per_channel`'s lists stacked; no NaN).  Every field of
    each Allocation is bit-identical to `solve_cell`'s: under CAPA the
    inverse gains are `_inverse_gains`' (+inf for a report <= 0 or one
    whose tau / r overflows), the rows are sorted stably, `cumsum` adds in
    sequence as `_active_set` does, the active set is the first k whose
    level lam_k = (budget + csum_k) / k does not cover the next inverse
    gain, and each row's powers are summed (`_sum`) and renormalized on
    their own, as `water_fill` does."""
    if strategy not in STRATEGIES:
        raise InvalidArgumentError(f"unknown strategy {strategy!r}")
    chans = net.channels_of_bs[w]
    k_w = len(chans)
    budget = float(net.budget[w])
    cells = list(zip(beta.tolist(), best.tolist()))
    if strategy == CA:
        return [Allocation(bs=w, channels=chans, beta=b, power=[budget / k_w] * k_w,
                           best=r, held=b) for b, r in cells]
    inv = _inverse_gains(net.tau, best)
    order = inv.argsort(axis=1, kind="stable")
    inv_sorted = np.take_along_axis(inv, order, axis=1)
    finite = np.isfinite(inv_sorted).sum(axis=1)
    k = np.arange(1, k_w + 1)
    lam = (budget + np.cumsum(inv_sorted, axis=1)) / k
    stop = np.ones(inv.shape, dtype=bool)     # the rule stops at k channels
    stop[:, :-1] = ~(lam[:, :-1] > inv_sorted[:, 1:])
    active = stop.argmax(axis=1) + 1
    rows = np.arange(len(inv))
    level = lam[rows, active - 1]
    past = inv_sorted[rows, np.minimum(active, k_w - 1)]
    last = inv_sorted[rows, active - 1]
    with np.errstate(invalid="ignore"):       # inf - inf: no finite entry
        power = np.maximum(level[:, None] - inv, 0.0)
    out = []
    for (b, r), o, p, n_fin, n_act, lv, nxt, top in zip(
            cells, order.tolist(), power.tolist(), finite.tolist(),
            active.tolist(), level.tolist(), past.tolist(), last.tolist()):
        if n_fin == 0:
            out.append(Allocation(bs=w, channels=chans, beta=b,
                                  power=[0.0] * k_w, best=r, held=[]))
            continue
        s = _sum(p)
        if s > 0:
            scale = budget / s
            p = [x * scale for x in p]
        out.append(Allocation(bs=w, channels=chans, beta=b, power=p, best=r,
                              water_level=lv, held=[b[j] for j in o[:n_act]],
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


def reported_rates(net: NetworkInstance, alloc: Allocation) -> Dict[int, float]:
    """Rates as the BS evaluates them, i.e. from the reports the allocation
    was solved on (`alloc.best`)."""
    if max(alloc.power, default=0.0) <= 0:
        return {}                         # an empty cell or no usable channel
    return _rates(net, alloc.bs, alloc.beta, alloc.power, alloc.best)


def realized_rates(net: NetworkInstance, alloc: Allocation,
                   users: Optional[Iterable[int]] = None) -> Dict[int, float]:
    """Actual rates from the true channels; users holding no channel get 0.
    Only the allocation's entries of `gain / noise` are divided: the same
    numbers as dividing the whole table first."""
    rates: Dict[int, float] = {}
    if max(alloc.power, default=0.0) > 0:     # else an empty cell or no usable channel
        beta = alloc.beta
        at = (beta if min(beta) >= 0 else [max(u, 0) for u in beta],
              alloc.channels)
        rates = _rates(net, alloc.bs, beta, alloc.power,
                       (net.gain[at] / net.noise[at]).tolist())
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
    its inverse gain is below the admission bound, so that the admitted
    prefix, its running sum, lam and every power would change.  In an empty
    cell a user contends if it has a positive report (CA) or a finite
    inverse gain (CAPA).  Inverse gains are `_inverse_gains`', as in the
    solve: +inf for a report <= 0 or one whose tau / r overflows, so under
    CAPA such a report never makes a non-member contend.
    """
    if strategy not in STRATEGIES:
        raise InvalidArgumentError(f"unknown strategy {strategy!r}")
    sub = reports[:, net.channels_of_bs[w]]
    users = list(users)
    if not users:
        if strategy == CA:
            return (sub > 0).any(axis=1)
        return (_inverse_gains(net.tau, sub) < math.inf).any(axis=1)
    if strategy == CA:
        flags = (sub >= best).any(axis=1)
    else:
        inv = _inverse_gains(net.tau, sub)
        flags = ((sub >= best) & (inv < bound)).any(axis=1)
    flags[users] = False
    flags[held] = True
    return flags


def cells_of(net: NetworkInstance, a: Sequence[int]) -> Tuple[int, ...]:
    """Per BS, the member bitmask of its cell (bit i for user i) under the
    association profile `a`, which must hold one BS index in 0..W-1 per
    user of `net`.  `members` lists a mask's users."""
    if len(a) != net.num_users:
        raise InvalidArgumentError(
            f"profile has {len(a)} entries for {net.num_users} users")
    num_bss = net.num_bss
    masks = [0] * num_bss
    for i, w in enumerate(a):
        if not 0 <= w < num_bss:
            raise InvalidArgumentError(
                f"user {i} has BS index {w}, outside 0..{num_bss - 1}")
        masks[w] |= 1 << i
    return tuple(masks)


def members(mask: int) -> List[int]:
    """The users whose bits are set in `mask`, in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
