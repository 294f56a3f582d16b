"""Per-BS VCG taxation and quasilinear user utilities.

Taxes are computed from reported channels only (the information the BS
actually has); realized rates come from the true channels.  The misreport
sampler doubles as the strategy-proofness oracle.
"""

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Sequence

import numpy as np

from .net_model import InvalidArgumentError, NetworkInstance
from .per_bs_alloc import cells_of, realized_rates, reported_rates, solve_cell


@dataclass
class UserOutcome:
    rate: float
    tax: float
    utility: float


def _as_values(net: NetworkInstance, reports) -> np.ndarray:
    if reports is None:
        return net.normalized_gain()
    return np.asarray(reports, dtype=float)


def _reported_cell_sum(net: NetworkInstance, w: int, users: Iterable[int],
                       values: np.ndarray, strategy: str) -> float:
    """Sum of reported rates in cell w."""
    if not users:
        return 0.0
    alloc = solve_cell(net, w, users, values, strategy)
    return sum(reported_rates(net, alloc).values())


def _outcome(net: NetworkInstance, w: int, users: FrozenSet[int], i: int,
             values: np.ndarray, strategy: str, without_i: float) -> UserOutcome:
    """User i's outcome in cell w from one solve on the reports: realized
    rate, the tax alpha * (without_i - reported rates of the others), and
    the quasilinear utility alpha * rate - tax.  `without_i` is the reported
    rate sum of the cell without user i."""
    alpha = net.weight[w]
    alloc = solve_cell(net, w, users, values, strategy)
    rate = realized_rates(net, w, alloc, users).get(i, 0.0)
    with_i = sum(r for u, r in reported_rates(net, alloc).items() if u != i)
    t = alpha * (without_i - with_i)
    return UserOutcome(rate=rate, tax=t, utility=alpha * rate - t)


def tax(net: NetworkInstance, a: Sequence[int], i: int, reports,
        strategy: str) -> float:
    """Rate improvement the rest of the cell would see if user i departed,
    both terms evaluated from the reported channels."""
    return utility(net, a, i, reports, strategy).tax


def utility(net: NetworkInstance, a: Sequence[int], i: int, reports,
            strategy: str) -> UserOutcome:
    """Realized rate (true channels, allocation from reports), reported-side
    tax, and the quasilinear utility alpha*rate - tax."""
    w = a[i]
    values = _as_values(net, reports)
    users = cells_of(a, net.num_bss)[w]
    without_i = _reported_cell_sum(net, w, users - {i}, values, strategy)
    return _outcome(net, w, users, i, values, strategy, without_i)


def _misreport_row(true_row: np.ndarray, net: NetworkInstance,
                   mates: Sequence[int], values: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """Sample one fabricated report: log-uniform per-channel scalings,
    within-BS channel permutations, or copying a cell mate's gains."""
    kind = rng.integers(0, 3)
    if kind == 0:
        factors = 10.0 ** rng.uniform(-2.0, 2.0, size=true_row.shape)
        return true_row * factors
    if kind == 1:
        row = true_row.copy()
        for chans in net.channels_of_bs:
            row[chans] = row[rng.permutation(chans)]
        return row
    if not mates:
        return true_row * 10.0 ** rng.uniform(-2.0, 2.0)
    return values[mates[rng.integers(0, len(mates))]].copy()


def misreport_search(net: NetworkInstance, a: Sequence[int], i: int,
                     strategy: str, rng: np.random.Generator,
                     trials: int = 100) -> float:
    """Max utility gain user i can obtain over sampled fabricated reports.

    This is the executable strategy-proofness check: the returned value
    should never exceed numerical noise.
    """
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    truthful = net.normalized_gain()
    w = a[i]
    users = cells_of(a, net.num_bss)[w]
    # the drop-out term of the tax does not depend on user i's report
    without_i = _reported_cell_sum(net, w, users - {i}, truthful, strategy)
    truthful_u = _outcome(net, w, users, i, truthful, strategy,
                          without_i).utility
    mates = sorted(users - {i})
    true_row = truthful[i]
    best_gain = -math.inf
    vals = truthful.copy()
    for _ in range(trials):
        vals[i] = _misreport_row(true_row, net, mates, truthful, rng)
        gain = _outcome(net, w, users, i, vals, strategy,
                        without_i).utility - truthful_u
        if gain > best_gain:
            best_gain = gain
    return best_gain
