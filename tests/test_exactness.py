"""Bit-exactness of the fast paths.

The per-cell kernel is checked against reference copies of its earlier,
plainer bodies, and the game layer's zero-marginal rules against the
two-solve utility formula.  Every comparison is `==`: the DBSA trajectory
compares utilities with a tolerance below one ulp, so a last-bit change
could change a run.
"""

import dataclasses
import itertools
import math
import struct
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from ofdma_assoc import assoc_game, baselines
from ofdma_assoc.assoc_game import Evaluator, GameMode
from ofdma_assoc.net_model import (InvalidArgumentError, NetworkInstance,
                                   ScenarioConfig, generate,
                                   inject_estimation_error)
from ofdma_assoc.per_bs_alloc import (CA, CAPA, STRATEGIES, Allocation,
                                      NoUsableChannelError,
                                      _best_user_per_channel,
                                      _empty_allocation, _inverse_gains,
                                      _sum, cells_of, contenders, members,
                                      realized_rates, reported_rates,
                                      solve_cell, solve_cells,
                                      water_fill)

# -- reference kernel: the plain NumPy bodies the lean kernel replaced ------


def ref_best_user_per_channel(reports, users, chans):
    users = np.asarray(sorted(users), dtype=int)
    sub = reports[np.ix_(users, chans)]
    idx = np.argmax(sub, axis=0)
    return users[idx], sub[idx, np.arange(len(chans))]


def ref_water_fill(inv_gains, budget):
    if budget <= 0:
        raise InvalidArgumentError("budget must be positive")
    inv = np.asarray(inv_gains, dtype=float)
    finite = np.isfinite(inv)
    if not finite.any():
        raise NoUsableChannelError("all channels have zero gain")
    order = np.argsort(inv, kind="stable")
    inv_sorted = inv[order]
    n_fin = int(finite.sum())
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
    s = powers.sum()
    if s > 0:
        powers *= budget / s
    return powers, float(lam)


def ref_solve_capa(net, w, users, reports):
    users = sorted(users)
    if not users:
        return _empty_allocation(net, w)
    chans = net.channels_of_bs[w]
    beta, best = ref_best_user_per_channel(reports, users, chans)
    with np.errstate(divide="ignore", over="ignore"):
        inv = np.where(best > 0, net.tau / np.where(best > 0, best, 1.0), np.inf)
    if not np.isfinite(inv).any():
        return Allocation(bs=w, channels=chans, beta=beta,
                          power=np.zeros(len(chans)), best=best)
    power, lam = ref_water_fill(inv, net.budget[w])
    return Allocation(bs=w, channels=chans, beta=beta, power=power, best=best,
                      water_level=lam)


def ref_rates_from_alloc(net, alloc, norm_gains):
    df = net.bandwidth[alloc.bs]
    rates = {}
    for j, user in enumerate(alloc.beta):
        if user < 0 or alloc.power[j] <= 0:
            continue
        g = norm_gains[user, alloc.channels[j]]
        rates[int(user)] = rates.get(int(user), 0.0) + df * math.log1p(
            g * alloc.power[j] / net.tau)
    return rates


def ref_active_set(inv, budget):
    inv_sorted = np.sort(inv, kind="stable").tolist()
    n_fin = sum(1 for x in inv_sorted if x < math.inf)
    if n_fin == 0:
        return inv_sorted, 0, 0, math.nan
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


def ref_contenders(net, w, users, reports, strategy):
    """The contender test that solved the cell's winners again."""
    chans = net.channels_of_bs[w]
    sub = reports[:, chans]
    users = sorted(users)
    if not users:
        if strategy == CA:
            return (sub > 0).any(axis=1)
        with np.errstate(divide="ignore", over="ignore"):
            return (net.tau / sub < math.inf).any(axis=1)
    beta, best = ref_best_user_per_channel(reports, users, chans)
    if strategy == CA:
        flags = (sub >= best).any(axis=1)
        held = beta
    else:
        inv = _inverse_gains(net.tau, best)
        inv_sorted, n_fin, active, lam = ref_active_set(inv, float(net.budget[w]))
        if n_fin == 0:
            bound = math.inf
        elif active < n_fin:
            bound = inv_sorted[active]
        else:
            bound = max(lam, inv_sorted[active - 1])
        with np.errstate(divide="ignore", over="ignore"):
            flags = ((sub >= best) & (net.tau / sub < bound)).any(axis=1)
        held = beta[np.argsort(inv, kind="stable")[:active]]
    flags[users] = False
    flags[held] = True
    return flags


def solve_contenders(net, w, members, reports, strategy):
    """`contenders` fed from the cell's own solve."""
    alloc = solve_cell(net, w, members, reports, strategy)
    return contenders(net, w, members, reports, strategy,
                      alloc.held, alloc.best, alloc.bound)


# -- drawn inputs: few distinct values, so ties and zeros are common --------

# 1e-320 is a subnormal report whose inverse gain tau / r overflows to +inf
GAIN = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 3.0, 7.5, 1e-3, 40.0,
                        1e-320])
INV = st.one_of(st.sampled_from([math.inf, 0.5, 1.0, 1.0, 2.0]),
                st.floats(0.01, 100.0))


@st.composite
def cells(draw):
    """A one-BS instance with 1-6 users and 1-40 channels, a member set,
    and a report matrix drawn from GAIN (so zero rows and ties occur)."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 40))
    gain = np.array(draw(st.lists(st.lists(GAIN, min_size=k, max_size=k),
                                  min_size=n, max_size=n)))
    net = NetworkInstance(
        gain=gain, noise=np.ones((n, k)), channels_of_bs=[np.arange(k)],
        budget=[draw(st.floats(0.1, 10.0))], weight=[1.0],
        bandwidth=[draw(st.sampled_from([1.0, 0.5, 180e3]))],
        tau=draw(st.sampled_from([1.0, 1.5, 4.0])))
    users = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return net, users


@settings(max_examples=300, deadline=None)
@given(cells())
def test_best_user_matches_reference(cell):
    net, users = cell
    reports = net.normalized_gain()
    beta, best = _best_user_per_channel(reports, users, net.channels_of_bs[0])
    ref_beta, ref_best = ref_best_user_per_channel(reports, users,
                                                   net.channels_of_bs[0])
    assert beta == ref_beta.tolist()
    assert best == ref_best.tolist()


@settings(max_examples=500, deadline=None)
@given(st.lists(INV, min_size=1, max_size=40), st.floats(1e-6, 50.0))
def test_water_fill_matches_reference(inv, budget):
    inv = np.array(inv)
    if not np.isfinite(inv).any():
        with pytest.raises(NoUsableChannelError):
            water_fill(inv, budget)
        return
    powers, lam = water_fill(inv, budget)
    ref_powers, ref_lam = ref_water_fill(inv, budget)
    assert powers == ref_powers.tolist()
    assert lam == ref_lam


@settings(max_examples=300, deadline=None)
@given(cells())
def test_cell_solves_match_reference(cell):
    net, users = cell
    reports = net.normalized_gain()
    alloc = solve_cell(net, 0, users, reports, CAPA)
    ref = ref_solve_capa(net, 0, users, reports)
    assert alloc.beta == ref.beta.tolist()
    assert alloc.power == ref.power.tolist()
    assert alloc.water_level == ref.water_level
    assert alloc.best == ref.best.tolist()
    for strategy in STRATEGIES:
        alloc = solve_cell(net, 0, users, reports, strategy)
        rates = reported_rates(net, alloc)
        assert list(rates.items()) == list(
            ref_rates_from_alloc(net, alloc, reports).items())


def _ordered(n):
    """n floats whose total depends on the order they are added in."""
    return [(-1.0) ** j * 10.0 ** (j % 17 - 8) * (1 + j / 7) for j in range(n)]


def _bits(x):
    return "nan" if math.isnan(x) else struct.pack("<d", x)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False), max_size=300))
@example(_ordered(8))
@example(_ordered(16))
@example(_ordered(128))
@example(_ordered(129))
@example(_ordered(256))
@example([-0.0] * 9)
@example([math.inf, -math.inf] * 8)
def test_sum_is_numpy_add_reduce(xs):
    """`_sum`, which renormalizes the water-fill powers, is NumPy's
    pairwise `np.add.reduce` bit for bit, across the block (8), unrolled
    (16), single-pass (128) and split (129, 256) boundaries."""
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.add.reduce(np.array(xs, dtype=float))
    assert _bits(_sum(xs)) == _bits(want)


def test_sum_is_numpy_add_reduce_at_every_length():
    rng = np.random.default_rng(8)
    for n in range(301):
        xs = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
        assert _bits(_sum(xs.tolist())) == _bits(np.add.reduce(xs))


def test_wide_cell_matches_reference():
    """W=1, K=256: the winners of a cell with several members take the
    argmax path, and the powers' renormalizing sum splits above 128
    entries; every field is the NumPy reference's, and the batched
    solve's, bit for bit."""
    rng = np.random.default_rng(256)
    gain = rng.exponential(size=(5, 256))
    gain[rng.uniform(size=gain.shape) < 0.2] = 0.0
    net = NetworkInstance(gain=gain, noise=np.ones((5, 256)),
                          channels_of_bs=[np.arange(256)], budget=[3.0],
                          weight=[1.0], bandwidth=[180e3], tau=1.5)
    reports = net.normalized_gain()
    for users in ([0], [1, 3], [0, 1, 2, 3, 4]):
        alloc = solve_cell(net, 0, users, reports, CAPA)
        ref = ref_solve_capa(net, 0, users, reports)
        assert alloc.beta == ref.beta.tolist()
        assert alloc.power == ref.power.tolist()
        assert alloc.water_level == ref.water_level
        assert alloc.best == ref.best.tolist()
        assert list(reported_rates(net, alloc).items()) == list(
            ref_rates_from_alloc(net, alloc, reports).items())
        for strategy in STRATEGIES:
            one = solve_cell(net, 0, users, reports, strategy)
            batch, = solve_cells(net, 0, np.array([one.beta]),
                                 np.array([one.best]), strategy)
            assert repr(batch) == repr(one)


@settings(max_examples=300, deadline=None)
@given(cells())
def test_reported_rates_read_the_solve(cell):
    """A solve keeps each channel's winning report, so `reported_rates`
    reads it instead of gathering it again: same rates, same key order."""
    net, users = cell
    reports = net.normalized_gain()
    chans = net.channels_of_bs[0]
    for strategy in STRATEGIES:
        alloc = solve_cell(net, 0, users, reports, strategy)
        assert alloc.best == reports[alloc.beta, chans].tolist()
        assert list(reported_rates(net, alloc).items()) == list(
            realized_rates(net, alloc).items())


@settings(max_examples=300, deadline=None)
@given(cells())
def test_contenders_match_reference(cell):
    """The contender test on the solve's winners, reports and water-fill
    admission equals the one that re-derived them, in a filled and an
    empty cell (zero and subnormal reports give +inf inverse gains)."""
    net, users = cell
    reports = net.normalized_gain()
    for strategy in STRATEGIES:
        for members in (users, []):
            got = solve_contenders(net, 0, members, reports, strategy)
            ref = ref_contenders(net, 0, members, reports, strategy)
            assert got.tolist() == ref.tolist()


def test_rates_of_empty_and_partial_allocations():
    net = NetworkInstance(gain=np.array([[1.0, 2.0, 3.0]]), noise=np.ones((1, 3)),
                          channels_of_bs=[np.arange(3)], budget=[3.0],
                          weight=[1.0], bandwidth=[1.0], tau=1.0)
    g = net.normalized_gain()
    empty = _empty_allocation(net, 0)
    assert realized_rates(net, empty) == ref_rates_from_alloc(net, empty, g) == {}
    partial = Allocation(bs=0, channels=np.arange(3), beta=[-1, 0, 0],
                         power=[1.0] * 3, best=[0.0, 2.0, 3.0])
    assert list(realized_rates(net, partial).items()) == list(
        ref_rates_from_alloc(net, partial, g).items()) == list(
        reported_rates(net, partial).items())


# -- the zero-marginal rules ------------------------------------------------


def ref_utility_in(ev, i, w, mask):
    """Utility of user i if cell w's member bitmask were `mask` (i
    included), from the cell solves with and without i."""
    with_i = ev.cell(w, mask)
    if not ev.mode.taxed:
        return with_i.rates.get(i, 0.0)
    return with_i.value - ev.cell(w, mask & ~(1 << i)).value


def _network(rng):
    """Small random network with the corner cases the rules must survive:
    duplicated report rows (ties), zero rows and zero entries, uneven
    channel blocks, and sometimes a BS of weight 0."""
    n = int(rng.integers(1, 7))
    w_cnt = int(rng.integers(1, 4))
    blocks = [int(rng.integers(1, 5)) for _ in range(w_cnt)]
    k = sum(blocks)
    gain = rng.exponential(size=(n, k))
    gain[rng.uniform(size=gain.shape) < 0.15] = 0.0
    for i in range(n):
        roll = rng.uniform()
        if roll < 0.15:
            gain[i] = 0.0
        elif roll < 0.4 and i > 0:
            gain[i] = gain[int(rng.integers(0, i))]
    weight = np.ones(w_cnt)
    if rng.uniform() < 0.2:
        weight[int(rng.integers(0, w_cnt))] = 0.0
    edges = np.cumsum([0] + blocks)
    return NetworkInstance(
        gain=gain, noise=np.ones((n, k)),
        channels_of_bs=[np.arange(a, b) for a, b in zip(edges, edges[1:])],
        budget=rng.uniform(0.2, 5.0, size=w_cnt), weight=weight,
        bandwidth=np.ones(w_cnt), tau=float(rng.choice([1.0, 2.0])))


@pytest.mark.parametrize("taxed", [True, False])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_rules_match_two_solve_formula(strategy, taxed):
    rng = np.random.default_rng(20121)
    mode = GameMode(strategy=strategy, taxed=taxed)
    for _ in range(150):
        net = _network(rng)
        ev = Evaluator(net, mode)
        ref = Evaluator(net, mode)
        for _ in range(4):
            a = tuple(int(x) for x in rng.integers(0, net.num_bss, net.num_users))
            cells = cells_of(net, a)
            for i in range(net.num_users):
                here = cells[a[i]]
                assert ev.utility(a[i], here, i) == ref_utility_in(ref, i, a[i], here)
                for w in range(net.num_bss):
                    if w != a[i]:
                        assert ev.move_utility(w, cells[w], i) == ref_utility_in(
                            ref, i, w, cells[w] | 1 << i)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_non_contenders_leave_rates_unchanged(strategy):
    """Toggling a non-contender leaves every other user's reported rate,
    and their order, exactly as they were; its own rate is 0."""
    rng = np.random.default_rng(7)
    skipped = 0
    for _ in range(300):
        net = _network(rng)
        g = net.normalized_gain()
        for w in range(net.num_bss):
            users = frozenset(int(u) for u in np.flatnonzero(
                rng.uniform(size=net.num_users) < 0.5))
            flags = solve_contenders(net, w, users, g, strategy)
            assert flags.tolist() == ref_contenders(net, w, users, g, strategy).tolist()
            for u in np.flatnonzero(~flags).tolist():
                base = reported_rates(net, solve_cell(net, w, users, g, strategy))
                rates = reported_rates(net, solve_cell(net, w, users ^ {u}, g, strategy))
                assert base.pop(u, 0.0) == rates.pop(u, 0.0) == 0.0
                assert list(rates.items()) == list(base.items())
                skipped += 1
    assert skipped > 100


def _two_bs(gain, budget):
    """BS 0 holds the given channels; BS 1 one more channel of gain 1."""
    n, k = np.shape(gain)
    return NetworkInstance(gain=np.hstack([gain, np.ones((n, 1))]),
                           noise=np.ones((n, k + 1)),
                           channels_of_bs=[np.arange(k), np.array([k])],
                           budget=[budget, 1.0], weight=[1.0, 1.0],
                           bandwidth=[1.0, 1.0], tau=1.0)


def test_zero_rate_member_can_still_change_the_cell():
    """User 1's only channel is admitted by the water-fill, but the water
    level rounds down onto its inverse gain, so its power and rate are 0.
    Its departure still shifts the water level of the other channels: the
    marginal value is -9.86e-32, not 0."""
    g = 0.7356008332560471
    net = _two_bs([[0.7356008332560473, 0.7356008332560472, 0.0], [0.0, 0.0, g]],
                  8.881784197001252e-16)
    ev = Evaluator(net, GameMode(strategy=CAPA))
    cell = 0b11                   # users 0 and 1
    assert ev.cell(0, cell).rates[1] == 0.0
    assert solve_contenders(net, 0, members(cell), ev.reports,
                            CAPA).tolist() == [True, True]
    marginal = ref_utility_in(Evaluator(net, GameMode(strategy=CAPA)), 1, 0, cell)
    assert marginal != 0.0
    assert ev.utility(0, cell, 1) == marginal


def test_zero_report_joiner_can_change_a_ca_cell():
    """Under CA user 0, all of whose reports are 0, takes the all-zero
    channel 0 from user 1 by the lowest-index tie-break.  Its rate is 0, yet
    the cell's rates are summed in a new order: the marginal value is
    -8.88e-16, not 0."""
    net = _two_bs([[0.0, 0.0, 0.0, 0.0],
                   [0.0, 0.0, 0.0, 2.2406115710882433],
                   [0.0, 3.4563512090281696, 0.0, 0.0],
                   [0.0, 0.0, 5.276002188845262, 0.0]], 4.0)
    ev = Evaluator(net, GameMode(strategy=CA))
    assert solve_contenders(net, 0, {1, 2, 3}, ev.reports, CA)[0]
    marginal = ref_utility_in(Evaluator(net, GameMode(strategy=CA)),
                              0, 0, 0b1111)
    assert marginal != 0.0
    assert ev.move_utility(0, 0b1110, 0) == marginal


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_non_contender_move_makes_no_solve(strategy, monkeypatch):
    # user 2 reports nothing on BS 0's channels
    net = NetworkInstance(
        gain=np.array([[2.0, 1.0, 0.5, 0.5], [1.0, 3.0, 0.5, 0.5],
                       [0.0, 0.0, 1.0, 2.0]]),
        noise=np.ones((3, 4)), channels_of_bs=[np.arange(2), np.arange(2, 4)],
        budget=[2.0, 2.0], weight=[1.0, 1.0], bandwidth=[1.0, 1.0], tau=1.0)
    ev = Evaluator(net, GameMode(strategy=strategy))
    a = (0, 0, 1)
    ev.system_value(a)

    def no_solve(*args, **kwargs):
        raise AssertionError("cell solve for a non-contender")

    monkeypatch.setattr(assoc_game, "solve_cell", no_solve)
    assert ev.move_utility(0, 0b11, 2) == 0.0


# -- better replies from the per-cell utility rows -------------------------


def ref_better_reply_set(net, a, i, mode, ev, margin=0.0):
    """User i's better replies from per-query utilities: the body the
    row lookup replaced."""
    cells = cells_of(net, a)
    current = ev.utility(a[i], cells[a[i]], i)
    out = []
    for w in range(net.num_bss):
        if w == a[i]:
            continue
        if ev.move_utility(w, cells[w], i) > current + margin + assoc_game.STRICT_TOL:
            out.append(w)
    return out


@pytest.mark.parametrize("taxed", [True, False])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_better_replies_match_per_query_reference(strategy, taxed):
    """One Evaluator walks through several profiles, so rows cached under
    one profile serve the next; every row of the per-profile result, with
    and without margins, matches a fresh Evaluator's scalar queries."""
    rng = np.random.default_rng(8)
    mode = GameMode(strategy=strategy, taxed=taxed)
    for _ in range(100):
        net = _network(rng)
        ev = Evaluator(net, mode)
        for _ in range(6):
            a = tuple(int(x) for x in rng.integers(0, net.num_bss, net.num_users))
            ref = Evaluator(net, mode)
            rows = ev.utilities(a)
            cells = cells_of(net, a)
            for i in range(net.num_users):
                for w in range(net.num_bss):
                    scalar = (ref.utility(w, cells[w], i) if w == a[i]
                              else ref.move_utility(w, cells[w], i))
                    assert rows[w][i] == scalar
            n = net.num_users
            for margins in (None, [0.0] * n, rng.uniform(0.0, 2.0, n).tolist(),
                            [math.inf] * n):
                got = assoc_game.better_reply_set(net, a, mode, ev, margins)
                assert got == [ref_better_reply_set(
                    net, a, i, mode, ref, 0.0 if margins is None else margins[i])
                    for i in range(n)]


# -- the oracles: pruned search and screened enumeration --------------------


def ref_exhaustive_opt(net, strategy, ev):
    """The search body that looked up the cells of every child, valued each
    node by the sum of its cell values in BS order and ran each child's
    entry check on entry, from the same warm start: an incumbent just below
    greedy0's value."""
    cands = baselines.candidate_bss(net)
    n = net.num_users
    singleton = [{w: ev.cell(w, 1 << i).value for w in cands[i]}
                 for i in range(n)]
    suffix_bound = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_bound[i] = suffix_bound[i + 1] + max(singleton[i].values())
    g = baselines.greedy0(net, strategy, ev).throughput
    best_value, best_profile, evals = g - 1e-9 * (1.0 + abs(g)), None, 0
    profile = [0] * n
    cells = [0] * net.num_bss

    def dfs(i):
        nonlocal best_value, best_profile, evals
        value = sum(ev.cell(w, s).value for w, s in enumerate(cells))
        if value + suffix_bound[i] <= best_value + assoc_game.STRICT_TOL:
            return
        if i == n:
            evals += 1
            best_value, best_profile = value, tuple(profile)
            return
        for w in cands[i]:
            old = cells[w]
            cells[w] = old | 1 << i
            profile[i] = w
            dfs(i + 1)
            cells[w] = old

    dfs(0)
    return baselines.BaselineResult(profile=best_profile, throughput=best_value,
                                    evaluations=evals)


def ref_enumerate_nes(net, mode, ev):
    """The scan that valued and tested every profile through the cache."""
    nes = []
    best_profile, best_value = None, -math.inf
    for a in itertools.product(range(net.num_bss), repeat=net.num_users):
        value = ev.system_value(a)
        if value > best_value + assoc_game.STRICT_TOL:
            best_profile, best_value = a, value
        if assoc_game.is_ne(net, a, mode, ev):
            nes.append((a, value))
    return assoc_game.EnumerationResult(nes=nes, optimum=best_profile,
                                        optimum_value=best_value)


def _generated(n, w, k, count, seed):
    return [generate(ScenarioConfig(num_users=n, num_bss=w, num_channels=k,
                                    distribution_factor=(0.2, 0.5, 0.8)[j % 3],
                                    seed=seed + j))
            for j in range(count)]


def test_realized_rates_divide_only_the_allocation():
    """`realized_rates` divides only the allocation's entries of the true
    gains: the rates of the whole normalized table, in the same key order,
    on generated instances (one shared noise floor) and on random noise."""
    rng = np.random.default_rng(23)
    nets = _generated(8, 4, 32, 6, 700) + [
        dataclasses.replace(net, noise=rng.uniform(0.5, 2.0, net.gain.shape))
        for net in (_network(rng) for _ in range(40))]
    for net in nets:
        truth = net.normalized_gain()
        reports = inject_estimation_error(net, 0.0, rng)
        a = rng.integers(0, net.num_bss, net.num_users)
        for strategy in STRATEGIES:
            for w, mask in enumerate(cells_of(net, a)):
                alloc = solve_cell(net, w, members(mask), reports, strategy)
                assert list(realized_rates(net, alloc).items()) == list(
                    ref_rates_from_alloc(net, alloc, truth).items())


def _no_users():
    return NetworkInstance(gain=np.zeros((0, 3)), noise=np.ones((0, 3)),
                           channels_of_bs=[np.arange(2), np.array([2])],
                           budget=[1.0, 2.0], weight=[1.0, 1.0],
                           bandwidth=[1.0, 1.0], tau=1.0)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_exhaustive_matches_reference(strategy):
    """Same profile, throughput (type included) and leaf count as the
    search that solved every child, and a throughput that is the profile's
    system value: ties, zero rows, weight-0 BSs, the bench's 8-user
    instances and no users at all."""
    rng = np.random.default_rng(31)
    nets = ([_network(rng) for _ in range(200)]
            + _generated(8, 4, 64, 6, 500) + [_no_users()])
    mode = GameMode(strategy=strategy)
    for net in nets:
        got = baselines.exhaustive_opt(net, strategy, Evaluator(net, mode))
        ref = ref_exhaustive_opt(net, strategy, Evaluator(net, mode))
        assert repr(got) == repr(ref)
        shared = Evaluator(net, mode)
        assoc_game.system_throughput(net, baselines.nearest_bs(net).profile,
                                     strategy, shared)
        assert repr(baselines.exhaustive_opt(net, strategy, shared)) == repr(ref)
        assert got.throughput == shared.system_value(got.profile)


@pytest.mark.parametrize("taxed", [True, False])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_enumeration_matches_reference(strategy, taxed):
    """Same NE list, values (types included) and optimum as the scan that
    called `is_ne` on every profile, also with a shared, already warm
    Evaluator."""
    rng = np.random.default_rng(32)
    mode = GameMode(strategy=strategy, taxed=taxed)
    nets = ([_network(rng) for _ in range(120)]
            + _generated(6, 3, 24, 4, 700) + [_no_users()])
    for net in nets:
        ev = Evaluator(net, mode)
        got = assoc_game.enumerate_nes(net, mode, ev)
        ref = ref_enumerate_nes(net, mode, Evaluator(net, mode))
        assert repr(got) == repr(ref)
        assert repr(assoc_game.enumerate_nes(net, mode, ev)) == repr(ref)


@settings(max_examples=300, deadline=None)
@given(cells(), st.data())
def test_cell_value_is_subadditive(cell, data):
    """V(S | T) <= V(S) + V(T), the premise of the search bound."""
    net, users = cell
    other = data.draw(st.lists(st.integers(0, net.num_users - 1), min_size=1,
                               unique=True))
    for strategy in STRATEGIES:
        ev = Evaluator(net, GameMode(strategy=strategy))
        s, t = (sum(1 << u for u in set(x)) for x in (users, other))
        union = ev.cell(0, s | t).value
        assert union <= (ev.cell(0, s).value + ev.cell(0, t).value) * (1 + 1e-9)


@st.composite
def oracle_nets(draw, every_bs=False):
    """A network of 1-5 users and 1-3 BSs of 1-3 channels each, reports
    drawn from GAIN (ties and zeros), some BSs of weight 0 and some all-zero
    report rows.  With `every_bs`, every user instead reports a positive
    gain at every BS, so every BS is a candidate for every user."""
    n = draw(st.integers(1, 5))
    blocks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    k = sum(blocks)
    gain = np.array(draw(st.lists(st.lists(GAIN, min_size=k, max_size=k),
                                  min_size=n, max_size=n)))
    edges = np.cumsum([0] + blocks)
    if every_bs:
        for i, (a, b) in itertools.product(range(n), zip(edges, edges[1:])):
            if not gain[i, a:b].any():
                gain[i, a] = draw(GAIN.filter(bool))
    else:
        for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            gain[i] = 0.0
    w_cnt = len(blocks)
    return NetworkInstance(
        gain=gain, noise=np.ones((n, k)),
        channels_of_bs=[np.arange(a, b) for a, b in zip(edges, edges[1:])],
        budget=draw(st.lists(st.floats(0.1, 10.0), min_size=w_cnt,
                             max_size=w_cnt)),
        weight=draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=w_cnt,
                             max_size=w_cnt)),
        bandwidth=[draw(st.sampled_from([1.0, 180e3]))] * w_cnt,
        tau=draw(st.sampled_from([1.0, 1.5, 4.0])))


# users 1 and 2 report alike: profiles (2, 0, 2, 0) and (2, 2, 0, 0) tie
# exactly as BS-order cell sums, while a chain of cell differences, one
# user at a time, rounds them one ulp apart under CA
_TIED = NetworkInstance(
    gain=[[0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 3.0, 0.0, 0.0, 1.0],
          [0.0, 3.0, 0.0, 0.0, 1.0], [0.5, 0.0, 0.0, 0.0, 0.0]],
    noise=np.ones((4, 5)), channels_of_bs=[[0, 1], [2], [3, 4]],
    budget=[4.0, 1.0, 2.0], weight=[1.0, 0.0, 2.5], bandwidth=[180e3] * 3,
    tau=1.0)


@settings(max_examples=200, deadline=None)
@given(oracle_nets())
@example(_TIED)
def test_exhaustive_prunes_no_optimal_branch(net):
    """The warm start and the pre-lookup bound skip nothing the entry check
    keeps: the search returns, bit for bit, what the search from the same
    start that looks up every child returns.  And no branch holding the
    optimum is pruned: the profile and throughput are those of the optimum
    scan of `enumerate_nes` over the profiles on the candidate BSs, bit
    for bit, and no profile over all BSs, non-candidates included, is
    worth more, up to 1e-12 relative."""
    for strategy in STRATEGIES:
        mode = GameMode(strategy=strategy)
        ev = Evaluator(net, mode)
        got = baselines.exhaustive_opt(net, strategy, ev)
        assert repr(got) == repr(ref_exhaustive_opt(net, strategy,
                                                    Evaluator(net, mode)))
        best, best_value = None, -math.inf
        for a in itertools.product(*baselines.candidate_bss(net)):
            value = ev.system_value(a)
            if value > best_value + assoc_game.STRICT_TOL:
                best, best_value = a, value
        assert (got.profile, got.throughput) == (best, best_value)
        top = max(ev.system_value(a) for a in
                  itertools.product(range(net.num_bss), repeat=net.num_users))
        assert top <= got.throughput + 1e-12 * (1.0 + abs(top))


@settings(max_examples=300, deadline=None)
@given(oracle_nets(every_bs=True))
@example(dataclasses.replace(_TIED, gain=np.maximum(_TIED.gain, 1e-3)))
def test_exhaustive_agrees_with_enumeration(net):
    """Where every BS is a candidate for every user, the pruned search and
    the enumeration scan are one oracle: the same optimal profile and
    throughput, bit for bit, ties included, and the throughput is the
    profile's system value."""
    for strategy in STRATEGIES:
        mode = GameMode(strategy=strategy)
        ev = Evaluator(net, mode)
        got = baselines.exhaustive_opt(net, strategy, ev)
        enum = assoc_game.enumerate_nes(net, mode, ev)
        assert (got.profile, got.throughput) == (enum.optimum,
                                                 enum.optimum_value)
        assert got.throughput == ev.system_value(got.profile)


@st.composite
def mask_tables(draw):
    """A network of 1-8 users and 1-2 BSs of 1-16 channels each, with
    reports drawn from GAIN, so ties and zero reports are common."""
    n = draw(st.integers(1, 8))
    blocks = draw(st.lists(st.integers(1, 16), min_size=1, max_size=2))
    k = sum(blocks)
    gain = np.array(draw(st.lists(st.lists(GAIN, min_size=k, max_size=k),
                                  min_size=n, max_size=n)))
    edges = np.cumsum([0] + blocks)
    return NetworkInstance(
        gain=gain, noise=np.ones((n, k)),
        channels_of_bs=[np.arange(a, b) for a, b in zip(edges, edges[1:])],
        budget=draw(st.lists(st.floats(0.1, 10.0), min_size=len(blocks),
                             max_size=len(blocks))),
        weight=[1.0] * len(blocks), bandwidth=[180e3] * len(blocks),
        tau=draw(st.sampled_from([1.0, 1.5, 4.0])))


def _same(a, b):
    if isinstance(a, np.ndarray):
        return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    return type(a) is type(b) and repr(a) == repr(b)


@settings(max_examples=100, deadline=None)
@given(mask_tables())
def test_batched_table_matches_scalar_solves(net):
    """Every cell the enumeration table enters is the result `ev.cell`'s
    scalar miss builds, bit for bit, and every field of `solve_cells`'
    allocations is `solve_cell`'s."""
    reports = net.normalized_gain()
    size = 1 << net.num_users
    fields = ("bs", "channels", "beta", "power", "best", "water_level",
              "held", "bound")
    for strategy in STRATEGIES:
        table = Evaluator(net, GameMode(strategy=strategy))
        scalar = Evaluator(net, GameMode(strategy=strategy))
        for w, chans in enumerate(net.channels_of_bs):
            assoc_game._solve_masks(table, w, size)
            for m in range(1, size):
                got, want = table._cache[(w, m)], scalar.cell(w, m)
                assert repr((got.value, got.rates)) == repr((want.value, want.rates))
                assert all(map(_same, got.solve, want.solve))
            winners = [_best_user_per_channel(reports, members(m), chans)
                       for m in range(1, size)]
            batch = solve_cells(net, w, np.array([b for b, _ in winners]),
                                np.array([r for _, r in winners]), strategy)
            for m, got in zip(range(1, size), batch):
                want = solve_cell(net, w, members(m), reports, strategy)
                assert all(_same(getattr(got, f), getattr(want, f))
                           for f in fields)


class _CountingSolves:
    def __init__(self, monkeypatch):
        self.solves = 0

        def counting(*args, **kwargs):
            self.solves += 1
            return solve_cell(*args, **kwargs)

        monkeypatch.setattr(assoc_game, "solve_cell", counting)


def test_exhaustive_solves_fewer_cells(monkeypatch):
    net = _generated(8, 4, 64, 1, 41)[0]
    counts = _CountingSolves(monkeypatch)
    ref = ref_exhaustive_opt(net, CAPA, Evaluator(net, GameMode()))
    before, counts.solves = counts.solves, 0
    got = baselines.exhaustive_opt(net, CAPA, Evaluator(net, GameMode()))
    assert repr(got) == repr(ref)
    assert counts.solves < before


def test_enumeration_solves_cells_in_batches(monkeypatch):
    """The table's cells come from batched solves, not one `solve_cell`
    each; a BS without channels keeps the per-cell path for its 2^6 - 1
    non-empty cells, with the reference's result and no warning."""
    batched = _generated(6, 3, 24, 1, 43)[0]
    blocks = generate(ScenarioConfig(num_users=6, num_bss=3, num_channels=2,
                                     seed=4))
    assert [len(c) for c in blocks.channels_of_bs] == [1, 1, 0]
    counts = _CountingSolves(monkeypatch)
    for mode in (GameMode(), GameMode(taxed=False), GameMode(strategy=CA)):
        counts.solves = 0
        assoc_game.enumerate_nes(batched, mode)
        assert counts.solves == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = assoc_game.enumerate_nes(blocks, mode)
            assert counts.solves == 2 ** 6 - 1
            ref = ref_enumerate_nes(blocks, mode, Evaluator(blocks, mode))
        assert repr(got) == repr(ref)


def test_enumeration_screens_is_ne_calls(monkeypatch):
    """The taxed scan hands `is_ne` only the profiles without a clearly
    better unilateral neighbour; the untaxed scan hands it every one."""
    net = _generated(6, 3, 24, 1, 43)[0]
    calls = []
    is_ne = assoc_game.is_ne
    monkeypatch.setattr(assoc_game, "is_ne",
                        lambda *args: calls.append(args[1]) or is_ne(*args))
    res = assoc_game.enumerate_nes(net, GameMode())
    assert 0 < len(calls) < 3 ** 6 // 10
    assert {a for a, _ in res.nes} <= set(calls)
    calls.clear()
    assoc_game.enumerate_nes(net, GameMode(taxed=False))
    assert len(calls) == 3 ** 6


@pytest.mark.parametrize("bad", [-0.5, math.nan])
def test_exhaustive_rejects_reports_the_bound_cannot_take(bad):
    """The search bound needs finite, nonnegative reports; an Evaluator on
    any other is refused when built, so no search can be handed one."""
    net = _generated(3, 2, 4, 1, 45)[0]
    reports = net.normalized_gain().copy()
    reports[1, 2] = bad
    with pytest.raises(InvalidArgumentError, match="reports"):
        Evaluator(net, GameMode(), reports)


# -- the single-user bound and the screened better replies ------------------


def _slack(value, cap):
    """The screen's slack for an entry at a cell of value `value` whose
    bound is `cap` (see `assoc_game.better_reply_set`)."""
    return 1e-9 * (1.0 + abs(value) + cap)


# one user, one channel, where the bound is exact: the solve's rounding
# puts the user's utility in the empty cell one ulp above its bound
_ABOVE = NetworkInstance(gain=[[3.0]], noise=[[1.0]], channels_of_bs=[[0]],
                         budget=[5.748589519729733], weight=[1.0],
                         bandwidth=[1.0], tau=1.0)


@st.composite
def bound_nets(draw):
    """A network of 1-5 users and 1-3 BSs of 1-4 channels each, reports
    drawn from GAIN, BS weights from 0 to 3, and half the time reports
    with Gaussian estimation error at a CER of -5 to 10 dB."""
    n = draw(st.integers(1, 5))
    blocks = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    k, w_cnt = sum(blocks), len(blocks)
    gain = np.array(draw(st.lists(st.lists(GAIN, min_size=k, max_size=k),
                                  min_size=n, max_size=n)))
    edges = np.cumsum([0] + blocks)
    net = NetworkInstance(
        gain=gain, noise=np.ones((n, k)),
        channels_of_bs=[np.arange(a, b) for a, b in zip(edges, edges[1:])],
        budget=draw(st.lists(st.floats(0.1, 10.0), min_size=w_cnt,
                             max_size=w_cnt)),
        weight=draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                             min_size=w_cnt, max_size=w_cnt)),
        bandwidth=[draw(st.sampled_from([1.0, 180e3]))] * w_cnt,
        tau=draw(st.sampled_from([1.0, 1.5, 4.0])))
    reports = None
    if draw(st.booleans()):
        reports = inject_estimation_error(
            net, draw(st.sampled_from([-5.0, 0.0, 10.0])),
            np.random.default_rng(draw(st.integers(0, 2 ** 16))))
    return net, reports


def test_rounding_can_put_an_entry_above_its_bound():
    """The slack is needed: here an entry exceeds its exact bound."""
    for strategy in STRATEGIES:
        for taxed in (True, False):
            ev = Evaluator(_ABOVE, GameMode(strategy=strategy, taxed=taxed))
            cap = ev.utility_bounds()[0][0]
            u = ev.move_utility(0, 0, 0)
            assert cap < u <= cap + _slack(0.0, cap)


@settings(max_examples=150, deadline=None)
@given(bound_nets())
@example((_ABOVE, None))
def test_single_user_bound_caps_every_entry(case):
    """For every cell (w, S) and every user i outside S, i's utility on
    joining, and its value alone in cell w (weighted in the taxed game,
    its rate in the untaxed one), are at most U[w][i] plus the screen's
    slack."""
    net, reports = case
    n = net.num_users
    for strategy in STRATEGIES:
        for taxed in (True, False):
            ev = Evaluator(net, GameMode(strategy=strategy, taxed=taxed), reports)
            bounds = ev.utility_bounds()
            for w in range(net.num_bss):
                for s in range(1 << n):
                    value = ev.cell(w, s).value
                    for i in range(n):
                        if not s >> i & 1:
                            cap = bounds[w][i]
                            assert ev.move_utility(w, s, i) <= cap + _slack(value, cap)
                for i in range(n):
                    alone = ev.cell(w, 1 << i)
                    single = alone.value if taxed else alone.rates[i]
                    cap = bounds[w][i]
                    assert single <= cap + _slack(0.0, cap)


def full_row_replies(net, a, ev, margins):
    """Per user, the better replies read from every entry of the profile's
    utility rows (`Evaluator.utilities`), as before the screen."""
    rows = ev.utilities(a)
    out = []
    for i, here in enumerate(a):
        bar = rows[here][i] + margins[i] + assoc_game.STRICT_TOL
        out.append([w for w in range(net.num_bss)
                    if w != here and rows[w][i] > bar])
    return out


@pytest.mark.parametrize("taxed", [True, False])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_screened_replies_match_full_rows(strategy, taxed):
    """On fresh and on warm Evaluators, with zero and positive margins,
    on reports with estimation error, and with negative bandwidths (which
    turn the screen off), the screened lists are those read from full
    rows."""
    rng = np.random.default_rng(17)
    mode = GameMode(strategy=strategy, taxed=taxed)
    nets = [_network(rng) for _ in range(100)] + _generated(8, 4, 32, 6, 900)
    for j, net in enumerate(nets):
        n = net.num_users
        reports = None
        if j % 4 == 1:
            reports = inject_estimation_error(net, 0.0, rng)
        elif j % 8 == 3:
            # `validate` refuses negative bandwidths; the screen still
            # guards an instance whose bandwidths were rebound after
            net = dataclasses.replace(net)
            net.bandwidth = -net.bandwidth
        screened, full = (Evaluator(net, mode, reports) for _ in range(2))
        if j % 8 == 3:
            assert all(math.isinf(u) for row in screened.utility_bounds()
                       for u in row)
        scale = max(1.0, screened.system_value((0,) * n) / max(n, 1))
        for _ in range(4):
            a = tuple(int(x) for x in rng.integers(0, net.num_bss, n))
            for margins in ([0.0] * n,
                            (scale * rng.uniform(0.0, 0.5, n)).tolist(),
                            (scale * rng.choice([0.0, 1e-3, 0.2], n)).tolist()):
                got = assoc_game.better_reply_set(net, a, mode, screened,
                                                  margins)
                assert got == full_row_replies(net, a, full, margins)


@pytest.mark.parametrize("taxed", [True, False])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_enumerated_nes_match_full_rows(strategy, taxed):
    """`enumerate_nes` finds exactly the profiles where no user has a
    better reply in the full rows."""
    rng = np.random.default_rng(19)
    mode = GameMode(strategy=strategy, taxed=taxed)
    for net in [_network(rng) for _ in range(40)] + _generated(5, 3, 24, 3, 910):
        got = assoc_game.enumerate_nes(net, mode, Evaluator(net, mode))
        full = Evaluator(net, mode)
        zero = [0.0] * net.num_users
        want = [a for a in itertools.product(range(net.num_bss),
                                             repeat=net.num_users)
                if not any(full_row_replies(net, a, full, zero))]
        assert [a for a, _ in got.nes] == want


def test_screen_solves_fewer_cells(monkeypatch):
    """On a bench-sized instance the screened better replies solve fewer
    cells than reading the full rows, with the same lists."""
    net = _generated(10, 6, 64, 1, 51)[0]
    a = baselines.nearest_bs(net).profile
    counts = _CountingSolves(monkeypatch)
    mode = GameMode()
    full = full_row_replies(net, a, Evaluator(net, mode), [0.0] * len(a))
    before, counts.solves = counts.solves, 0
    assert assoc_game.better_reply_set(net, a, mode, Evaluator(net, mode)) == full
    assert 0 < counts.solves < before
