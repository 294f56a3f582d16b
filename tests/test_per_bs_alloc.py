import itertools
import math
import warnings

import numpy as np
import pytest

from conftest import random_network
from ofdma_assoc import fixtures, vcg
from ofdma_assoc.assoc_game import (Evaluator, GameMode, better_reply_set,
                                    enumerate_nes, system_throughput)
from ofdma_assoc.net_model import InvalidArgumentError, NetworkInstance
from ofdma_assoc.per_bs_alloc import (CA, CAPA, Allocation,
                                      NoUsableChannelError, cells_of,
                                      contenders, realized_rates,
                                      reported_rates, solve_ca, solve_capa,
                                      solve_cell, solve_cells, water_fill)
from ofdma_assoc.sim_cli import _realized


def cell_value(net, w, users, reports, strategy):
    if not users:
        return 0.0
    alloc = solve_cell(net, w, sorted(users), reports, strategy)
    return net.weight[w] * sum(reported_rates(net, alloc).values())


def oracle_power_search(inv, budget, levels=4):
    """Independent grid-search maximizer of sum ln(1 + p/inv) over the power
    simplex: successive 10x grid refinements down to a 1e-3*budget step.
    Concavity of the objective makes the refinement exact to grid accuracy."""
    inv = np.asarray(inv, dtype=float)
    k = len(inv)

    def value(p):
        with np.errstate(divide="ignore"):
            return sum(math.log1p(p[j] / inv[j]) for j in range(k)
                       if inv[j] < math.inf and p[j] > 0)

    best = np.full(k, budget / k)
    step = budget / 10.0
    for _ in range(levels):
        improved = True
        while improved:
            improved = False
            for a in range(k):
                for b in range(k):
                    if a == b:
                        continue
                    cand = best.copy()
                    move = min(step, cand[b])
                    cand[a] += move
                    cand[b] -= move
                    if value(cand) > value(best) + 1e-15:
                        best = cand
                        improved = True
        step /= 10.0
    return value(best), best


class TestWaterFill:
    def test_worked_examples(self):
        p, lam = water_fill(np.array([0.5, 2.0]), 3.0)
        assert lam == pytest.approx(2.75)
        assert p == pytest.approx([2.25, 0.75])
        p, lam = water_fill(np.array([0.1, 1000.0]), 1.0)
        assert p == pytest.approx([1.0, 0.0])
        assert lam == pytest.approx(1.1)

    def test_equal_gains_split_evenly(self):
        p, _ = water_fill(np.full(4, 3.0), 2.0)
        assert p == pytest.approx([0.5] * 4)

    def test_kkt_on_random_problems(self, rng):
        for _ in range(300):
            k = int(rng.integers(1, 6))
            inv = rng.uniform(0.01, 50.0, size=k)
            if k > 1 and rng.uniform() < 0.3:
                inv[rng.integers(0, k)] = math.inf
            budget = float(rng.uniform(0.1, 10.0))
            p, lam = water_fill(inv, budget)
            assert sum(p) == pytest.approx(budget, abs=1e-9)
            assert min(p) >= 0
            for j in range(k):
                if p[j] > 1e-12:
                    assert lam - inv[j] == pytest.approx(p[j], abs=1e-9)
                else:
                    assert lam <= inv[j] + 1e-9

    def test_matches_grid_oracle(self, rng):
        for _ in range(30):
            k = int(rng.integers(2, 5))
            inv = rng.uniform(0.05, 20.0, size=k)
            budget = float(rng.uniform(0.5, 5.0))
            p, _ = water_fill(inv, budget)
            mine = sum(math.log1p(p[j] / inv[j]) for j in range(k))
            oracle, _ = oracle_power_search(inv, budget)
            assert mine >= oracle - 1e-4

    def test_errors(self):
        with pytest.raises(InvalidArgumentError):
            water_fill(np.array([1.0]), 0.0)
        with pytest.raises(NoUsableChannelError):
            water_fill(np.array([math.inf, math.inf]), 1.0)

    @pytest.mark.parametrize("budget", [-1.0, math.nan, math.inf])
    def test_budget_must_be_finite_and_positive(self, budget):
        """A NaN budget used to give NaN powers, and an infinite one NaN
        powers with a warning; both are refused, as a negative one is."""
        with pytest.raises(InvalidArgumentError, match="finite and positive"):
            water_fill([0.5, 2.0], budget)


class TestSolveCA:
    def test_worked_example(self):
        net = fixtures.example1_network()
        alloc = solve_ca(net, 0, [0, 1], net.normalized_gain())
        assert alloc.beta == [0, 0, 1]
        assert alloc.power == pytest.approx([1.0, 1.0, 1.0])
        per_bs, _ = _realized(net, [0, 0], net.normalized_gain(), CA)
        assert per_bs[0] == pytest.approx(3 * math.log(3), abs=1e-9)

    def test_single_user_gets_everything(self, rng):
        net = random_network(rng, n_users=3, n_bss=1, chans_per_bs=[4])
        alloc = solve_ca(net, 0, [2], net.normalized_gain())
        assert all(b == 2 for b in alloc.beta)

    def test_tie_breaks_to_lowest_index(self):
        net = fixtures.example1_network()
        reports = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        alloc = solve_ca(net, 0, [0, 1], reports)
        assert all(b == 0 for b in alloc.beta)

    def test_assignment_beats_alternatives(self, rng):
        """Exhaustive check that the per-channel argmax maximizes reported
        cell throughput under equal power."""
        for _ in range(20):
            net = random_network(rng, n_bss=1, n_users=3, chans_per_bs=[3])
            users = [0, 1, 2]
            reports = net.normalized_gain()
            alloc = solve_ca(net, 0, users, reports)
            mine = sum(reported_rates(net, alloc).values())
            power = [net.budget[0] / 3] * 3
            for combo in itertools.product(users, repeat=3):
                beta = list(combo)
                other = Allocation(bs=0, channels=alloc.channels, beta=beta,
                                   power=power,
                                   best=reports[beta, alloc.channels].tolist())
                assert mine >= sum(reported_rates(net, other).values()) - 1e-12


class TestSolveCAPA:
    def test_budget_binding(self, rng):
        for _ in range(50):
            net = random_network(rng, zero_frac=0.2)
            users = list(range(net.num_users))
            for w in range(net.num_bss):
                alloc = solve_capa(net, w, users, net.normalized_gain())
                if max(alloc.power) > 0:
                    assert sum(alloc.power) == pytest.approx(net.budget[w], abs=1e-9)

    def test_worked_water_levels(self):
        """Hand-checked cells of the 2-BS counterexample instance."""
        net = fixtures.example2_capa_network()
        g = net.normalized_gain()
        # BS 1 with users 1 and 3: best gains (1/5, 1/4), budget 5
        alloc = solve_capa(net, 0, [0, 2], g)
        assert alloc.water_level == pytest.approx(7.0)
        assert alloc.power == pytest.approx([2.0, 3.0])
        # BS 2 with users 1 and 3: inverse gains (6, 11) -> knife edge
        alloc = solve_capa(net, 1, [0, 2], g)
        assert alloc.water_level == pytest.approx(11.0)
        assert alloc.power == pytest.approx([5.0, 0.0])

    def test_against_grid_oracle(self, rng):
        """Brute force over every channel assignment, refined power grid per
        assignment; solve_capa must match the best within 1e-4."""
        for _ in range(40):
            net = random_network(rng, n_users=int(rng.integers(1, 4)),
                                 n_bss=1,
                                 chans_per_bs=[int(rng.integers(1, 5))],
                                 zero_frac=0.1)
            users = list(range(net.num_users))
            reports = net.normalized_gain()
            alloc = solve_capa(net, 0, users, reports)
            mine = sum(reported_rates(net, alloc).values())
            chans = net.channels_of_bs[0]
            best = 0.0
            for combo in itertools.product(users, repeat=len(chans)):
                inv = np.array([math.inf if reports[u, k] == 0
                                else net.tau / reports[u, k]
                                for u, k in zip(combo, chans)])
                if not np.isfinite(inv).any():
                    continue
                val, _ = oracle_power_search(inv, float(net.budget[0]))
                best = max(best, val)
            assert mine >= best - 1e-4

    def test_zero_gain_channel_unpowered(self):
        net = fixtures.example2_capa_network()
        g = net.normalized_gain()
        alloc = solve_capa(net, 1, [2], g)    # user 3 has gain only on ch 3
        assert alloc.power[1] == 0.0
        assert alloc.power[0] == pytest.approx(5.0)

    def test_all_zero_cell_gets_zero_value(self):
        net = fixtures.example2_capa_network()
        g = net.normalized_gain()
        g = g.copy()
        g[1, 2:] = 0.0
        alloc = solve_capa(net, 1, [1], g)    # user 2 reports zeros at BS 2
        assert all(p == 0 for p in alloc.power)
        assert sum(reported_rates(net, alloc).values()) == 0.0


class TestRates:
    def test_misreport_realized_rates(self):
        net = fixtures.example1_network()
        reports = net.normalized_gain()
        reports[1] = [3.0, 3.0, 2.0]
        alloc = solve_ca(net, 0, [0, 1], reports)
        assert alloc.beta == [1, 1, 1]
        rates = realized_rates(net, alloc, [0, 1])
        assert rates[0] == 0.0
        assert rates[1] == pytest.approx(2 * math.log(1.5) + math.log(3), abs=1e-9)

    def test_truthful_reported_equals_realized(self, rng):
        net = random_network(rng)
        reports = net.normalized_gain()
        for w in range(net.num_bss):
            alloc = solve_capa(net, w, range(net.num_users), reports)
            rep = reported_rates(net, alloc)
            real = realized_rates(net, alloc)
            for u in rep:
                assert rep[u] == pytest.approx(real[u], abs=1e-12)

    def test_weight_scales_throughput(self, rng):
        net = random_network(rng, n_bss=1)
        a = [0] * net.num_users
        base, _ = _realized(net, a, net.normalized_gain(), CAPA)
        net.weight = np.array([2.0])
        scaled, _ = _realized(net, a, net.normalized_gain(), CAPA)
        assert scaled[0] == pytest.approx(2 * base[0])

    def test_empty_cell(self, rng):
        net = random_network(rng, n_bss=2)
        a = [1] * net.num_users
        per_bs, _ = _realized(net, a, net.normalized_gain(), CAPA)
        assert per_bs[0] == 0.0


class TestCellsOf:
    @pytest.mark.parametrize("bad", [-1, 2])
    def test_out_of_range_bs_index_rejected(self, bad):
        """An entry outside 0..W-1 must not wrap around to the last BS or
        surface as a bare IndexError, at L0 or through its callers."""
        net = fixtures.example2_ca_network()
        profile = (bad, 0, 0)
        match = f"user 0 has BS index {bad}"
        with pytest.raises(InvalidArgumentError, match=match):
            cells_of(net, profile)
        with pytest.raises(InvalidArgumentError, match=match):
            system_throughput(net, profile, CA)
        with pytest.raises(InvalidArgumentError, match=match):
            vcg.utility(net, profile, 0, None, CA)

    @pytest.mark.parametrize("profile", [(0, 1), (0, 1, 0, 1)])
    def test_profile_length_checked(self, profile):
        """A profile shorter than the user list must not silently drop the
        last users (the 2-entry profile used to give 2.5702 where the full
        one gives 3.6688), nor a longer one surface as a bare IndexError."""
        net = fixtures.example2_ca_network()
        match = f"profile has {len(profile)} entries for 3 users"
        with pytest.raises(InvalidArgumentError, match=match):
            cells_of(net, profile)
        with pytest.raises(InvalidArgumentError, match=match):
            system_throughput(net, profile, CA)
        with pytest.raises(InvalidArgumentError, match=match):
            vcg.utility(net, profile, 0, None, CA)


class TestStructuralProperties:
    @pytest.mark.parametrize("strategy", [CA, CAPA])
    def test_monotone_in_user_set(self, rng, strategy):
        for _ in range(100):
            net = random_network(rng, zero_frac=0.2)
            reports = net.normalized_gain()
            w = int(rng.integers(0, net.num_bss))
            users = [i for i in range(net.num_users) if rng.uniform() < 0.6]
            extra = int(rng.integers(0, net.num_users))
            bigger = sorted(set(users) | {extra})
            assert cell_value(net, w, bigger, reports, strategy) >= \
                cell_value(net, w, users, reports, strategy) - 1e-12

    @pytest.mark.parametrize("strategy", [CA, CAPA])
    def test_submodular_in_user_set(self, rng, strategy):
        """Diminishing marginal value: adding i to a subset M of G helps at
        least as much as adding it to G."""
        for _ in range(500):
            net = random_network(rng, zero_frac=0.2)
            reports = net.normalized_gain()
            w = int(rng.integers(0, net.num_bss))
            g_set = {i for i in range(net.num_users) if rng.uniform() < 0.7}
            m_set = {i for i in g_set if rng.uniform() < 0.6}
            i = int(rng.integers(0, net.num_users))
            g_set.discard(i)
            m_set.discard(i)
            dm = (cell_value(net, w, m_set | {i}, reports, strategy)
                  - cell_value(net, w, m_set, reports, strategy))
            dg = (cell_value(net, w, g_set | {i}, reports, strategy)
                  - cell_value(net, w, g_set, reports, strategy))
            assert dg <= dm + 1e-9

    def test_scalar_concavity_condition(self, rng):
        """Per-channel sufficient condition behind submodularity: the rate
        bump from a gain increase shrinks as the base gain grows."""
        for _ in range(200):
            m = float(rng.uniform(0.0, 5.0))
            g = m + float(rng.uniform(0.0, 5.0))
            delta = float(rng.uniform(0.0, 3.0))
            assert math.log1p(g + delta) - math.log1p(g) <= \
                math.log1p(m + delta) - math.log1p(m) + 1e-12


@pytest.mark.parametrize("strategy", ["bogus", "CA-PF"])
def test_unknown_strategy_rejected(rng, strategy):
    net = random_network(rng)
    with pytest.raises(InvalidArgumentError):
        solve_cell(net, 0, [0], net.normalized_gain(), strategy)


def test_subnormal_report_overflows_to_an_unusable_channel():
    """A legal subnormal report makes tau / r overflow.  Its inverse gain
    is +inf, as for a zero report, and no path through the cell kernel
    warns: the single and batched solves, the contender test, the better
    replies and the enumeration."""
    net = NetworkInstance(gain=[[1e-320, 1.0], [2.0, 1e-320]],
                          noise=np.ones((2, 2)), channels_of_bs=[[0, 1]],
                          budget=[1.0], weight=[1.0], bandwidth=[1.0], tau=1.0)
    reports = net.reports()
    mode = GameMode(strategy=CAPA)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = solve_cell(net, 0, [0], reports, CAPA)
        both = solve_cell(net, 0, [0, 1], reports, CAPA)
        batch = solve_cells(net, 0, np.array([alone.beta, both.beta]),
                            np.array([alone.best, both.best]), CAPA)
        empty = contenders(net, 0, [], reports, CAPA)
        full = contenders(net, 0, [0, 1], reports, CAPA,
                          both.held, both.best, both.bound)
        ev = Evaluator(net, mode)
        value = ev.cell(0, 0b1).value
        taxed = ev.utility(0, 0b11, 0)
        replies = better_reply_set(net, (0, 0), mode, ev)
        nes = enumerate_nes(net, mode).nes
    assert alone.power == [0.0, 1.0]
    assert [a.power for a in batch] == [alone.power, both.power]
    assert empty.tolist() == full.tolist() == [True, True]
    assert value == 0.6931471805599453
    assert taxed == 0.040821994520255256
    assert replies == [[], []]
    assert [(a, float(v)) for a, v in nes] == [((0, 0), 1.1394342831883648)]
