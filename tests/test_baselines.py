import math

import numpy as np
import pytest

from conftest import random_network
from ofdma_assoc import fixtures
from ofdma_assoc.assoc_game import Evaluator, GameMode, enumerate_nes, is_ne
from ofdma_assoc.baselines import (SEARCH_CAP, SearchSpaceTooLargeError,
                                   candidate_bss, exhaustive_opt, greedy0,
                                   multi_connect_bound, nearest_bs)
from ofdma_assoc.net_model import (NetworkInstance, SatInstance, ScenarioConfig,
                                   generate, reduce_3sat)
from ofdma_assoc.per_bs_alloc import CA, CAPA


class TestNearest:
    def test_single_bs_trivial(self, rng):
        net = random_network(rng, n_bss=1)
        res = nearest_bs(net)
        assert res.profile == tuple([0] * net.num_users)

    def test_below_optimum(self, rng):
        for _ in range(30):
            net = random_network(rng)
            assert nearest_bs(net).throughput <= \
                exhaustive_opt(net).throughput + 1e-9


class TestExhaustive:
    def test_example1_optimum(self):
        net = fixtures.example1_network()
        res = exhaustive_opt(net, CA)
        assert res.profile == (0, 0)
        assert res.throughput == pytest.approx(3 * math.log(3), abs=1e-3)

    def test_matches_enumeration_oracle(self, rng):
        """The pruned DFS agrees with plain full enumeration."""
        for strategy in (CA, CAPA):
            mode = GameMode(strategy=strategy, taxed=True)
            for _ in range(25):
                net = random_network(rng, n_users=int(rng.integers(2, 5)),
                                     n_bss=int(rng.integers(2, 4)),
                                     zero_frac=0.2)
                ev = Evaluator(net, mode)
                res = exhaustive_opt(net, strategy, ev)
                ref = enumerate_nes(net, mode, ev)
                assert res.throughput == pytest.approx(ref.optimum_value,
                                                       abs=1e-9)

    def test_optimum_is_taxed_ne(self, rng):
        for _ in range(20):
            net = random_network(rng, n_users=int(rng.integers(2, 5)),
                                 n_bss=2)
            mode = GameMode(strategy=CAPA, taxed=True)
            ev = Evaluator(net, mode)
            res = exhaustive_opt(net, CAPA, ev)
            assert is_ne(net, res.profile, mode, ev)

    def test_sat_gadget_optimum(self):
        sat = SatInstance(num_vars=1,
                          clauses=[[(0, True), (0, True), (0, False)]])
        net, threshold = reduce_3sat(sat)
        res = exhaustive_opt(net, CAPA)
        assert res.throughput >= 4.0986
        assert res.throughput == pytest.approx(threshold, abs=1e-9)

    def test_space_cap_enforced(self, rng):
        """24 users with 2 candidate BSs each: 2^24 profiles exceed
        SEARCH_CAP, which is refused before any cell is looked up."""
        net = random_network(rng, n_users=24, n_bss=2)
        assert all(len(c) == 2 for c in candidate_bss(net))
        assert 2 ** 24 > SEARCH_CAP

        class NoCells(Evaluator):
            def cell(self, w, users):
                raise AssertionError("a cell was looked up")

        with pytest.raises(SearchSpaceTooLargeError):
            exhaustive_opt(net, CAPA, NoCells(net, GameMode(strategy=CAPA)))

    def test_candidate_pruning(self, rng):
        net = random_network(rng, n_users=3, n_bss=2, chans_per_bs=[2, 2])
        net.gain[:, 2:] = 0.0          # BS 2 useless for everyone
        cands = candidate_bss(net)
        assert all(c == [0] for c in cands)

    def test_bs_without_channels(self):
        """A BS that owns no channel is no candidate and does not stop the
        search: blocks [1, 1, 0] give enumeration's optimum."""
        net = generate(ScenarioConfig(num_users=6, num_bss=3, num_channels=2,
                                      seed=4))
        assert [len(c) for c in net.channels_of_bs] == [1, 1, 0]
        res = exhaustive_opt(net)
        ref = enumerate_nes(net, GameMode())
        assert res.throughput == pytest.approx(ref.optimum_value, rel=1e-9)

    def test_candidates_follow_the_searched_reports(self):
        """User 0 has no true gain at BS 1 but reports 5 there: the search
        over those reports must keep BS 1 and agree with enumeration."""
        net = NetworkInstance(gain=[[1.0, 0.0], [1.0, 0.0]],
                              noise=np.ones((2, 2)),
                              channels_of_bs=[[0], [1]], budget=[1.0, 1.0],
                              weight=[1.0, 1.0], bandwidth=[1.0, 1.0], tau=1.0)
        reports = np.array([[1.0, 5.0], [1.0, 0.0]])
        ev = Evaluator(net, GameMode(strategy=CAPA), reports)
        assert candidate_bss(net, reports) == [[0, 1], [0]]
        res = exhaustive_opt(net, CAPA, ev)
        ref = enumerate_nes(net, GameMode(strategy=CAPA), ev)
        assert res.profile == ref.optimum == (1, 0)
        assert res.throughput == ref.optimum_value == pytest.approx(
            math.log(6.0) + math.log(2.0))


class TestGreedy0:
    def test_optimal_start_stays(self, rng):
        net = random_network(rng, n_bss=1)
        res = greedy0(net)
        assert res.profile == nearest_bs(net).profile

    def test_bracketed_by_neighbors(self, rng):
        for _ in range(30):
            net = random_network(rng)
            lo = nearest_bs(net).throughput
            res = greedy0(net)
            mid = res.throughput
            hi = exhaustive_opt(net).throughput
            assert all(type(w) is int for w in res.profile)
            assert lo <= mid + 1e-9
            assert mid <= hi + 1e-9


class TestBound:
    def test_single_bs_equals_optimum(self, rng):
        net = random_network(rng, n_bss=1)
        assert multi_connect_bound(net) == pytest.approx(
            exhaustive_opt(net).throughput, abs=1e-9)

    def test_upper_bounds_optimum(self, rng):
        for _ in range(30):
            net = random_network(rng)
            assert multi_connect_bound(net) >= \
                exhaustive_opt(net).throughput - 1e-9

    def test_zero_gain_bs_adds_nothing(self, rng):
        net = random_network(rng, n_users=2, n_bss=2, chans_per_bs=[2, 2])
        net.gain[:, 2:] = 0.0
        single = net.weight[0] * exhaustive_opt(net, CAPA).throughput
        assert multi_connect_bound(net, CAPA) == pytest.approx(
            exhaustive_opt(net, CAPA).throughput, abs=1e-9)


def test_full_ordering_chain(rng):
    for _ in range(40):
        net = random_network(rng, zero_frac=0.1)
        for strategy in (CA, CAPA):
            ev = Evaluator(net, GameMode(strategy=strategy))
            a = nearest_bs(net, strategy, ev).throughput
            b = greedy0(net, strategy, ev).throughput
            c = exhaustive_opt(net, strategy, ev).throughput
            d = multi_connect_bound(net, strategy, ev)
            assert a <= b + 1e-9 <= c + 2e-9 <= d + 3e-9
