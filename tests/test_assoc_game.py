import math

import numpy as np
import pytest

from conftest import random_network
from ofdma_assoc import fixtures
from ofdma_assoc.assoc_game import (Evaluator, GameMode, better_reply_set,
                                    deviation_identity_check, efficiency_ratio,
                                    enumerate_nes, is_ne, system_throughput)
from ofdma_assoc.mechanism import init_state, run, step
from ofdma_assoc.net_model import InvalidArgumentError, NetworkInstance
from ofdma_assoc.per_bs_alloc import CA, CAPA, cells_of


def random_profile(rng, net):
    return tuple(int(rng.integers(0, net.num_bss)) for _ in range(net.num_users))


class TestGameMode:
    def test_defaults(self):
        mode = GameMode()
        assert mode.strategy == CAPA and mode.taxed


class TestBetterReply:
    def test_ca_table_all_rows(self):
        net = fixtures.example2_ca_network()
        mode = GameMode(strategy=CA, taxed=False)
        ev = Evaluator(net, mode)
        for profile, user, target in fixtures.EXAMPLE2_BR_TABLE:
            assert better_reply_set(net, profile, mode, ev)[user] == [target]

    def test_capa_table_consistent_rows(self):
        net = fixtures.example2_capa_network()
        mode = GameMode(strategy=CAPA, taxed=False)
        ev = Evaluator(net, mode)
        deviant = fixtures.EXAMPLE2_CAPA_DEVIANT_PROFILE
        for profile, user, target in fixtures.EXAMPLE2_BR_TABLE:
            br = better_reply_set(net, profile, mode, ev)[user]
            if profile == deviant:
                assert br == []     # exact arithmetic disagrees; see fixtures
            else:
                assert br == [target]

    def test_capa_deviant_profile_rates(self):
        """Pins the arithmetic behind the deviation: staying earns ln(15/8),
        the nominal move only ln(11/6)."""
        net = fixtures.example2_capa_network()
        ev = Evaluator(net, GameMode(strategy=CAPA, taxed=False))
        deviant = fixtures.EXAMPLE2_CAPA_DEVIANT_PROFILE
        cells = cells_of(net, deviant)
        here = deviant[2]
        assert ev.utility(here, cells[here], 2) == pytest.approx(
            math.log(15 / 8), abs=1e-12)
        assert ev.move_utility(1, cells[1], 2) == pytest.approx(
            math.log(11 / 6), abs=1e-12)

    def test_single_bs_always_empty(self, rng):
        net = random_network(rng, n_bss=1)
        mode = GameMode()
        a = [0] * net.num_users
        assert better_reply_set(net, a, mode) == [[]] * net.num_users

    def test_membership_implies_strict_gain(self, rng):
        for _ in range(50):
            net = random_network(rng)
            mode = GameMode(strategy=CAPA, taxed=bool(rng.integers(0, 2)))
            ev = Evaluator(net, mode)
            a = random_profile(rng, net)
            cells = cells_of(net, a)
            for i, br in enumerate(better_reply_set(net, a, mode, ev)):
                cur = ev.utility(a[i], cells[a[i]], i)
                for w in br:
                    assert ev.move_utility(w, cells[w], i) > cur

    @pytest.mark.parametrize("count", [1, 3])
    def test_margins_must_match_the_profile(self, count):
        """One margin per user: a short list is not cut to a short answer,
        nor a long one silently truncated."""
        net = fixtures.example1_network()
        mode = GameMode()
        with pytest.raises(InvalidArgumentError):
            better_reply_set(net, (0, 0), mode, Evaluator(net, mode),
                             [0.0] * count)


class TestIsNE:
    def test_ca_counterexample_has_no_ne(self):
        net = fixtures.example2_ca_network()
        mode = GameMode(strategy=CA, taxed=False)
        ev = Evaluator(net, mode)
        import itertools
        for a in itertools.product(range(2), repeat=3):
            assert not is_ne(net, a, mode, ev)

    def test_capa_counterexample_unique_ne(self):
        net = fixtures.example2_capa_network()
        mode = GameMode(strategy=CAPA, taxed=False)
        res = enumerate_nes(net, mode)
        assert [p for p, _ in res.nes] == [fixtures.EXAMPLE2_CAPA_DEVIANT_PROFILE]

    def test_single_user_argmax_is_ne(self, rng):
        for _ in range(20):
            net = random_network(rng, n_users=1)
            mode = GameMode()
            ev = Evaluator(net, mode)
            cells = cells_of(net, (0,))
            utils = [ev.move_utility(w, cells[w], 0) if w != 0
                     else ev.utility(0, cells[0], 0) for w in range(net.num_bss)]
            best = int(np.argmax(utils))
            assert is_ne(net, (best,), mode, ev)


class TestSystemThroughput:
    def test_worked_example(self):
        net = fixtures.example1_network()
        assert system_throughput(net, [0, 0], CA) == pytest.approx(3.2958, abs=1e-3)

    def test_relabel_invariance(self, rng):
        net = random_network(rng, n_users=4)
        a = random_profile(rng, net)
        perm = rng.permutation(net.num_users)
        import ofdma_assoc.net_model as nm
        net2 = nm.NetworkInstance(gain=net.gain[perm], noise=net.noise[perm],
                                  channels_of_bs=net.channels_of_bs,
                                  budget=net.budget, weight=net.weight,
                                  bandwidth=net.bandwidth, tau=net.tau)
        a2 = tuple(a[j] for j in perm)
        assert system_throughput(net, a, CAPA) == pytest.approx(
            system_throughput(net2, a2, CAPA), abs=1e-9)


class TestMemberSetMemo:
    def test_in_place_change_gets_fresh_sets(self, rng):
        """A list profile changed in place after a query is not served the
        member sets or values of its old contents."""
        net = random_network(rng, n_users=5, n_bss=3)
        mode = GameMode()
        ev = Evaluator(net, mode)
        a = [0, 1, 2, 0, 1]
        old = cells_of(net, a)
        old_value = ev.system_value(a)
        a[0], a[3] = 2, 1
        fresh = Evaluator(net, mode)
        cells = cells_of(net, a)
        assert cells != old
        assert ev.system_value(a) == fresh.system_value(a) != old_value
        for i in range(net.num_users):
            assert ev.utility(a[i], cells[a[i]], i) == fresh.utility(
                a[i], cells[a[i]], i)

    def test_in_place_change_gets_fresh_better_replies(self, rng):
        """Likewise for the utility rows behind `better_reply_set`."""
        net = random_network(rng, n_users=5, n_bss=3)
        mode = GameMode()
        ev = Evaluator(net, mode)
        a = [0, 1, 2, 0, 1]
        old = better_reply_set(net, a, mode, ev)
        a[0], a[3] = 2, 1
        fresh = Evaluator(net, mode)
        new = better_reply_set(net, a, mode, ev)
        assert new == better_reply_set(net, a, mode, fresh)
        assert new != old
        assert ev.utilities(a) == fresh.utilities(a)


class TestDeviationIdentity:
    def test_residual_small_on_random_moves(self, rng):
        for strategy in (CA, CAPA):
            mode = GameMode(strategy=strategy, taxed=True)
            for _ in range(250):
                net = random_network(rng, n_bss=int(rng.integers(2, 4)),
                                     zero_frac=0.1)
                a = random_profile(rng, net)
                i = int(rng.integers(0, net.num_users))
                w_new = int(rng.integers(0, net.num_bss))
                if w_new == a[i]:
                    w_new = (w_new + 1) % net.num_bss
                assert deviation_identity_check(net, a, i, w_new, mode) <= 1e-9

    def test_same_bs_rejected(self, rng):
        net = random_network(rng, n_bss=2)
        a = random_profile(rng, net)
        with pytest.raises(InvalidArgumentError):
            deviation_identity_check(net, a, 0, a[0])


class TestEnumeration:
    def test_taxed_optimum_is_ne(self, rng):
        """On random small instances the enumerated optimum is a pure NE of
        the taxed game under both strategies."""
        for strategy in (CA, CAPA):
            mode = GameMode(strategy=strategy, taxed=True)
            for _ in range(30):
                net = random_network(rng, n_users=int(rng.integers(2, 5)),
                                     n_bss=int(rng.integers(2, 4)))
                res = enumerate_nes(net, mode)
                assert res.optimum in [p for p, _ in res.nes]

    def test_efficiency_of_every_ne(self, rng):
        for _ in range(30):
            net = random_network(rng, n_users=int(rng.integers(2, 5)),
                                 n_bss=int(rng.integers(2, 4)))
            mode = GameMode(strategy=CAPA, taxed=True)
            ev = Evaluator(net, mode)
            res = enumerate_nes(net, mode, ev)
            for ne, _ in res.nes:
                ratio = efficiency_ratio(net, ne, mode, ev, res)
                assert ratio >= 0.5 - 1e-9

    def test_optimum_ratio_is_one(self, rng):
        net = random_network(rng, n_users=3, n_bss=2)
        mode = GameMode(strategy=CAPA, taxed=True)
        ev = Evaluator(net, mode)
        res = enumerate_nes(net, mode, ev)
        assert efficiency_ratio(net, res.optimum, mode, ev, res) == \
            pytest.approx(1.0, abs=1e-12)

    def test_non_ne_input_rejected(self):
        net = fixtures.example2_ca_network()
        mode = GameMode(strategy=CA, taxed=False)
        with pytest.raises(InvalidArgumentError):
            efficiency_ratio(net, (0, 0, 0), mode)

    def test_space_cap(self, rng):
        net = random_network(rng, n_users=5, n_bss=3)
        mode = GameMode()
        import ofdma_assoc.assoc_game as ag
        old = ag.ENUM_CAP
        ag.ENUM_CAP = 10
        try:
            with pytest.raises(InvalidArgumentError):
                enumerate_nes(net, mode)
        finally:
            ag.ENUM_CAP = old


class TestValidUtilityConditions:
    def test_utilities_sum_below_system_value(self, rng):
        """Marginal-contribution utilities never exceed the system value."""
        for _ in range(100):
            net = random_network(rng)
            mode = GameMode(strategy=CAPA, taxed=True)
            ev = Evaluator(net, mode)
            a = random_profile(rng, net)
            cells = cells_of(net, a)
            total = sum(ev.utility(a[i], cells[a[i]], i) for i in range(net.num_users))
            assert total <= ev.system_value(a) + 1e-9


def half_bound_witness(delta=0.0):
    """Two BSs of one channel each; unit noise, budget, weight and
    bandwidth; tau=1.  User 0 hears only BS 0 (gain 4); user 1 hears both,
    with gain 4(1+delta) at BS 0 and 4 at BS 1."""
    return NetworkInstance(
        gain=[[4.0, 0.0], [4.0 * (1 + delta), 4.0]], noise=np.ones((2, 2)),
        channels_of_bs=[[0], [1]], budget=[1.0, 1.0], weight=[1.0, 1.0],
        bandwidth=[1.0, 1.0], tau=1.0)


@pytest.mark.parametrize("strategy", [CA, CAPA])
class TestHalfBoundWitness:
    """The taxed game's 1/2 efficiency bound is attained.  At (1, 0) user 0
    adds nothing at BS 0 while user 1 holds its channel (a tie of equal
    gains), so that profile is a NE worth ln 5, half of the optimum (0, 1)
    at 2 ln 5.  Criterion 05's `>= 0.5 - 1e-9` has no slack here."""

    def test_worst_ne_attains_half(self, strategy):
        net, mode = half_bound_witness(), GameMode(strategy)
        enum = enumerate_nes(net, mode)
        assert enum.nes == [((0, 1), 3.2188758248682006),
                            ((1, 0), 1.6094379124341003)]
        assert enum.optimum == (0, 1)
        ratio = efficiency_ratio(net, (1, 0), mode, enumeration=enum)
        assert 0.5 - 1e-9 <= ratio <= 0.5 + 1e-12

    def test_untaxed_game_has_only_the_optimum(self, strategy):
        mode = GameMode(strategy, taxed=False)
        assert [a for a, _ in enumerate_nes(half_bound_witness(), mode).nes] == [(0, 1)]

    def test_breaking_the_tie_lifts_the_ratio(self, strategy):
        net, mode = half_bound_witness(0.01), GameMode(strategy)
        enum = enumerate_nes(net, mode)
        assert [a for a, _ in enum.nes] == [(0, 1), (1, 0)]
        assert efficiency_ratio(net, (1, 0), mode, enumeration=enum) > 0.5 + 1e-3

    def test_dbsa_reaches_the_optimum_and_stays_at_the_bad_ne(self, strategy):
        net, mode = half_bound_witness(), GameMode(strategy)
        for seed in range(5):
            res = run(net, 2, 0.0, 100, seed, mode)
            assert [rec.profile for rec in res.trace] == [(0, 0)] + [(0, 1)] * 3
            assert res.converged and res.is_ne and res.iterations == 3
            assert res.first_ne_round == 1
        state = init_state(net, 2, 0.0, 0)
        state.profile = (1, 0)
        step(net, state, mode)
        assert state.profile == (1, 0)
