import copy
import math
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import random_network
from ofdma_assoc import assoc_game, fixtures, mechanism
from ofdma_assoc.assoc_game import Evaluator, GameMode, is_ne
from ofdma_assoc.baselines import exhaustive_opt, greedy0, nearest_bs
from ofdma_assoc.mechanism import (AddUsers, RegenerateChannels, RemoveUsers,
                                   RunResult, TraceRecord, apply_event,
                                   init_state, nearest_bs_profile, run, step,
                                   update_interference_noise)
from ofdma_assoc.net_model import (InvalidArgumentError, NetworkInstance,
                                   ScenarioConfig, generate)
from ofdma_assoc.per_bs_alloc import (CA, CAPA, cells_of, members, solve_capa,
                                      solve_cell)
from test_exactness import ref_better_reply_set


def positioned_network():
    """2 BSs at x=0 and x=10, three users along the segment."""
    gain = np.array([[1.0, 1.0, 0.2, 0.2],
                     [0.3, 0.3, 0.9, 0.9],
                     [0.5, 0.5, 0.6, 0.6]])
    return NetworkInstance(
        gain=gain, noise=np.ones((3, 4)),
        channels_of_bs=[np.arange(2), np.arange(2, 4)],
        budget=np.array([2.0, 2.0]), weight=np.ones(2),
        bandwidth=np.ones(2), tau=1.0,
        user_pos=np.array([[1.0, 0.0], [9.0, 0.0], [6.0, 0.0]]),
        bs_pos=np.array([[0.0, 0.0], [10.0, 0.0]]))


class TestInit:
    def test_nearest_by_distance(self):
        net = positioned_network()
        assert nearest_bs_profile(net) == (0, 1, 1)

    def test_gain_fallback(self, rng):
        net = random_network(rng, n_users=4, n_bss=2, chans_per_bs=[2, 2])
        g = net.normalized_gain()
        expect = [int(np.argmax([g[i, :2].mean(), g[i, 2:].mean()]))
                  for i in range(4)]
        assert nearest_bs_profile(net) == tuple(expect)

    def test_gain_fallback_skips_bss_without_channels(self):
        """A BS that owns no channel has no mean gain and takes no user."""
        net = NetworkInstance(gain=[[1.0, 2.0], [3.0, 0.5]], noise=np.ones((2, 2)),
                              channels_of_bs=[[0], [1], []], budget=[1.0] * 3,
                              weight=[1.0] * 3, bandwidth=[1.0] * 3, tau=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert nearest_bs_profile(net) == (1, 0)

    def test_nearest_by_distance_skips_bss_without_channels(self):
        """BS 2 owns no channel: users 1 and 4, nearest to it, start at the
        nearest BS that owns one, where they can get a channel."""
        net = generate(ScenarioConfig(num_users=6, num_bss=3, num_channels=2,
                                      seed=0))
        assert [len(c) for c in net.channels_of_bs] == [1, 1, 0]
        assert nearest_bs_profile(net) == (1, 1, 1, 1, 1, 1)

    def test_memory_length_validated(self, rng):
        net = random_network(rng)
        with pytest.raises(InvalidArgumentError):
            init_state(net, 0, 0.0, seed=1)

    def test_same_seed_same_state(self):
        net = positioned_network()
        s1 = init_state(net, 3, 0.0, seed=4)
        s2 = init_state(net, 3, 0.0, seed=4)
        assert np.array_equal(s1.profile, s2.profile)
        assert s1.rng.integers(0, 100) == s2.rng.integers(0, 100)


def reference_step(net, state, mode, ev):
    """`step` with per-user better-reply queries and one scalar draw per
    better reply and per memory slot, interleaved user by user.  Returns
    the better replies."""
    a = state.profile
    next_a = list(a)
    costs = state.costs.tolist()
    replies = []
    for i in range(net.num_users):
        br = ref_better_reply_set(net, a, i, mode, ev, costs[i])
        replies.append(br)
        w_star = br[state.rng.integers(0, len(br))] if br else a[i]
        state.memories[i].appendleft(w_star)
        mem = state.memories[i]
        next_a[i] = mem[state.rng.integers(0, len(mem))]
    state.profile = tuple(next_a)
    state.iteration += 1
    state.stable = state.stable + 1 if state.profile == a else 0
    return replies


def _same_state(s1, s2):
    return (s1.profile == s2.profile and s1.iteration == s2.iteration
            and s1.stable == s2.stable
            and [list(m) for m in s1.memories] == [list(m) for m in s2.memories]
            and s1.rng.bit_generator.state == s2.rng.bit_generator.state)


class TestStep:
    def test_one_draw_per_round_matches_per_user_draws(self, rng):
        """Drawing a round's indices with one array-bound call gives the
        same memories, profiles and generator state as scalar draws."""
        for _ in range(40):
            net = random_network(rng, n_users=int(rng.integers(1, 7)),
                                 n_bss=int(rng.integers(1, 4)))
            mode = GameMode(strategy=CA if rng.uniform() < 0.5 else CAPA)
            m = int(rng.integers(1, 5))
            costs = rng.choice([0.0, 0.05, 0.5], size=net.num_users)
            seed = int(rng.integers(10 ** 6))
            fast, ref = (init_state(net, m, costs, seed) for _ in range(2))
            ev = Evaluator(net, mode)
            for _ in range(30):
                step(net, fast, mode, ev)
                reference_step(net, ref, mode, ev)
                assert _same_state(fast, ref)

    def test_no_users_draws_nothing(self):
        net = positioned_network()
        state = init_state(net, 2, 0.0, seed=3)
        net = apply_event(net, state, RemoveUsers([0, 1, 2]))
        before = state.rng.bit_generator.state
        step(net, state, GameMode())
        assert state.profile == () and state.rng.bit_generator.state == before

    def test_absorbing_state(self):
        """BR sets empty and memories saturated with the current profile:
        the profile can never change again."""
        net = positioned_network()
        mode = GameMode(strategy=CAPA, taxed=True)
        res = run(net, 3, 0.0, 100, seed=0, mode=mode)
        assert res.converged
        state = init_state(net, 3, 0.0, seed=1)
        state.profile = res.profile
        for i in range(net.num_users):
            state.memories[i].extend([res.profile[i]] * 3)
        for _ in range(10):
            step(net, state, mode)
            assert tuple(state.profile) == res.profile

    def test_single_user_locks_onto_better_bs(self):
        gain = np.array([[0.1, 0.1, 5.0, 5.0]])
        net = NetworkInstance(gain=gain, noise=np.ones((1, 4)),
                              channels_of_bs=[np.arange(2), np.arange(2, 4)],
                              budget=np.ones(2), weight=np.ones(2),
                              bandwidth=np.ones(2), tau=1.0,
                              user_pos=np.array([[0.0, 0.0]]),
                              bs_pos=np.array([[0.1, 0.0], [5.0, 0.0]]))
        m = 4
        state = init_state(net, m, 0.0, seed=2)
        assert state.profile[0] == 0          # starts at the nearest BS
        mode = GameMode()
        for _ in range(m + 5):
            step(net, state, mode)
        assert state.profile[0] == 1
        assert all(w == 1 for w in state.memories[0])

    def test_infinite_cost_freezes_profile(self):
        net = positioned_network()
        state = init_state(net, 3, math.inf, seed=3)
        start = state.profile
        mode = GameMode()
        for _ in range(10):
            step(net, state, mode)
            assert np.array_equal(state.profile, start)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf,
                                     [0.0, 0.5, 1.0, 0.0, math.nan, 0.0]])
    def test_nan_and_negative_costs_rejected(self, bad):
        """A NaN cost makes a bar no move clears, so a run stopped as
        "converged" on a profile that is no NE; a negative one makes users
        "improve" to worse BSs, so a run never converged."""
        net = generate(ScenarioConfig(num_users=6, num_bss=3, num_channels=24,
                                      seed=2))
        with pytest.raises(InvalidArgumentError, match="switching costs"):
            run(net, 3, bad, 200, seed=1)
        with pytest.raises(InvalidArgumentError, match="switching costs"):
            init_state(net, 3, bad, seed=1)
        state = init_state(net, 3, 0.0, seed=1)
        with pytest.raises(InvalidArgumentError, match="switching costs"):
            apply_event(net, state, AddUsers(
                gain=net.gain[:1], noise=net.noise[:1],
                positions=net.user_pos[:1], gain_mean=net.gain_mean[:1],
                costs=bad if np.ndim(bad) == 0 else [math.nan]))
        assert len(state.profile) == len(state.costs) == net.num_users

    def test_memory_never_exceeds_bound(self):
        net = positioned_network()
        m = 2
        state = init_state(net, m, 0.0, seed=5)
        mode = GameMode()
        for _ in range(20):
            step(net, state, mode)
            assert all(len(mem) <= m for mem in state.memories)


class TestRun:
    def test_single_bs_converges_at_m(self, rng):
        net = random_network(rng, n_bss=1)
        m = 4
        res = run(net, m, 0.0, 50, seed=1)
        assert res.converged and res.iterations == m

    def test_max_iter_validated(self, rng):
        net = random_network(rng)
        with pytest.raises(InvalidArgumentError):
            run(net, 5, 0.0, 5, seed=1)

    def test_example2_ca_taxed_reaches_ne(self):
        net = fixtures.example2_ca_network()
        mode = GameMode(strategy=CA, taxed=True)
        res = run(net, 3, 0.0, 200, seed=11, mode=mode)
        assert res.converged and res.is_ne

    def test_deterministic_replay(self):
        net = positioned_network()
        r1 = run(net, 3, 0.0, 100, seed=21)
        r2 = run(net, 3, 0.0, 100, seed=21)
        assert r1.profile == r2.profile
        assert [t.profile for t in r1.trace] == [t.profile for t in r2.trace]
        assert [t.throughput for t in r1.trace] == [t.throughput for t in r2.trace]

    def test_trace_bookkeeping(self):
        net = positioned_network()
        res = run(net, 3, 0.0, 100, seed=2)
        assert res.trace[0].iteration == 0
        iters = [t.iteration for t in res.trace]
        assert iters == list(range(len(res.trace)))
        for rec in res.trace:
            assert rec.throughput == pytest.approx(sum(rec.bs_throughput), abs=1e-9)

    def test_stop_rule(self, rng):
        """Converged exactly when the last M+1 profiles are equal, at the
        first such window, and one trace record per round plus the start."""
        for _ in range(25):
            net = random_network(rng, n_users=int(rng.integers(2, 6)),
                                 n_bss=int(rng.integers(2, 4)))
            m = int(rng.integers(1, 4))
            res = run(net, m, 0.0, int(rng.integers(m + 1, 40)),
                      seed=int(rng.integers(10 ** 6)))
            profiles = [rec.profile for rec in res.trace]
            windows = [len(set(profiles[t - m:t + 1])) == 1
                       for t in range(m, len(profiles))]
            assert res.iterations == len(res.trace) - 1
            assert res.converged == (bool(windows) and windows[-1])
            if res.converged:
                assert not any(windows[:-1])

    def test_memory_one_can_cycle(self):
        """M=1 is simultaneous better reply: every user with a better reply
        takes one at once.  Here that cycles with period 2 and never stops,
        while M=N stops at a NE."""
        net = generate(ScenarioConfig(num_users=4, num_bss=4, num_channels=16,
                                      seed=2))
        res = run(net, 1, 0.0, 400, 2)
        assert not res.converged and res.iterations == 400
        profiles = [rec.profile for rec in res.trace]
        assert profiles[2:] == [(1, 2, 1, 0), (3, 2, 3, 0)] * 199 + [(1, 2, 1, 0)]
        assert res.first_ne_round is None
        res = run(net, 4, 0.0, 400, 2)
        assert res.converged and res.is_ne and res.iterations == 12
        assert res.profile == (1, 2, 3, 0)

    @pytest.mark.parametrize("cost", [0.0, 0.05])
    def test_first_ne_round_is_the_first_stepped_ne(self, rng, cost):
        """`first_ne_round` is the first traced profile, among those a
        round stepped from, with no better reply under the run's costs;
        reading it changes no trajectory."""
        mode = GameMode()
        for _ in range(25):
            net = random_network(rng, n_users=int(rng.integers(2, 6)),
                                 n_bss=int(rng.integers(2, 4)))
            m = int(rng.integers(1, net.num_users + 1))
            res = run(net, m, cost, 60, int(rng.integers(10 ** 6)), mode)
            ne = [not any(assoc_game.better_reply_set(
                      net, rec.profile, mode, margins=[cost] * net.num_users))
                  for rec in res.trace[:-1]]
            assert res.first_ne_round == (ne.index(True) if True in ne else None)
            if res.converged and cost == 0.0:
                assert res.first_ne_round is not None

    def test_random_instances_converge_to_ne(self, rng):
        for _ in range(25):
            net = random_network(rng, n_users=int(rng.integers(2, 6)),
                                 n_bss=int(rng.integers(2, 4)))
            res = run(net, net.num_users, 0.0, 500, seed=int(rng.integers(10 ** 6)))
            assert res.converged
            assert res.is_ne

    def test_shared_evaluator_run_equals_fresh_run(self, rng):
        for _ in range(10):
            net = random_network(rng, n_users=int(rng.integers(2, 6)),
                                 n_bss=int(rng.integers(2, 4)))
            reports = net.normalized_gain() * rng.uniform(0.5, 1.5, net.gain.shape)
            seed = int(rng.integers(10 ** 6))
            ev = Evaluator(net, GameMode(), reports)
            ev.system_value(nearest_bs_profile(net))
            shared = run(net, 3, 0.1, 200, seed, evaluator=ev)
            fresh = run(net, 3, 0.1, 200, seed,
                        evaluator=Evaluator(net, GameMode(), reports))
            assert shared == fresh
            assert run(net, 3, 0.1, 200, seed) == run(
                net, 3, 0.1, 200, seed, evaluator=Evaluator(net, GameMode()))

    def test_interference_takes_no_evaluator(self):
        net = positioned_network()
        with pytest.raises(InvalidArgumentError):
            run(net, 3, 0.0, 50, seed=1, interference=True,
                evaluator=Evaluator(net, GameMode()))


class TestProfileType:
    def test_profiles_are_int_tuples(self, rng):
        def check(profile):
            assert type(profile) is tuple
            assert all(type(w) is int for w in profile)

        net = random_network(rng, n_users=5, n_bss=3)
        check(nearest_bs_profile(net))
        check(nearest_bs_profile(positioned_network()))
        state = init_state(net, 2, 0.0, seed=1)
        check(state.profile)
        step(net, state, GameMode())
        check(state.profile)
        res = run(net, 2, 0.0, 50, seed=1)
        check(res.profile)
        for rec in res.trace:
            check(rec.profile)
        for oracle in (nearest_bs, greedy0, exhaustive_opt):
            check(oracle(net).profile)


class TestEvents:
    def test_remove_unknown_user(self):
        net = positioned_network()
        state = init_state(net, 3, 0.0, seed=1)
        with pytest.raises(InvalidArgumentError):
            apply_event(net, state, RemoveUsers([7]))

    def test_remove_then_add_round_trip(self):
        net = positioned_network()
        state = init_state(net, 3, 0.0, seed=1)
        gone_gain = net.gain[2].copy()
        gone_noise = net.noise[2].copy()
        gone_pos = net.user_pos[2].copy()
        net2 = apply_event(net, state, RemoveUsers([2]))
        assert net2.num_users == 2
        assert len(state.memories) == 2 and len(state.profile) == 2
        net3 = apply_event(net2, state, AddUsers(gain=gone_gain[None, :],
                                                 noise=gone_noise[None, :],
                                                 positions=gone_pos[None, :]))
        assert net3.num_users == 3
        assert np.array_equal(net3.gain[2], gone_gain)
        assert state.profile[2] == 1          # re-enters at its nearest BS
        assert len(state.memories[2]) == 0

    def test_event_annotates_trace_and_resets_stable_count(self):
        net = positioned_network()
        mode = GameMode()
        state = init_state(net, 2, 0.0, seed=3)
        ev = Evaluator(net, mode)
        mechanism._record(state, ev)
        for _ in range(5):
            step(net, state, mode, ev)
        net = apply_event(net, state, RemoveUsers([0]))
        assert state.trace[-1].event.startswith("remove_users")
        assert state.stable == 0

    def test_added_users_keep_gain_model(self):
        """Remove, re-add with a gain model, then redraw the channels."""
        net = positioned_network()
        net.gain_mean = np.full((3, 2), 0.5)
        state = init_state(net, 2, 0.0, seed=1)
        net2 = apply_event(net, state, RemoveUsers([2]))
        net3 = apply_event(net2, state, AddUsers(
            gain=net.gain[2:], noise=net.noise[2:],
            positions=net.user_pos[2:], gain_mean=net.gain_mean[2:]))
        assert np.array_equal(net3.gain_mean, net.gain_mean)
        net4 = apply_event(net3, state, RegenerateChannels(seed=42))
        assert net4.gain.shape == (3, 4)
        assert net4.gain_mean.shape == (3, 2)

    def test_add_requires_gain_model(self):
        net = positioned_network()
        net.gain_mean = np.full((3, 2), 0.5)
        state = init_state(net, 2, 0.0, seed=1)
        with pytest.raises(InvalidArgumentError):
            apply_event(net, state, AddUsers(
                gain=net.gain[:1], noise=net.noise[:1],
                positions=net.user_pos[:1]))

    def test_added_users_carry_their_costs(self):
        """Arrivals take the costs of their own event, one for all or one
        each, not a copy of user 0's."""
        net = positioned_network()
        state = init_state(net, 2, [0.5, 1.0, 2.0], seed=1)
        net = apply_event(net, state, AddUsers(
            gain=net.gain[:2], noise=net.noise[:2], positions=net.user_pos[:2],
            costs=[3.0, 4.0]))
        net = apply_event(net, state, AddUsers(
            gain=net.gain[:2], noise=net.noise[:2], positions=net.user_pos[:2],
            costs=7.0))
        net = apply_event(net, state, AddUsers(
            gain=net.gain[:1], noise=net.noise[:1], positions=net.user_pos[:1]))
        assert state.costs.tolist() == [0.5, 1.0, 2.0, 3.0, 4.0, 7.0, 7.0, 0.0]
        with pytest.raises(ValueError):
            apply_event(net, state, AddUsers(
                gain=net.gain[:2], noise=net.noise[:2],
                positions=net.user_pos[:2], costs=[1.0, 2.0, 3.0]))

    def test_misfit_costs_leave_the_state_alone(self):
        """Two arrivals with three costs are refused before the profile,
        the memories or the costs grow."""
        net = positioned_network()
        state = init_state(net, 2, 0.5, seed=1)
        before = (state.profile, len(state.memories), state.costs.tolist())
        with pytest.raises(InvalidArgumentError):
            apply_event(net, state, AddUsers(
                gain=net.gain[:2], noise=net.noise[:2],
                positions=net.user_pos[:2], costs=[1.0, 2.0, 3.0]))
        assert (state.profile, len(state.memories), state.costs.tolist()) == before

    def test_add_no_users_keeps_profile(self):
        net = positioned_network()
        state = init_state(net, 2, 0.0, seed=1)
        net2 = apply_event(net, state, AddUsers(
            gain=np.zeros((0, 4)), noise=np.ones((0, 4)),
            positions=np.zeros((0, 2))))
        assert net2.num_users == 3
        assert state.profile == (0, 1, 1)

    def test_regenerate_channels_deterministic(self):
        cfg_net = positioned_network()
        cfg_net.gain_mean = np.full((3, 2), 0.5)
        state = init_state(cfg_net, 2, 0.0, seed=1)
        n1 = apply_event(cfg_net, state, RegenerateChannels(seed=42))
        n2 = apply_event(cfg_net, state, RegenerateChannels(seed=42))
        assert np.array_equal(n1.gain, n2.gain)
        assert not np.array_equal(n1.gain, cfg_net.gain)

    def test_reconvergence_after_arrivals(self):
        """Arrivals mid-run: the mechanism keeps tracking and converges again."""
        net = positioned_network()
        mode = GameMode()
        m = 3
        state = init_state(net, m, 0.0, seed=9)
        ev = Evaluator(net, mode)
        for _ in range(30):
            step(net, state, mode, ev)
        rng = np.random.default_rng(17)
        new_gain = rng.exponential(scale=0.5, size=(2, 4))
        net = apply_event(net, state, AddUsers(
            gain=new_gain, noise=np.ones((2, 4)),
            positions=np.array([[2.0, 0.0], [8.0, 0.0]])))
        ev = Evaluator(net, mode)
        for _ in range(200):
            step(net, state, mode, ev)
        assert is_ne(net, state.profile, mode, ev)


def reference_interference_noise(net, a, allocations):
    """The per-user, per-channel loop that `update_interference_noise`
    vectorizes; returns the new noise array."""
    noise = net.noise.copy()
    n_sub = max(len(chans) for chans in net.channels_of_bs)
    powers = np.zeros((net.num_bss, n_sub))
    for w, alloc in allocations.items():
        powers[w, :len(alloc.power)] = alloc.power
    for i in range(net.num_users):
        w_serv = a[i]
        for pos, k in enumerate(net.channels_of_bs[w_serv]):
            interf = 0.0
            for w in range(net.num_bss):
                if w == w_serv or pos >= len(net.channels_of_bs[w]):
                    continue
                k_other = net.channels_of_bs[w][pos]
                interf += net.gain[i, k_other] * powers[w, pos]
            noise[i, k] += interf
    return noise


class TestInterference:
    def test_matches_reference_loop(self, rng):
        """Bit-identical to the loop on random profiles, equal and unequal
        blocks (3/3/2/2 among them), and BSs without an allocation."""
        for case in range(240):
            blocks = ([3, 3, 2, 2] if case % 4 == 0 else
                      [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 5)))])
            net = random_network(rng, n_users=int(rng.integers(1, 8)),
                                 n_bss=len(blocks), chans_per_bs=blocks)
            net.noise = rng.uniform(0.5, 2.0, size=net.noise.shape)
            a = tuple(int(w) for w in rng.integers(0, net.num_bss, net.num_users))
            g = net.normalized_gain()
            allocs = {w: solve_capa(net, w, members(mask), g)
                      for w, mask in enumerate(cells_of(net, a))
                      if mask}
            expected = reference_interference_noise(net, a, allocs)
            assert np.array_equal(update_interference_noise(net, a, allocs),
                                  expected)

    def test_many_bss_sum_in_order(self, rng):
        """With more than 8 BSs a pairwise sum would regroup the terms;
        the refresh still adds them in ascending BS order."""
        for case in range(40):
            blocks = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(9, 14)))]
            net = random_network(rng, n_users=int(rng.integers(1, 12)),
                                 n_bss=len(blocks), chans_per_bs=blocks)
            net.noise = rng.uniform(0.5, 2.0, size=net.noise.shape)
            a = tuple(int(w) for w in rng.integers(0, net.num_bss, net.num_users))
            g = net.normalized_gain()
            allocs = {w: solve_capa(net, w, members(mask) or [0], g)
                      for w, mask in enumerate(cells_of(net, a))}
            assert np.array_equal(update_interference_noise(net, a, allocs),
                                  reference_interference_noise(net, a, allocs))

    def test_single_bs_noise_unchanged(self, rng):
        net = random_network(rng, n_bss=1)
        alloc = solve_capa(net, 0, range(net.num_users), net.normalized_gain())
        noise = update_interference_noise(net, [0] * net.num_users, {0: alloc})
        assert np.allclose(noise, net.noise)

    def test_zero_cross_gain_unchanged(self):
        gain = np.array([[1.0, 1.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0, 1.0]])
        net = NetworkInstance(gain=gain, noise=np.ones((2, 4)),
                              channels_of_bs=[np.arange(2), np.arange(2, 4)],
                              budget=np.ones(2), weight=np.ones(2),
                              bandwidth=np.ones(2), tau=1.0)
        g = net.normalized_gain()
        allocs = {0: solve_capa(net, 0, [0], g), 1: solve_capa(net, 1, [1], g)}
        assert np.allclose(update_interference_noise(net, [0, 1], allocs),
                           net.noise)

    def test_two_bs_hand_check(self):
        """Cross-BS power x gain lands on the position-aligned channel."""
        gain = np.array([[1.0, 2.0, 0.5, 0.25],
                         [0.3, 0.4, 2.0, 2.0]])
        net = NetworkInstance(gain=gain, noise=np.ones((2, 4)),
                              channels_of_bs=[np.arange(2), np.arange(2, 4)],
                              budget=np.array([2.0, 3.0]), weight=np.ones(2),
                              bandwidth=np.ones(2), tau=1.0)
        g = net.normalized_gain()
        allocs = {0: solve_capa(net, 0, [0], g), 1: solve_capa(net, 1, [1], g)}
        p0 = allocs[0].power
        p1 = allocs[1].power
        noise = update_interference_noise(net, [0, 1], allocs)
        # user 0 served by BS 0: noise on its channels gains BS 1's powers
        assert noise[0, 0] == pytest.approx(1.0 + 0.5 * p1[0])
        assert noise[0, 1] == pytest.approx(1.0 + 0.25 * p1[1])
        # user 1 served by BS 1: noise on channels 2,3 gains BS 0's powers
        assert noise[1, 2] == pytest.approx(1.0 + 0.3 * p0[0])
        assert noise[1, 3] == pytest.approx(1.0 + 0.4 * p0[1])

    def test_unequal_blocks_hand_check(self):
        """Blocks of 2 and 1 channels: position 1 of BS 0 has no co-channel
        in BS 1, so it receives no interference."""
        gain = np.array([[1.0, 2.0, 0.5],
                         [0.3, 0.4, 2.0]])
        net = NetworkInstance(gain=gain, noise=np.ones((2, 3)),
                              channels_of_bs=[np.arange(2), np.arange(2, 3)],
                              budget=np.array([2.0, 3.0]), weight=np.ones(2),
                              bandwidth=np.ones(2), tau=1.0)
        g = net.normalized_gain()
        allocs = {0: solve_capa(net, 0, [0], g), 1: solve_capa(net, 1, [1], g)}
        assert allocs[1].power[0] == pytest.approx(3.0)
        noise = update_interference_noise(net, [0, 1], allocs)
        assert noise[0, 0] == pytest.approx(1.0 + 0.5 * 3.0)
        assert noise[0, 1] == 1.0
        assert noise[1, 2] == pytest.approx(1.0 + 0.3 * allocs[0].power[0])

    def test_refresh_leaves_caller_noise(self, rng):
        """A direct call returns the refreshed noise; `net` is unchanged."""
        net = random_network(rng, n_users=4, n_bss=2)
        a = (0, 1, 0, 1)
        g = net.normalized_gain()
        allocs = {w: solve_capa(net, w, members(mask), g)
                  for w, mask in enumerate(cells_of(net, a))}
        before = net.noise.copy()
        noise = update_interference_noise(net, a, allocs)
        assert np.array_equal(net.noise, before)
        assert not np.array_equal(noise, before)

    def test_unequal_blocks_run(self):
        """K=10 over W=4 gives blocks 3/3/2/2."""
        cfg = ScenarioConfig(num_users=6, num_bss=4, num_channels=10, seed=4)
        net = generate(cfg)
        assert [len(c) for c in net.channels_of_bs] == [3, 3, 2, 2]
        res = run(net, 3, 0.0, 30, seed=2, interference=True)
        assert len(res.trace) == res.iterations + 1
        assert all(math.isfinite(rec.throughput) for rec in res.trace)

    def test_run_leaves_caller_noise(self):
        net = positioned_network()
        before = net.noise.copy()
        run(net, 2, 0.0, 30, seed=5, interference=True)
        assert np.array_equal(net.noise, before)

    def test_interference_run_caps_honestly(self):
        net = positioned_network()
        net.gain_mean = np.full((3, 2), 0.5)
        res = run(net, 2, 0.0, 30, seed=5, interference=True)
        assert res.is_ne is None
        assert res.iterations <= 30


def reference_interference_run(net, memory_len, costs, max_iter, seed, mode):
    """Interference mode without fixed-point reuse: every round refreshes
    the noise from the floor `net.noise` and builds a fresh Evaluator on
    `net` with the new reports; rounds use `reference_step`."""
    state = init_state(net, memory_len, costs, seed)
    ev = Evaluator(net, mode)
    mechanism._record(state, ev)
    first_ne = None
    while state.iteration < max_iter and state.stable < memory_len:
        allocs = {w: solve_cell(net, w, members(mask), ev.reports,
                                mode.strategy)
                  for w, mask in enumerate(cells_of(net, state.profile))
                  if mask}
        noise = update_interference_noise(net, state.profile, allocs)
        ev = Evaluator(net, mode, net.gain / noise)
        if not any(reference_step(net, state, mode, ev)) and first_ne is None:
            first_ne = state.iteration - 1
        mechanism._record(state, ev)
    return RunResult(profile=state.profile, trace=state.trace,
                     converged=state.stable >= memory_len,
                     iterations=state.iteration, first_ne_round=first_ne)


class _Counts:
    """Evaluators built, the instances they were built on, and refresh
    solves made by `mechanism.run`."""

    def __init__(self, monkeypatch):
        self.evaluators = self.solves = self.refreshes = 0
        self.nets = []
        counts = self

        class CountingEvaluator(Evaluator):
            def __init__(self, net, *args, **kwargs):
                counts.evaluators += 1
                counts.nets.append(net)
                super().__init__(net, *args, **kwargs)

        def counting_solve(*args, **kwargs):
            counts.solves += 1
            return solve_cell(*args, **kwargs)

        def counting_refresh(*args, **kwargs):
            counts.refreshes += 1
            return update_interference_noise(*args, **kwargs)

        monkeypatch.setattr(mechanism, "Evaluator", CountingEvaluator)
        monkeypatch.setattr(assoc_game, "Evaluator", CountingEvaluator)
        monkeypatch.setattr(mechanism, "solve_cell", counting_solve)
        monkeypatch.setattr(mechanism, "update_interference_noise",
                            counting_refresh)


class TestInterferenceFixedPoints:
    @pytest.mark.parametrize("strategy", [CA, CAPA])
    def test_run_matches_reference_loop(self, strategy, monkeypatch):
        """Same results and traces as a fresh Evaluator and a refresh every
        round, on N=10/W=8/K=64 instances; the reuse path is taken."""
        counts = _Counts(monkeypatch)
        mode = GameMode(strategy=strategy)
        built = rounds = 0
        for j in range(20):
            cfg = ScenarioConfig(num_users=10, num_bss=8, num_channels=64,
                                 distribution_factor=(0.2, 0.5, 0.8)[j % 3],
                                 seed=1000 + j)
            net = generate(cfg)
            counts.evaluators = 0
            res = run(net, 4, 0.0, 30, seed=j, mode=mode, interference=True)
            built += counts.evaluators
            rounds += res.iterations
            assert res == reference_interference_run(net, 4, 0.0, 30, j, mode)
        assert built < rounds + 20

    def test_run_builds_every_evaluator_on_the_callers_net(self, monkeypatch):
        """An interference round is a set of reports: each new Evaluator is
        of the caller's own instance, and `net.noise` stays the same
        object, not a copy written by the refresh."""
        counts = _Counts(monkeypatch)
        net = generate(ScenarioConfig(num_users=10, num_bss=8, num_channels=64,
                                      seed=1000))
        noise = net.noise
        res = run(net, 4, 0.0, 30, seed=0, interference=True)
        assert res.iterations > 1 and counts.evaluators > 1
        assert all(built is net for built in counts.nets)
        assert net.noise is noise

    def test_fixed_point_reuses_evaluator_and_skips_refresh(self, monkeypatch):
        """Zero cross gains: the first refresh leaves the noise equal, so
        the run keeps its one Evaluator and, once the profile stops
        changing, makes no more refresh solves."""
        gain = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 3.0],
                         [0.5, 1.5, 0.0, 0.0]])
        net = NetworkInstance(gain=gain, noise=np.ones((3, 4)),
                              channels_of_bs=[np.arange(2), np.arange(2, 4)],
                              budget=np.ones(2), weight=np.ones(2),
                              bandwidth=np.ones(2), tau=1.0)
        counts = _Counts(monkeypatch)
        res = run(net, 3, 0.0, 30, seed=1, interference=True)
        assert res.converged and res.iterations == 3
        assert (counts.evaluators, counts.refreshes, counts.solves) == (1, 1, 2)
        assert res == reference_interference_run(net, 3, 0.0, 30, 1, GameMode())


def fresh_evaluator_run(net, memory_len, costs, max_iter, seed, mode):
    """`run` as a hand loop that builds a fresh Evaluator for every step and
    every trace record, so no round can reuse an earlier round's answers."""
    state = init_state(net, memory_len, costs, seed)
    trace = []

    def record():
        ev = Evaluator(net, mode)
        per_bs = tuple(ev.cell(w, s).value
                       for w, s in enumerate(cells_of(net, state.profile)))
        trace.append(TraceRecord(state.iteration, state.profile,
                                 float(sum(per_bs)), per_bs))

    record()
    first_ne = None
    while state.iteration < max_iter and state.stable < memory_len:
        if not any(step(net, state, mode, Evaluator(net, mode))) and first_ne is None:
            first_ne = state.iteration - 1
        record()
    converged = state.stable >= memory_len
    return RunResult(profile=state.profile, trace=trace, converged=converged,
                     iterations=state.iteration,
                     is_ne=is_ne(net, state.profile, mode) if converged else None,
                     first_ne_round=first_ne)


def _count_better_replies(monkeypatch):
    calls = []

    def counting(net, a, *args, **kwargs):
        calls.append(a)
        return assoc_game.better_reply_set(net, a, *args, **kwargs)

    monkeypatch.setattr(mechanism, "better_reply_set", counting)
    return calls


class TestRoundMemo:
    @pytest.mark.parametrize("taxed", [True, False])
    @pytest.mark.parametrize("strategy", [CA, CAPA])
    def test_run_equals_fresh_evaluator_loop(self, strategy, taxed):
        """The same result, every trace record included, as a loop that
        can never reuse a round, with zero and nonzero switching costs."""
        rng = np.random.default_rng(31)
        mode = GameMode(strategy=strategy, taxed=taxed)
        for j in range(16):
            if j % 4 == 3:
                net = generate(ScenarioConfig(
                    num_users=6, num_bss=4, num_channels=32,
                    distribution_factor=0.5, seed=int(rng.integers(10 ** 6))))
            else:
                net = random_network(rng, n_users=int(rng.integers(2, 6)),
                                     n_bss=int(rng.integers(2, 4)))
            costs = (0.0 if j % 2 else
                     rng.choice([0.0, 0.01, 0.3], size=net.num_users))
            m = int(rng.integers(1, net.num_users + 2))
            seed = int(rng.integers(10 ** 6))
            assert run(net, m, costs, 300, seed, mode=mode) == \
                fresh_evaluator_run(net, m, costs, 300, seed, mode)

    def test_one_better_reply_query_per_distinct_profile(self, monkeypatch):
        """On one Evaluator, `step` asks `better_reply_set` once for each
        profile the run starts a round from, however often it returns."""
        calls = _count_better_replies(monkeypatch)
        rng = np.random.default_rng(5)
        rounds = queries = 0
        for _ in range(10):
            net = random_network(rng, n_users=5, n_bss=3)
            del calls[:]
            res = run(net, 5, 0.0, 300, seed=int(rng.integers(10 ** 6)))
            visited = [rec.profile for rec in res.trace[:-1]]
            assert sorted(calls) == sorted(set(visited))
            rounds += res.iterations
            queries += len(calls)
        assert 2 * queries < rounds

    def test_runs_sharing_an_evaluator_ask_only_for_new_profiles(
            self, monkeypatch):
        """A second run on the same Evaluator and costs asks
        `better_reply_set` only for the profiles the first run did not
        start a round from, and ends as a run on a fresh Evaluator."""
        calls = _count_better_replies(monkeypatch)
        rng = np.random.default_rng(8)
        reused = 0
        for _ in range(10):
            net = random_network(rng, n_users=5, n_bss=3)
            ev = Evaluator(net, GameMode())
            seeds = rng.integers(10 ** 6, size=2).tolist()
            first = run(net, 5, 0.0, 300, seeds[0], evaluator=ev)
            del calls[:]
            second = run(net, 5, 0.0, 300, seeds[1], evaluator=ev)
            seen = {rec.profile for rec in first.trace[:-1]}
            visited = {rec.profile for rec in second.trace[:-1]}
            assert sorted(calls) == sorted(visited - seen)
            assert second == run(net, 5, 0.0, 300, seeds[1])
            reused += len(visited & seen)
        assert reused > 0

    def test_new_evaluator_or_costs_ask_again(self, monkeypatch):
        """Another Evaluator object, or changed costs, ask again: the
        replies are kept per Evaluator and costs, and the same Evaluator
        and costs reuse them."""
        calls = _count_better_replies(monkeypatch)
        net = positioned_network()
        mode = GameMode()
        state = init_state(net, 3, math.inf, seed=1)   # nobody moves
        start = state.profile
        ev = Evaluator(net, mode)
        for _ in range(3):
            step(net, state, mode, ev)
        assert len(calls) == 1
        step(net, state, mode, Evaluator(net, mode))
        step(net, state, mode)
        state.costs[0] = 1e9
        step(net, state, mode, ev)
        step(net, state, mode, ev)
        assert calls == [start] * 4 and state.profile == start


COSTS = (0.0, 0.0, 0.05, 0.5, math.inf)
EVENT_KINDS = ("step", "step", "step", "add", "remove", "regenerate",
               "cost", "reports")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1),
       strategy=st.sampled_from([CA, CAPA]), taxed=st.booleans(),
       ops=st.lists(st.tuples(st.sampled_from(EVENT_KINDS),
                              st.integers(0, 2 ** 31 - 1)),
                    min_size=1, max_size=30))
@example(seed=0, strategy=CAPA, taxed=True,          # costs change in place
         ops=[("step", 3), ("step", 3), ("cost", 0), ("step", 3)])
@example(seed=0, strategy=CAPA, taxed=True,          # another Evaluator
         ops=[("step", 3), ("step", 3), ("reports", 0), ("step", 3)])
def test_event_sequences_stay_aligned_and_exact(seed, strategy, taxed, ops):
    """Random steps between arrivals, departures, channel redraws,
    in-place cost changes and Evaluators on other reports: the profile,
    memories and costs keep one entry per user, and every step equals the
    same step on a deep copy of the state with nothing kept from earlier
    rounds."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_users=int(rng.integers(1, 5)),
                         n_bss=int(rng.integers(2, 4)))
    net.gain_mean = rng.uniform(0.2, 2.0, size=(net.num_users, net.num_bss))
    mode = GameMode(strategy=strategy, taxed=taxed)
    state = init_state(net, int(rng.integers(1, 4)),
                       rng.choice(COSTS, size=net.num_users), seed)
    ev = Evaluator(net, mode)
    for kind, x in ops:
        r = np.random.default_rng(x)
        n, k = net.num_users, net.num_channels
        if kind == "step":         # one to four rounds
            for _ in range(1 + x % 4):
                ref = copy.deepcopy(state)
                step(net, state, mode, ev)
                step(net, ref, mode, Evaluator(net, mode, ev.reports))
                assert _same_state(state, ref)
            continue
        if kind == "cost":
            state.costs[r.random(n) < 0.5] = r.choice(COSTS)
        elif kind == "reports":
            ev = Evaluator(net, mode,
                           net.normalized_gain() * r.exponential(size=(n, k)))
        else:
            if kind == "add":
                new = int(r.integers(0, 3))
                event = AddUsers(
                    gain=r.exponential(size=(new, k)), noise=np.ones((new, k)),
                    gain_mean=r.uniform(0.2, 2.0, (new, net.num_bss)),
                    costs=r.choice(COSTS, size=new))
            elif kind == "remove":
                event = RemoveUsers(r.choice(n, size=int(r.integers(0, n + 1)),
                                             replace=False).tolist())
            else:
                event = RegenerateChannels(seed=x)
            net = apply_event(net, state, event)
            ev = Evaluator(net, mode)
        assert (len(state.profile) == len(state.memories)
                == state.costs.shape[0] == net.num_users)
        assert all(0 <= w < net.num_bss for w in state.profile)
        assert all(0 <= w < net.num_bss for mem in state.memories for w in mem)


class TestWideMasks:
    """At N=72 the member bitmasks of the cells holding users 64..71 are
    wider than a machine int.  Values pinned before cells were keyed by
    bitmask."""

    NET = ScenarioConfig(num_users=72, num_bss=8, num_channels=64, seed=3,
                         distribution_factor=0.2)
    GREEDY0 = (1, 7, 1, 6, 3, 1, 1, 4, 1, 0, 1, 1, 7, 4, 1, 1, 4, 1, 1, 0, 7, 7,
               1, 0, 0, 3, 0, 0, 1, 6, 1, 7, 0, 0, 7, 4, 7, 1, 1, 5, 1, 4, 7, 1,
               6, 2, 7, 0, 6, 6, 1, 0, 1, 1, 1, 0, 1, 6, 4, 7, 7, 7, 0, 1, 1, 4,
               6, 1, 6, 1, 1, 1)
    DBSA = (1, 5, 5, 6, 3, 2, 2, 4, 2, 5, 5, 3, 7, 2, 2, 2, 2, 5, 2, 2, 2, 5, 5,
            2, 2, 3, 2, 5, 5, 3, 2, 5, 5, 0, 2, 5, 5, 5, 5, 5, 2, 5, 5, 5, 5, 2,
            5, 2, 2, 5, 5, 2, 2, 2, 2, 5, 5, 5, 2, 2, 2, 5, 2, 2, 2, 4, 5, 2, 2,
            2, 4, 5)

    def test_cells_and_better_replies(self):
        net, mode = generate(self.NET), GameMode()
        a = nearest_bs_profile(net)
        ev = Evaluator(net, mode)
        cells = cells_of(net, a)
        assert sum(ev.cell(w, s).value for w, s in enumerate(cells)) == \
            ev.system_value(a)
        replies = assoc_game.better_reply_set(net, a, mode, ev)
        ref = Evaluator(net, mode)
        assert replies == [ref_better_reply_set(net, a, i, mode, ref)
                           for i in range(net.num_users)]
        assert replies[64:] == [[2, 4, 5], [2, 4, 5], [2, 5], [2, 5],
                                [2, 3, 5], [2, 5], [2, 4, 5], [2, 5]]

    def test_greedy0_and_run(self):
        net = generate(self.NET)
        res = greedy0(net)
        assert (res.profile, res.throughput, res.evaluations) == (
            self.GREEDY0, 1481938.4247047317, 2521)
        res = run(net, 3, 0.0, 300, 3)
        assert (res.profile, res.iterations, res.converged, res.is_ne) == (
            self.DBSA, 7, True, True)
        assert [rec.throughput for rec in res.trace] == [
            1016635.6304097227, 1224941.7166807817] + [1302265.9737856174] * 2 + [
            1481938.4247047317] * 4
