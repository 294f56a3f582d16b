import copy
import hashlib
import itertools
import json
import math
import warnings
from collections import deque

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import random_network
from ofdma_assoc import mechanism, sim_cli
from ofdma_assoc.net_model import (InvalidArgumentError, NetworkInstance,
                                   SatInstance, ScenarioConfig, _indoor_positions,
                                   _split_channels, capacity_gap,
                                   dbm_to_watts, generate,
                                   inject_estimation_error, reduce_3sat)


class TestCapacityGap:
    def test_closed_form(self):
        assert capacity_gap(1.0 / (5.0 * math.e)) == pytest.approx(2.0 / 3.0)
        assert capacity_gap(1e-6) == pytest.approx(-math.log(5e-6) / 1.5)
        assert capacity_gap(1e-6) == pytest.approx(8.1374, abs=1e-3)

    def test_monotone_in_ber(self):
        bers = np.logspace(-9, -2, 30)
        gaps = [capacity_gap(b) for b in bers]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("ber", [0.0, -1e-3, 0.2, 0.5, 1.0])
    def test_out_of_domain(self, ber):
        with pytest.raises(InvalidArgumentError):
            capacity_gap(ber)


def test_dbm_to_watts():
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert dbm_to_watts(23.0) == pytest.approx(0.19953, abs=1e-4)


class TestNetworkInstance:
    def test_valid_instance(self, rng):
        net = random_network(rng)
        assert net.num_users >= 1
        owner = net.bs_of_channel()
        for w, chans in enumerate(net.channels_of_bs):
            assert (owner[chans] == w).all()

    def test_overlapping_channels_rejected(self):
        with pytest.raises(InvalidArgumentError):
            NetworkInstance(gain=np.ones((1, 2)), noise=np.ones((1, 2)),
                            channels_of_bs=[np.array([0, 1]), np.array([1])],
                            budget=np.ones(2), weight=np.ones(2),
                            bandwidth=np.ones(2), tau=1.0)

    def test_partition_must_cover(self):
        with pytest.raises(InvalidArgumentError):
            NetworkInstance(gain=np.ones((1, 3)), noise=np.ones((1, 3)),
                            channels_of_bs=[np.array([0, 1])],
                            budget=np.ones(1), weight=np.ones(1),
                            bandwidth=np.ones(1), tau=1.0)

    @pytest.mark.parametrize("field,value", [
        ("gain", -1.0), ("noise", 0.0), ("budget", 0.0), ("tau", 0.5),
        ("budget", math.nan), ("weight", -1.0), ("weight", math.nan),
        ("bandwidth", -1.0), ("bandwidth", math.nan), ("tau", math.nan),
        ("gain", math.nan), ("gain", math.inf), ("noise", math.nan),
        ("budget", math.inf), ("weight", math.inf), ("bandwidth", math.inf),
    ])
    def test_invalid_numbers_rejected(self, rng, field, value):
        net = random_network(rng)
        kwargs = dict(gain=net.gain, noise=net.noise,
                      channels_of_bs=net.channels_of_bs, budget=net.budget,
                      weight=net.weight, bandwidth=net.bandwidth, tau=net.tau)
        if field == "tau":
            kwargs["tau"] = value
        else:
            arr = kwargs[field].copy()
            arr.flat[0] = value
            kwargs[field] = arr
        with pytest.raises(InvalidArgumentError):
            NetworkInstance(**kwargs)

    def test_zero_bandwidth_allowed(self, rng):
        net = random_network(rng, n_bss=2)
        NetworkInstance(gain=net.gain, noise=net.noise,
                        channels_of_bs=net.channels_of_bs, budget=net.budget,
                        weight=net.weight, bandwidth=[0.0, 1.0], tau=net.tau)

    def test_json_round_trip(self, rng):
        net = random_network(rng)
        back = NetworkInstance.from_json(net.to_json())
        assert np.array_equal(back.gain, net.gain)
        assert np.array_equal(back.noise, net.noise)
        assert back.tau == net.tau
        assert len(back.channels_of_bs) == len(net.channels_of_bs)

    def test_loads_a_file_with_a_second_noise_table(self):
        """Instance files once carried the noise floor a second time, as
        `thermal_noise`; such a file loads, and writes back without it."""
        old = (
            '{"bandwidth": [40000000.0, 40000000.0], "bs_pos": [[0.0, 0.0], '
            '[2.8, 0.0]], "budget": [0.19952623149688797, 0.19952623149688797], '
            '"channels_of_bs": [[0, 1], [2, 3]], "gain": [[5.336411204647103e-14, '
            '6.588467830641961e-14, 1.8220872979655663e-16, 1.0365598411220744e-15], '
            '[7.829312758941767e-15, 6.654638348271323e-15, 8.127274004150456e-16, '
            '9.419563673047328e-16]], "gain_mean": [[3.1550678331628056e-14, '
            '1.1377524046536617e-14], [7.553906406265877e-15, 2.106250173992797e-16]], '
            '"noise": [[4e-06, 4e-06, 4e-06, 4e-06], [4e-06, 4e-06, 4e-06, 4e-06]], '
            '"tau": 8.137381763686783, "thermal_noise": [[4e-06, 4e-06, 4e-06, 4e-06], '
            '[4e-06, 4e-06, 4e-06, 4e-06]], "user_pos": [[0.3891822482724945, '
            '-1.165928165044099], [-1.7775019420975418, -1.0088727284423264]], '
            '"weight": [1.0, 1.0]}')
        payload = json.loads(old)
        del payload["thermal_noise"]
        net = NetworkInstance.from_json(old)
        assert not hasattr(net, "thermal_noise")
        assert net.to_json() == json.dumps(payload, sort_keys=True)

    def test_unknown_key_rejected(self):
        """A misspelt key loaded as a missing field: `user_poss` gave
        `user_pos=None`."""
        payload = json.loads(_generated().to_json())
        payload["user_poss"] = payload.pop("user_pos")
        with pytest.raises(InvalidArgumentError, match="user_poss"):
            NetworkInstance.from_json(json.dumps(payload))

    @pytest.mark.parametrize("key", ["gain", "noise", "channels_of_bs",
                                     "budget", "weight", "bandwidth", "tau"])
    def test_missing_key_rejected(self, key):
        """A missing required key raised a bare `KeyError`."""
        payload = json.loads(_generated().to_json())
        del payload[key]
        with pytest.raises(InvalidArgumentError, match=key):
            NetworkInstance.from_json(json.dumps(payload))

    def test_overflowing_normalized_gain_rejected(self):
        """Finite gains over positive noise whose quotient overflows built,
        and only the first `Evaluator` on the instance failed."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="finite"):
                NetworkInstance(gain=[[1e300, 1.0]], noise=[[1e-10, 1.0]],
                                channels_of_bs=[[0], [1]], budget=np.ones(2),
                                weight=np.ones(2), bandwidth=np.ones(2),
                                tau=1.0)

    def test_normalized_gain(self, rng):
        net = random_network(rng)
        net.noise = np.full_like(net.noise, 2.0)
        assert np.allclose(net.normalized_gain(), net.gain / 2.0)


class TestScenarioConfig:
    def test_json_round_trip(self):
        cfg = ScenarioConfig(mode="outdoor", num_users=7, seed=3,
                             distribution_factor=0.2)
        assert ScenarioConfig.from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize("d", [-0.1, 1.5])
    def test_bad_distribution_factor(self, d):
        with pytest.raises(InvalidArgumentError):
            ScenarioConfig(distribution_factor=d)

    def test_unknown_multipath_profile_rejected(self):
        """The outdoor generator draws PedA only; another name is an error,
        not a silently ignored field."""
        with pytest.raises(InvalidArgumentError):
            ScenarioConfig(mode="outdoor", multipath_profile="veha")

    @pytest.mark.parametrize("text", ['{"mode": "explicit"}', '{"mode": "Indoor"}'])
    def test_unknown_mode_rejected_when_read(self, text):
        """A bad mode fails when the config is read, not at its first
        `generate`."""
        with pytest.raises(InvalidArgumentError, match="mode"):
            ScenarioConfig.from_json(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidArgumentError, match="fading"):
            ScenarioConfig.from_json('{"num_users": 3, "fading": "rayleigh"}')

    @pytest.mark.parametrize("key, value, argv", [
        ("num_users", -1, ["generate", "--users", "-1"]),
        ("num_bss", 0, ["run", "--seed", "1", "--bss", "0"]),
        ("num_channels", 0, ["generate", "--channels", "0"]),
    ])
    def test_bad_size_rejected(self, key, value, argv):
        """A size that no scenario can have fails when the config is made,
        from the constructor, a dict or the command line."""
        with pytest.raises(InvalidArgumentError, match=key):
            ScenarioConfig(**{key: value})
        with pytest.raises(InvalidArgumentError, match=key):
            ScenarioConfig.from_dict({key: value})
        with pytest.raises(InvalidArgumentError, match=key):
            sim_cli.main(argv)


class TestIndoorScenario:
    def test_determinism(self):
        cfg = ScenarioConfig(num_users=12, num_bss=4, num_channels=16, seed=9)
        a, b = generate(cfg), generate(cfg)
        assert np.array_equal(a.gain, b.gain)
        assert np.array_equal(a.user_pos, b.user_pos)

    def test_hotspot_placement_d0(self):
        """D=0: every user in the central quarter, every BS on the border."""
        cfg = ScenarioConfig(num_users=40, num_bss=8, num_channels=16,
                             distribution_factor=0.0, seed=5)
        net = generate(cfg)
        a = cfg.area_m
        assert (net.user_pos >= a / 4).all() and (net.user_pos <= 3 * a / 4).all()
        on_border = np.isclose(net.bs_pos, 0.0) | np.isclose(net.bs_pos, a)
        assert on_border.any(axis=1).all()

    def test_uniform_placement_d1(self):
        cfg = ScenarioConfig(num_users=200, num_bss=4, num_channels=16,
                             distribution_factor=1.0, seed=5)
        net = generate(cfg)
        # uniform draws should land outside the central quarter often
        outside = ((net.user_pos < cfg.area_m / 4) |
                   (net.user_pos > 3 * cfg.area_m / 4)).any(axis=1)
        assert outside.mean() > 0.5

    def test_channel_gains_exponential(self):
        """KS test of per-channel gains (scaled by their link mean) against
        Exp(1), 1% level over 10^4 samples."""
        cfg = ScenarioConfig(num_users=100, num_bss=1, num_channels=128,
                             seed=11)
        net = generate(cfg)
        samples = (net.gain / net.gain_mean[:, [0]]).ravel()
        n = samples.size
        assert n >= 10 ** 4
        xs = np.sort(samples)
        cdf = 1.0 - np.exp(-xs)
        d_plus = (np.arange(1, n + 1) / n - cdf).max()
        d_minus = (cdf - np.arange(0, n) / n).max()
        ks = max(d_plus, d_minus)
        assert ks < 1.63 / math.sqrt(n)   # 1% critical value

    def test_physical_parameters(self):
        cfg = ScenarioConfig(num_users=5, num_bss=2, num_channels=8, seed=1)
        net = generate(cfg)
        df = cfg.total_bandwidth_hz / cfg.num_channels
        assert np.allclose(net.bandwidth, df)
        assert np.allclose(net.budget, dbm_to_watts(23.0))
        assert np.allclose(net.noise, dbm_to_watts(-100.0) * df)
        assert net.tau == pytest.approx(capacity_gap(1e-6))


class TestOutdoorScenario:
    def test_layout_and_blocks(self):
        cfg = ScenarioConfig(mode="outdoor", num_users=6, num_bss=7,
                             num_channels=64, seed=2,
                             total_bandwidth_hz=10e6, power_dbm=49.0,
                             noise_psd_dbm_hz=-169.0)
        net = generate(cfg)
        assert net.num_bss == 7
        assert net.num_channels == 7 * 64
        d = np.linalg.norm(net.bs_pos[1:] - net.bs_pos[0], axis=1)
        assert np.allclose(d, cfg.bs_distance_km)
        assert all(len(c) == 64 for c in net.channels_of_bs)

    @pytest.mark.parametrize("num_bss", [0, 8, 9])
    def test_bs_count_outside_layout_rejected(self, num_bss):
        """0 BSs fails when the config is made, 8 or more at `generate`."""
        with pytest.raises(InvalidArgumentError):
            generate(ScenarioConfig(mode="outdoor", num_users=4,
                                    num_bss=num_bss, num_channels=16, seed=1))

    def test_determinism(self):
        cfg = ScenarioConfig(mode="outdoor", num_users=4, num_bss=7,
                             num_channels=16, seed=8)
        assert np.array_equal(generate(cfg).gain, generate(cfg).gain)


class TestGeneratorDigests:
    """Pin the generated instances themselves, not only their
    reproducibility, so that a refactor of a generator cannot change
    its values or the order of its random draws unnoticed."""

    @pytest.mark.parametrize("cfg, digest", [
        (ScenarioConfig(mode="indoor", num_users=6, num_bss=3,
                        num_channels=10, seed=11),
         "0ab532e8678c38d9440263daddfdaf985e8a0fbdeb5da59ec04f74a8af4618aa"),
        (ScenarioConfig(mode="outdoor", num_users=5, num_bss=7,
                        num_channels=8, seed=11),
         "dd67032ee39aef21d1d4b9110fad47c564a3865deab695720426de13e83991ae"),
    ], ids=["indoor", "outdoor"])
    def test_instance_json_digest(self, cfg, digest):
        payload = generate(cfg).to_json().encode("utf-8")
        assert hashlib.sha256(payload).hexdigest() == digest


def reference_indoor(cfg):
    """`gen_indoor` as a loop over BSs, with one `rng.exponential` call per
    BS and a dense noise table."""
    rng = np.random.default_rng(cfg.seed)
    user_pos, bs_pos = _indoor_positions(cfg, rng)
    chans = _split_channels(cfg.num_channels, cfg.num_bss)
    df = cfg.total_bandwidth_hz / cfg.num_channels
    n, w_cnt, k = cfg.num_users, cfg.num_bss, cfg.num_channels
    shadow_db = rng.normal(0.0, math.sqrt(cfg.shadowing_var_db2), size=(n, w_cnt))
    gain = np.zeros((n, k))
    gain_mean = np.zeros((n, w_cnt))
    for w in range(w_cnt):
        d = np.maximum(np.linalg.norm(user_pos - bs_pos[w], axis=1), 1.0)
        pl_db = cfg.pl1_db + 26.0 * np.log10(d) + 14.1
        sigma2 = 10.0 ** (shadow_db[:, w] / 10.0) / 10.0 ** (pl_db / 10.0)
        gain_mean[:, w] = sigma2
        gain[:, chans[w]] = rng.exponential(
            scale=sigma2[:, None], size=(n, len(chans[w])))
    return NetworkInstance(
        gain=gain, noise=np.full(gain.shape, dbm_to_watts(cfg.noise_psd_dbm_hz) * df),
        channels_of_bs=chans, budget=np.full(w_cnt, dbm_to_watts(cfg.power_dbm)),
        weight=np.ones(w_cnt), bandwidth=np.full(w_cnt, df),
        tau=capacity_gap(cfg.ber), user_pos=user_pos, bs_pos=bs_pos,
        gain_mean=gain_mean)


def reference_regenerate(net, seed):
    """The gains `RegenerateChannels(seed)` draws, as one call per BS."""
    rng = np.random.default_rng(seed)
    gain = np.zeros_like(net.gain)
    for w, chans in enumerate(net.channels_of_bs):
        gain[:, chans] = rng.exponential(scale=net.gain_mean[:, w][:, None],
                                         size=(net.num_users, len(chans)))
    return gain


class TestOnePassGenerator:
    def test_indoor_matches_reference_loop(self):
        """Same JSON text as the per-BS loop over N, W, K, D and seeds."""
        for n, w, k, d, seed in itertools.product(
                [1, 2, 6, 8, 10, 20], range(1, 9), [8, 24, 64],
                [0.0, 0.2, 0.5, 0.8, 1.0], range(2)):
            cfg = ScenarioConfig(num_users=n, num_bss=w, num_channels=k,
                                 distribution_factor=d, seed=seed)
            assert generate(cfg).to_json() == reference_indoor(cfg).to_json(), cfg

    def test_regenerated_channels_match_reference_loop(self, rng):
        """On generated instances and on hand-built ones whose BSs own
        shuffled, empty or single channels, and with no users."""
        nets = [generate(ScenarioConfig(num_users=n, num_bss=w, num_channels=k,
                                        seed=seed))
                for n, w, k, seed in [(10, 6, 64, 0), (7, 3, 10, 1), (1, 1, 1, 2),
                                      (0, 2, 4, 3)]]
        for blocks in ([3, 0, 2], [1, 4], [0, 1]):
            base = random_network(rng, n_users=int(rng.integers(0, 5)),
                                  n_bss=len(blocks), chans_per_bs=blocks)
            perm = rng.permutation(base.num_channels)
            nets.append(NetworkInstance(
                gain=base.gain, noise=base.noise,
                channels_of_bs=[perm[c] for c in base.channels_of_bs],
                budget=base.budget, weight=base.weight,
                bandwidth=base.bandwidth, tau=base.tau,
                gain_mean=rng.uniform(0.1, 2.0, (base.num_users, len(blocks)))))
        for j, net in enumerate(nets):
            n = net.num_users
            state = mechanism.MechanismState(
                profile=(0,) * n, memories=[deque(maxlen=2) for _ in range(n)],
                costs=np.zeros(n), memory_len=2, rng=np.random.default_rng(0))
            got = mechanism.apply_event(net, state, mechanism.RegenerateChannels(j))
            assert got.gain.tobytes() == reference_regenerate(net, j).tobytes()


def _generated(mode="indoor"):
    return generate(ScenarioConfig(mode=mode, num_users=8, num_bss=4,
                                   num_channels=32, seed=21))


class TestSharedNoiseFloor:
    @pytest.mark.parametrize("mode", ["indoor", "outdoor"])
    def test_one_read_only_buffer(self, mode):
        net = _generated(mode)
        assert not net.noise.flags.writeable
        assert net.noise.strides == (0, 0)
        assert net.noise.shape == net.gain.shape
        with pytest.raises(ValueError):
            net.noise[0, 0] = 1.0

    def test_deepcopy_materializes_one_table(self):
        net = _generated()
        dup = copy.deepcopy(net)
        assert dup.noise.flags.writeable and dup.noise.strides != (0, 0)
        assert dup.to_json() == net.to_json()

    def test_removing_users_keeps_one_row(self):
        """`RemoveUsers` made the floor a dense N x K table."""
        net = _generated()
        state = mechanism.init_state(net, 2, 0.0, 0)
        new = mechanism.apply_event(net, state, mechanism.RemoveUsers([0, 3]))
        assert new.noise.strides == (0, 0) and not new.noise.flags.writeable
        assert np.array_equal(new.noise, net.noise[[1, 2, 4, 5, 6, 7]])
        state = mechanism.init_state(new, 2, 0.0, 0)
        gone = mechanism.apply_event(new, state, mechanism.RemoveUsers(range(6)))
        assert gone.noise.shape == (0, net.num_channels)

    def test_library_calls_leave_the_instance_unchanged(self):
        """Each call works on a generated instance, and the instance keeps
        its arrays and their values."""
        net = _generated()
        text, noise = net.to_json(), net.noise
        res = mechanism.run(net, 3, 0.0, 30, seed=1, interference=True)
        assert len(res.trace) == res.iterations + 1
        events = [
            mechanism.AddUsers(gain=net.gain[:2], noise=net.noise[:2],
                               positions=net.user_pos[:2],
                               gain_mean=net.gain_mean[:2]),
            mechanism.RemoveUsers([0, 3]),
            mechanism.RegenerateChannels(5),
        ]
        for event in events:
            state = mechanism.init_state(net, 2, 0.0, 0)
            new = mechanism.apply_event(net, state, event)
            assert new is not net and new.noise.shape == new.gain.shape
            assert mechanism.run(new, 2, 0.0, 100, seed=2).trace
        copy.deepcopy(net)
        assert NetworkInstance.from_json(text).to_json() == text
        reports = inject_estimation_error(net, 0.0, np.random.default_rng(3))
        assert reports.flags.writeable and reports.shape == net.gain.shape
        assert net.to_json() == text
        assert net.noise is noise


class TestEstimationError:
    def test_infinite_cer_is_exact(self, rng):
        net = random_network(rng)
        rep = inject_estimation_error(net, math.inf, rng)
        assert np.array_equal(rep, net.normalized_gain())

    def test_error_variance_matches_cer(self):
        rng = np.random.default_rng(0)
        n, k, cer = 200, 50, 20.0
        gain = np.full((n, k), 4.0)
        net = NetworkInstance(gain=gain, noise=np.ones((n, k)),
                              channels_of_bs=[np.arange(k)],
                              budget=np.ones(1), weight=np.ones(1),
                              bandwidth=np.ones(1), tau=1.0)
        rep = inject_estimation_error(net, cer, rng)
        err = rep - net.normalized_gain()
        target_var = 4.0 / 10.0 ** (cer / 10.0)
        assert err.mean() == pytest.approx(0.0, abs=3 * math.sqrt(target_var / (n * k)))
        assert err.var() == pytest.approx(target_var, rel=0.05)

    @pytest.mark.parametrize("cer", [math.nan, -math.inf])
    def test_nan_and_minus_inf_rejected(self, rng, cer):
        """NaN gave all-NaN reports and -inf error-free ones."""
        with pytest.raises(InvalidArgumentError, match="channel error ratio"):
            inject_estimation_error(random_network(rng), cer, rng)

    def test_clamped_nonnegative(self, rng):
        net = random_network(rng, n_users=5)
        rep = inject_estimation_error(net, -10.0, rng)   # huge error
        assert (rep >= 0.0).all()


DIMACS = """c tiny formula
p cnf 2 2
1 -2 2 0
-1 2 2 0
"""


class TestSat:
    def test_from_dimacs(self):
        sat = SatInstance.from_dimacs(DIMACS)
        assert sat.num_vars == 2
        assert sat.clauses == [[(0, True), (1, False), (1, True)],
                               [(0, False), (1, True), (1, True)]]

    def test_satisfied_by(self):
        sat = SatInstance.from_dimacs(DIMACS)
        assert sat.is_satisfied_by([True, True])
        assert sat.is_satisfied_by([False, False])
        assert sat.satisfiable()

    def test_unsat_detection(self):
        clauses = [[(0, True)] * 3, [(0, False)] * 3]
        sat = SatInstance(num_vars=1, clauses=clauses)
        assert not sat.satisfiable()

    def test_clause_arity_enforced(self):
        with pytest.raises(InvalidArgumentError):
            SatInstance(num_vars=1, clauses=[[(0, True)]])


class TestReduction:
    def _gadget(self):
        sat = SatInstance(num_vars=2, clauses=[
            [(0, True), (1, True), (1, False)],
            [(0, False), (1, True), (0, True)],
        ])
        return sat, reduce_3sat(sat)

    def test_sizes(self):
        sat, (net, _) = self._gadget()
        m, q = sat.num_vars, len(sat.clauses)
        assert net.num_users == (2 * q + 1) * m
        assert net.num_bss == 2 * m + q
        assert net.num_channels == 2 * m * q + q
        assert np.array_equal(net.budget,
                              np.r_[np.full(2 * m, float(q)), np.ones(q)])

    def test_gain_alphabet(self):
        _, (net, _) = self._gadget()
        assert set(np.unique(net.gain)) <= {0.0, 1.0, 2.0, 3.0}

    def test_threshold_formula(self):
        sat, (_, thr) = self._gadget()
        m, q = sat.num_vars, len(sat.clauses)
        assert thr == pytest.approx(2 * m * q + m * q * math.log2(3) + q)

    def test_variable_gadget_cell_values(self):
        """Oracle for the gadget arithmetic: a variable BS is worth 2Q with
        its y-user alone and Q*log2(3) with its Q literal users; a clause BS
        serving one literal user is worth exactly 1."""
        from ofdma_assoc.assoc_game import Evaluator, GameMode
        sat, (net, _) = self._gadget()
        q = len(sat.clauses)
        ev = Evaluator(net, GameMode(strategy="CAPA"))
        y0 = 2 * q          # user index of y for variable 0
        xs = (1 << q) - 1                  # x-users 0..q-1 of variable 0
        assert ev.cell(0, 1 << y0).value == pytest.approx(2 * q)
        assert ev.cell(0, xs).value == pytest.approx(q * math.log2(3))
        # clause BS 0 with any of its gain-1 users
        clause_bs = 2 * sat.num_vars
        lit_user = next(i for i in range(net.num_users)
                        if net.gain[i, net.channels_of_bs[clause_bs][0]] == 1.0)
        assert ev.cell(clause_bs, 1 << lit_user).value == pytest.approx(1.0)


# -- JSON round trip over drawn instances -----------------------------------

NONNEG = st.floats(0.0, 1e6)
POSITIVE = st.floats(1e-6, 1e6)


@st.composite
def instances(draw):
    """Instances with 0-4 users and 1-3 BSs of 0-3 channels each; every
    optional per-user or per-BS table is either present or None."""
    n = draw(st.integers(0, 4))
    blocks = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    k, w = sum(blocks), len(blocks)
    edges = np.cumsum([0] + blocks)

    def table(rows, cols, elements):
        return np.array(draw(st.lists(st.lists(elements, min_size=cols, max_size=cols),
                                      min_size=rows, max_size=rows)),
                        dtype=float).reshape(rows, cols)

    def optional(rows, cols, elements):
        return table(rows, cols, elements) if draw(st.booleans()) else None

    return NetworkInstance(
        gain=table(n, k, NONNEG), noise=table(n, k, POSITIVE),
        channels_of_bs=[np.arange(a, b) for a, b in zip(edges, edges[1:])],
        budget=table(1, w, POSITIVE)[0], weight=table(1, w, NONNEG)[0],
        bandwidth=table(1, w, POSITIVE)[0], tau=draw(st.floats(1.0, 10.0)),
        user_pos=optional(n, 2, NONNEG), bs_pos=optional(w, 2, NONNEG),
        gain_mean=optional(n, w, NONNEG))


@settings(max_examples=200, deadline=None)
@given(instances())
def test_json_round_trip_keeps_every_field(net):
    back = NetworkInstance.from_json(net.to_json())
    for name in ("gain", "noise", "budget", "weight", "bandwidth", "user_pos",
                 "bs_pos", "gain_mean"):
        a, b = getattr(net, name), getattr(back, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert b.shape == a.shape and np.array_equal(a, b), name
    assert [c.tolist() for c in back.channels_of_bs] == [
        c.tolist() for c in net.channels_of_bs]
    assert back.tau == net.tau
