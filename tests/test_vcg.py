import math

import numpy as np
import pytest

from conftest import random_network
from ofdma_assoc import fixtures
from ofdma_assoc.per_bs_alloc import (CA, CAPA, cells_of, members,
                                      realized_rates, reported_rates,
                                      solve_cell)
from ofdma_assoc.vcg import misreport_search, tax, utility


class TestTax:
    def test_worked_example(self):
        net = fixtures.example1_network()
        a = [0, 0]
        t1 = tax(net, a, 0, None, CA)
        assert t1 == pytest.approx((2 * math.log(1.5) + math.log(3)) - math.log(3),
                                   abs=1e-9)
        t2 = tax(net, a, 1, None, CA)
        assert t2 == pytest.approx(math.log(2), abs=1e-9)

    def test_single_user_pays_nothing(self, rng):
        for _ in range(20):
            net = random_network(rng, n_users=1)
            assert tax(net, [0], 0, None, CAPA) == 0.0

    @pytest.mark.parametrize("strategy", [CA, CAPA])
    def test_nonnegative_and_utility_bounded(self, rng, strategy):
        """Taxes are nonnegative and utilities sit in [0, alpha*rate] on
        random instances and profiles."""
        for _ in range(200):
            net = random_network(rng, zero_frac=0.1)
            a = [int(rng.integers(0, net.num_bss)) for _ in range(net.num_users)]
            i = int(rng.integers(0, net.num_users))
            out = utility(net, a, i, None, strategy)
            assert out.tax >= -1e-12
            assert -1e-12 <= out.utility <= net.weight[a[i]] * out.rate + 1e-12


class TestCellsOf:
    def test_partitions_users_by_bs(self, rng):
        net = random_network(rng, n_users=5, n_bss=4)
        cells = cells_of(net, [2, 0, 2, 1, 2])
        assert cells == (0b00010, 0b01000, 0b10101, 0)
        assert [members(m) for m in cells] == [[1], [3], [0, 2, 4], []]

    def test_members_of_a_mask_wider_than_64_bits(self):
        assert members((1 << 100) | (1 << 64) | (1 << 63) | 1) == [0, 63, 64, 100]


class TestUtility:
    def test_worked_example(self):
        net = fixtures.example1_network()
        out = utility(net, [0, 0], 0, None, CA)
        assert out.rate == pytest.approx(2 * math.log(3), abs=1e-9)
        assert out.utility == pytest.approx(2 * math.log(3) - 0.8109, abs=1e-3)
        assert out.utility == pytest.approx(out.rate - out.tax, abs=1e-12)

    def test_truthful_difference_identity(self, rng):
        """Truthful utility equals cell value with the user minus cell value
        without it."""
        for strategy in (CA, CAPA):
            for _ in range(100):
                net = random_network(rng, zero_frac=0.1)
                a = [int(rng.integers(0, net.num_bss))
                     for _ in range(net.num_users)]
                i = int(rng.integers(0, net.num_users))
                w = a[i]
                g = net.normalized_gain()

                def value(users):
                    if not users:
                        return 0.0
                    alloc = solve_cell(net, w, users, g, strategy)
                    return net.weight[w] * sum(
                        reported_rates(net, alloc).values())

                mask = cells_of(net, a)[w]
                expected = value(members(mask)) - value(members(mask & ~(1 << i)))
                got = utility(net, a, i, None, strategy).utility
                assert got == pytest.approx(expected, abs=1e-12)

    def test_misreport_hurts_the_liar(self):
        net = fixtures.example1_network()
        truthful = utility(net, [0, 0], 1, None, CA).utility
        reports = net.normalized_gain()
        reports[1] = [3.0, 3.0, 2.0]
        fabricated = utility(net, [0, 0], 1, reports, CA).utility
        assert fabricated <= truthful + 1e-12


class TestMisreportSearch:
    def test_example1_no_profitable_lie(self):
        net = fixtures.example1_network()
        rng = np.random.default_rng(1)
        for i in (0, 1):
            gain = misreport_search(net, [0, 0], i, CA, rng, trials=300)
            assert gain <= 1e-9

    @pytest.mark.parametrize("strategy", [CA, CAPA])
    def test_random_instances(self, rng, strategy):
        for _ in range(20):
            net = random_network(rng, zero_frac=0.1)
            a = [int(rng.integers(0, net.num_bss)) for _ in range(net.num_users)]
            i = int(rng.integers(0, net.num_users))
            assert misreport_search(net, a, i, strategy, rng, trials=100) <= 1e-9

    def test_truthful_cell_throughput_dominates(self, rng):
        """A fabricated report never raises the realized cell throughput."""
        for strategy in (CA, CAPA):
            for _ in range(50):
                net = random_network(rng, zero_frac=0.1)
                g = net.normalized_gain()
                users = list(range(net.num_users))
                w = int(rng.integers(0, net.num_bss))
                alloc = solve_cell(net, w, users, g, strategy)
                truthful = sum(realized_rates(net, alloc, users).values())
                fake = g.copy()
                i = int(rng.integers(0, net.num_users))
                fake[i] *= 10.0 ** rng.uniform(-2, 2, size=net.num_channels)
                alloc = solve_cell(net, w, users, fake, strategy)
                lied = sum(realized_rates(net, alloc, users).values())
                assert lied <= truthful + 1e-9
