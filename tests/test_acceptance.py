"""Acceptance gate: one test per criterion, each printing a pass/fail line
with the stated tolerances and sizes.  The shared 200-instance suite backs
criteria 4, 5 and 12."""

import itertools
import math
import time

import numpy as np
import pytest

import conftest
from conftest import random_network
from ofdma_assoc import baselines, fixtures, mechanism
from ofdma_assoc.assoc_game import (Evaluator, GameMode, better_reply_set,
                                    deviation_identity_check, efficiency_ratio,
                                    enumerate_nes)
from ofdma_assoc.net_model import (SatInstance, ScenarioConfig, generate,
                                   inject_estimation_error, reduce_3sat)
from ofdma_assoc.per_bs_alloc import (CA, CAPA, cells_of, realized_rates,
                                      reported_rates, solve_ca, solve_capa,
                                      solve_cell)
from ofdma_assoc.sim_cli import Campaign, run_campaign, write_outputs
from ofdma_assoc.vcg import misreport_search, utility
from test_per_bs_alloc import oracle_power_search


def check(num, desc, cond, detail=""):
    verdict = "PASS" if cond else "FAIL"
    line = f"criterion {num:02d}: {verdict} - {desc}"
    if detail:
        line += f"  [{detail}]"
    conftest.ACCEPTANCE_REPORT.append(line)
    assert cond, line


@pytest.fixture(scope="module")
def suite200():
    """200 random small instances with taxed-game enumerations, shared by
    criteria 4, 5 and 12."""
    rng = np.random.default_rng(2024)
    suite = []
    for _ in range(200):
        net = random_network(rng, n_users=int(rng.integers(2, 6)),
                             n_bss=int(rng.integers(2, 4)), zero_frac=0.1)
        enums = {}
        for strategy in (CA, CAPA):
            mode = GameMode(strategy=strategy, taxed=True)
            ev = Evaluator(net, mode)
            enums[strategy] = (mode, ev, enumerate_nes(net, mode, ev))
        suite.append((net, enums))
    return suite


def test_criterion_01_example1_regression():
    t0 = time.perf_counter()
    net = fixtures.example1_network()
    g = net.normalized_gain()
    alloc = solve_ca(net, 0, [0, 1], g)
    truthful = sum(realized_rates(net, alloc, [0, 1]).values())
    ok = abs(truthful - 3 * math.log(3)) < 1e-3

    lied = g.copy()
    lied[1] = [3.0, 3.0, 2.0]
    alloc = solve_ca(net, 0, [0, 1], lied)
    rates = realized_rates(net, alloc, [0, 1])
    total = sum(rates.values())
    ok &= abs(total - (2 * math.log(1.5) + math.log(3))) < 1e-3
    ratio = total / truthful
    ok &= abs(ratio - 0.58) < 0.01
    gain = rates[1] / math.log(3) - 1.0
    ok &= gain > 0.70
    dt = time.perf_counter() - t0
    ok &= dt < 1.0
    check(1, "Example-1 regression (truthful 3ln3, misreport 2ln1.5+ln3, "
             "+-1e-3)", ok,
          f"truthful={truthful:.4f}, misreport={total:.4f}, "
          f"ratio={ratio:.3f}, user-2 gain=+{100 * gain:.1f}%, {dt:.2f}s")


def test_criterion_02_example2_ca_exact():
    t0 = time.perf_counter()
    net = fixtures.example2_ca_network()
    mode = GameMode(strategy=CA, taxed=False)
    ev = Evaluator(net, mode)
    no_ne = len(enumerate_nes(net, mode, ev).nes) == 0
    rows = all(better_reply_set(net, p, mode, ev)[u] == [t]
               for p, u, t in fixtures.EXAMPLE2_BR_TABLE)
    dt = time.perf_counter() - t0
    check(2, "Example-2 CA half: zero pure NEs and all 8 table rows exact",
          no_ne and rows and dt < 1.0, f"{dt:.2f}s")


@pytest.mark.xfail(
    strict=True,
    reason="the nominal CAPA better-reply table is arithmetically "
           "inconsistent at profile [2,1,1]: exact water-filling gives the "
           "staying rate ln(15/8) > ln(11/6) for the listed move, so the "
           "profile is a pure NE of the taxless CAPA game; see the "
           "characterization test below")
def test_criterion_02_example2_capa_nominal():
    net = fixtures.example2_capa_network()
    mode = GameMode(strategy=CAPA, taxed=False)
    ev = Evaluator(net, mode)
    no_ne = len(enumerate_nes(net, mode, ev).nes) == 0
    rows = all(better_reply_set(net, p, mode, ev)[u] == [t]
               for p, u, t in fixtures.EXAMPLE2_BR_TABLE)
    conftest.ACCEPTANCE_REPORT.append(
        "criterion 02: XFAIL - Example-2 CAPA half: nominal table "
        "unsatisfiable under exact arithmetic (deviation at profile "
        "[2,1,1]; documented)")
    assert no_ne and rows


def test_criterion_02_example2_capa_characterized():
    """Pins the exact-arithmetic behavior of the CAPA instance: 7 of 8 rows
    match, and the eighth profile is the game's unique pure NE."""
    net = fixtures.example2_capa_network()
    mode = GameMode(strategy=CAPA, taxed=False)
    ev = Evaluator(net, mode)
    deviant = fixtures.EXAMPLE2_CAPA_DEVIANT_PROFILE
    rows = all(better_reply_set(net, p, mode, ev)[u] == [t]
               for p, u, t in fixtures.EXAMPLE2_BR_TABLE if p != deviant)
    nes = [p for p, _ in enumerate_nes(net, mode, ev).nes]
    cells = cells_of(net, deviant)
    stay = ev.utility(deviant[2], cells[deviant[2]], 2)
    move = ev.move_utility(1, cells[1], 2)
    ok = (rows and nes == [deviant]
          and abs(stay - math.log(15 / 8)) < 1e-12
          and abs(move - math.log(11 / 6)) < 1e-12)
    check(2, "Example-2 CAPA half characterized: 7/8 rows exact, unique NE "
             "at the deviant profile", ok,
          f"stay={stay:.6f} > move={move:.6f}")


def test_criterion_03_utility_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    worst_tax, worst_lo, worst_hi = 0.0, 0.0, 0.0
    for _ in range(1000):
        net = random_network(rng, n_users=int(rng.integers(1, 6)),
                             n_bss=int(rng.integers(1, 4)), zero_frac=0.1)
        a = [int(rng.integers(0, net.num_bss)) for _ in range(net.num_users)]
        i = int(rng.integers(0, net.num_users))
        for strategy in (CA, CAPA):
            out = utility(net, a, i, None, strategy)
            worst_tax = min(worst_tax, out.tax)
            worst_lo = min(worst_lo, out.utility)
            worst_hi = max(worst_hi,
                           out.utility - net.weight[a[i]] * out.rate)
    dt = time.perf_counter() - t0
    ok = (worst_tax >= -1e-12 and worst_lo >= -1e-12 and worst_hi <= 1e-12
          and dt < 30.0)
    check(3, "utility bounds on 1000 random instances (T>=0, "
             "0<=U<=alpha*r, tol 1e-12)", ok,
          f"min tax={worst_tax:.2e}, min U={worst_lo:.2e}, "
          f"max U-ar={worst_hi:.2e}, {dt:.1f}s")


def test_criterion_04_optimum_is_ne(suite200):
    t0 = time.perf_counter()
    failures = 0
    for net, enums in suite200:
        for strategy in (CA, CAPA):
            _, _, res = enums[strategy]
            if res.optimum not in [p for p, _ in res.nes]:
                failures += 1
    dt = time.perf_counter() - t0
    check(4, "enumerated optimum is a taxed-game pure NE on 200 instances "
             "(CA and CAPA)", failures == 0 and dt < 60.0,
          f"{failures} failures, {dt:.1f}s")


def test_criterion_05_efficiency_bound(suite200):
    t0 = time.perf_counter()
    worst = 1.0
    count = 0
    for net, enums in suite200:
        for strategy in (CA, CAPA):
            mode, ev, res = enums[strategy]
            for ne, _ in res.nes:
                worst = min(worst, efficiency_ratio(net, ne, mode, ev, res))
                count += 1
    dt = time.perf_counter() - t0
    check(5, "every enumerated taxed NE has R(NE)/R(opt) >= 0.5 - 1e-9",
          worst >= 0.5 - 1e-9 and dt < 60.0,
          f"{count} NEs, min ratio={worst:.4f}, {dt:.1f}s")


def test_criterion_06_strategy_proofness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(66)
    worst = -math.inf
    for _ in range(100):
        net = random_network(rng, n_users=int(rng.integers(2, 5)),
                             n_bss=int(rng.integers(1, 3)), zero_frac=0.1)
        a = [int(rng.integers(0, net.num_bss)) for _ in range(net.num_users)]
        for i in range(net.num_users):
            for strategy in (CA, CAPA):
                gain = misreport_search(net, a, i, strategy, rng, trials=1000)
                worst = max(worst, gain)
    dt = time.perf_counter() - t0
    check(6, "no profitable misreport over 1000 samples per (instance, "
             "user), 100 instances, tol 1e-9", worst <= 1e-9 and dt < 120.0,
          f"max utility gain={worst:.2e}, {dt:.1f}s")


def test_criterion_07_submodularity_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_sub, worst_mono = -math.inf, -math.inf

    def value(net, w, users, g, strategy):
        if not users:
            return 0.0
        alloc = solve_cell(net, w, sorted(users), g, strategy)
        return net.weight[w] * sum(reported_rates(net, alloc).values())

    for strategy in (CA, CAPA):
        for _ in range(500):
            net = random_network(rng, zero_frac=0.15)
            g = net.normalized_gain()
            w = int(rng.integers(0, net.num_bss))
            g_set = {j for j in range(net.num_users) if rng.uniform() < 0.7}
            m_set = {j for j in g_set if rng.uniform() < 0.6}
            i = int(rng.integers(0, net.num_users))
            g_set.discard(i)
            m_set.discard(i)
            dm = value(net, w, m_set | {i}, g, strategy) - value(net, w, m_set, g, strategy)
            dg = value(net, w, g_set | {i}, g, strategy) - value(net, w, g_set, g, strategy)
            worst_sub = max(worst_sub, dg - dm)
            worst_mono = max(worst_mono, -dg)
    dt = time.perf_counter() - t0
    check(7, "submodularity and monotonicity of cell throughput, 500 draws "
             "per strategy, tol 1e-9",
          worst_sub <= 1e-9 and worst_mono <= 1e-9 and dt < 30.0,
          f"max submod violation={worst_sub:.2e}, "
          f"max mono violation={worst_mono:.2e}, {dt:.1f}s")


def test_criterion_08_deviation_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    worst = 0.0
    for k in range(500):
        strategy = CA if k % 2 == 0 else CAPA
        net = random_network(rng, n_bss=int(rng.integers(2, 4)),
                             zero_frac=0.1)
        a = [int(rng.integers(0, net.num_bss)) for _ in range(net.num_users)]
        i = int(rng.integers(0, net.num_users))
        w_new = int(rng.integers(0, net.num_bss))
        if w_new == a[i]:
            w_new = (w_new + 1) % net.num_bss
        resid = deviation_identity_check(net, a, i, w_new,
                                         GameMode(strategy=strategy))
        worst = max(worst, resid)
    dt = time.perf_counter() - t0
    check(8, "unilateral deviation identity |dU - dR| <= 1e-9 over 500 "
             "moves", worst <= 1e-9 and dt < 30.0,
          f"max residual={worst:.2e}, {dt:.1f}s")


def test_criterion_09_convergence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    converged = ne_ok = 0
    n_runs = 200
    for _ in range(n_runs):
        net = random_network(rng, n_users=int(rng.integers(2, 9)),
                             n_bss=int(rng.integers(2, 5)), zero_frac=0.1)
        res = mechanism.run(net, net.num_users, 0.0, 500,
                            seed=int(rng.integers(10 ** 9)))
        if res.converged:
            converged += 1
            if res.is_ne:
                ne_ok += 1
    dt = time.perf_counter() - t0
    check(9, "DBSA with M=N, c=0: 100% converge within 500 iterations and "
             "terminate at a NE (200 runs)",
          converged == n_runs and ne_ok == n_runs and dt < 300.0,
          f"{converged}/200 converged, {ne_ok}/200 NE, {dt:.1f}s")


def test_criterion_10_capa_vs_grid_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(200):
        net = random_network(rng, n_users=int(rng.integers(1, 4)),
                             n_bss=1, chans_per_bs=[int(rng.integers(1, 5))],
                             zero_frac=0.1)
        users = list(range(net.num_users))
        g = net.normalized_gain()
        alloc = solve_capa(net, 0, users, g)
        mine = sum(reported_rates(net, alloc).values())
        chans = net.channels_of_bs[0]
        best = 0.0
        for combo in itertools.product(users, repeat=len(chans)):
            inv = np.array([math.inf if g[u, k] == 0 else net.tau / g[u, k]
                            for u, k in zip(combo, chans)])
            if not np.isfinite(inv).any():
                continue
            val, _ = oracle_power_search(inv, float(net.budget[0]))
            best = max(best, val)
        worst = max(worst, best - mine)
    dt = time.perf_counter() - t0
    check(10, "solve_capa >= grid-search oracle - 1e-4 on 200 per-BS "
              "problems", worst <= 1e-4 and dt < 60.0,
          f"max shortfall={worst:.2e}, {dt:.1f}s")


def test_criterion_11_sat_reduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    sat_ok = 0
    n_sat = 20
    produced = 0
    while produced < n_sat:
        m = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        clauses = [[(int(rng.integers(0, m)), bool(rng.integers(0, 2)))
                    for _ in range(3)] for _ in range(q)]
        sat = SatInstance(num_vars=m, clauses=clauses)
        if not sat.satisfiable():
            continue
        produced += 1
        net, threshold = reduce_3sat(sat)
        opt = baselines.exhaustive_opt(net, CAPA).throughput
        # both the natural-log lower bound and the exact base-2 threshold
        # must hold for satisfiable formulas
        if (opt >= 2 * m * q + m * q * math.log(3) + q - 1e-6
                and opt >= threshold - 1e-6):
            sat_ok += 1

    unsat = SatInstance(num_vars=2, clauses=[
        [(0, True), (0, True), (1, True)],
        [(0, True), (1, False), (1, False)],
        [(0, False), (0, False), (1, True)],
        [(0, False), (1, False), (1, False)],
    ])
    assert not unsat.satisfiable()
    net, threshold = reduce_3sat(unsat)
    cands = baselines.candidate_bss(net)
    space = 1
    for c in cands:
        space *= len(c)
    opt_unsat = baselines.exhaustive_opt(net, CAPA).throughput
    unsat_ok = opt_unsat < threshold - 1e-6
    dt = time.perf_counter() - t0
    check(11, "SAT reduction separates: 20 satisfiable instances reach the "
              "threshold, crafted unsatisfiable (M=2, Q=4) stays below",
          sat_ok == n_sat and unsat_ok and space <= 2 ** 18 and dt < 600.0,
          f"{sat_ok}/20 satisfiable ok, unsat opt={opt_unsat:.4f} < "
          f"threshold={threshold:.4f}, pruned space={space}, {dt:.1f}s")


def test_criterion_12_baseline_ordering(suite200):
    t0 = time.perf_counter()
    order_fail = 0
    dbsa_wins = 0
    for idx, (net, enums) in enumerate(suite200):
        _, ev, _ = enums[CAPA]
        near = baselines.nearest_bs(net, CAPA, ev).throughput
        greedy = baselines.greedy0(net, CAPA, ev).throughput
        exh = baselines.exhaustive_opt(net, CAPA, ev).throughput
        bound = baselines.multi_connect_bound(net, CAPA, ev)
        if not (near <= greedy + 1e-9 and greedy <= exh + 1e-9
                and exh <= bound + 1e-9):
            order_fail += 1
        res = mechanism.run(net, net.num_users, 0.0, 500, seed=idx)
        if ev.system_value(res.profile) >= near - 1e-9:
            dbsa_wins += 1
    dt = time.perf_counter() - t0
    check(12, "nearest <= greedy0 <= exhaustive <= bound on all 200 "
              "instances; DBSA >= nearest on >= 95%",
          order_fail == 0 and dbsa_wins >= 190 and dt < 300.0,
          f"{order_fail} ordering failures, DBSA wins {dbsa_wins}/200, "
          f"{dt:.1f}s")


def test_criterion_13_trends():
    t0 = time.perf_counter()
    seeds = 50

    def mean_iters(d, cost):
        iters = []
        for s in range(seeds):
            cfg = ScenarioConfig(num_users=30, num_bss=8, num_channels=64,
                                 seed=s, distribution_factor=d)
            net = generate(cfg)
            res = mechanism.run(net, 30, cost, 4000, seed=s)
            iters.append(res.iterations if res.converged else 4000)
        return float(np.mean(iters))

    m02, m05, m08 = (mean_iters(d, 0.0) for d in (0.2, 0.5, 0.8))
    trend_d = m02 > m05 > m08

    m_cost = mean_iters(0.5, 5e4)
    trend_cost = m_cost < m05

    # CER degradation at reduced scale, same seeds for every CER point
    camp = Campaign(
        scenario=ScenarioConfig(num_users=10, num_bss=4, num_channels=64,
                                seed=0),
        algorithms=("dbsa",), d_values=(0.5,),
        cer_values=(math.inf, 0.0, -10.0), trials=30, base_seed=0,
        max_iter=2000)
    rows = run_campaign(camp)
    thr = {row.cer_db: float(np.mean(row.throughput["dbsa"])) for row in rows}
    trend_cer = thr[0.0] <= thr[math.inf] and thr[-10.0] <= thr[math.inf]

    # sigma = 0 (infinite CER) must match noiseless bit-exactly
    cfg = ScenarioConfig(num_users=10, num_bss=4, num_channels=64, seed=3)
    net = generate(cfg)
    rng = np.random.default_rng(99)
    exact = (inject_estimation_error(net, math.inf, rng)
             == net.normalized_gain()).all()

    dt = time.perf_counter() - t0
    check(13, "trends: iterations decrease in D; switching cost speeds "
              "convergence; estimation error degrades throughput; zero "
              "error is exact",
          trend_d and trend_cost and trend_cer and exact and dt < 900.0,
          f"iters D=.2/.5/.8: {m02:.0f}/{m05:.0f}/{m08:.0f}, "
          f"with cost: {m_cost:.0f}, thr inf/0/-10 dB: "
          f"{thr[math.inf]:.3e}/{thr[0.0]:.3e}/{thr[-10.0]:.3e}, {dt:.1f}s")


def test_criterion_14_determinism(tmp_path):
    t0 = time.perf_counter()
    camp = Campaign(
        scenario=ScenarioConfig(num_users=5, num_bss=2, num_channels=8,
                                seed=0),
        algorithms=("dbsa", "nearest", "greedy0", "exhaustive", "bound"),
        d_values=(0.2, 0.8), cost_values=(0.0, 1.0),
        trials=4, base_seed=42, max_iter=200)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    write_outputs(camp, run_campaign(camp), str(out1))
    write_outputs(camp, run_campaign(camp), str(out2))
    identical = True
    import os
    for name in sorted(os.listdir(out1)):
        with open(out1 / name, "rb") as f1, open(out2 / name, "rb") as f2:
            if f1.read() != f2.read():
                identical = False
    dt = time.perf_counter() - t0
    check(14, "repeated campaign runs emit byte-identical CSV/JSON",
          identical and dt < 60.0, f"{dt:.1f}s")
