"""Hard-coded regression fixtures: the two small worked networks used for
the documented CA/CAPA counterexamples, plus the assertion battery the
`verify` CLI subcommand runs."""

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from . import vcg
from .assoc_game import Evaluator, GameMode, better_reply_set, enumerate_nes
from .net_model import NetworkInstance
from .per_bs_alloc import CA, CAPA, realized_rates, solve_ca


def example1_network() -> NetworkInstance:
    """1 BS, 2 users, 3 channels, unit noise, tau=1, budget 3."""
    gain = np.array([[2.0, 2.0, 1.0],
                     [0.5, 0.5, 2.0]])
    return NetworkInstance(
        gain=gain, noise=np.ones((2, 3)),
        channels_of_bs=[np.arange(3)],
        budget=np.array([3.0]), weight=np.array([1.0]),
        bandwidth=np.array([1.0]), tau=1.0)


def example2_ca_network() -> NetworkInstance:
    """2 BSs x 2 channels, 3 users, budget 2 per BS; taxless CA game with no
    pure NE."""
    gain = np.array([[2.0, 0.1, 2.2, 0.1],
                     [0.5, 2.5, 0.1, 2.6],
                     [0.1, 2.4, 2.3, 0.2]])
    return NetworkInstance(
        gain=gain, noise=np.ones((3, 4)),
        channels_of_bs=[np.array([0, 1]), np.array([2, 3])],
        budget=np.array([2.0, 2.0]), weight=np.ones(2),
        bandwidth=np.ones(2), tau=1.0)


def example2_capa_network() -> NetworkInstance:
    """2 BSs x 2 channels, 3 users, budget 5 per BS; taxless CAPA game with
    no pure NE."""
    gain = np.array([[1 / 5, 1 / 5, 1 / 6.4, 1 / 11],
                     [1 / 6, 0.0, 0.0, 1 / 8],
                     [0.0, 1 / 4, 1 / 6, 0.0]])
    return NetworkInstance(
        gain=gain, noise=np.ones((3, 4)),
        channels_of_bs=[np.array([0, 1]), np.array([2, 3])],
        budget=np.array([5.0, 5.0]), weight=np.ones(2),
        bandwidth=np.ones(2), tau=1.0)


# one listed better-reply entry per profile: (profile, user, target BS)
EXAMPLE2_BR_TABLE = [
    ((0, 0, 0), 2, 1),
    ((0, 0, 1), 1, 1),
    ((0, 1, 1), 2, 0),
    ((0, 1, 0), 0, 1),
    ((1, 1, 0), 1, 0),
    ((1, 0, 0), 2, 1),
    ((1, 0, 1), 0, 0),
    ((1, 1, 1), 0, 0),
]

# The nominal CAPA better-reply table above is arithmetically inconsistent
# at this one profile: exact water-filling gives user 2 rate ln(15/8)
# staying put versus ln(11/6) after the listed move, so its better-reply
# set is actually empty and the profile is a pure NE of the taxless CAPA
# game.  (Robust: no column permutation of the gain table, no tau, and no
# budget rescaling removes the NE.)  Every other row checks out exactly.
EXAMPLE2_CAPA_DEVIANT_PROFILE = (1, 0, 0)
EXAMPLE2_CAPA_STAY_RATE = math.log(15.0 / 8.0)
EXAMPLE2_CAPA_MOVE_RATE = math.log(11.0 / 6.0)


@dataclass
class VerifyReport:
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self) -> List[str]:
        return [f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({d})" if d else "")
                for name, ok, d in self.checks]


def verify_examples() -> VerifyReport:
    """Run every fixture assertion; side-effect-free except the report."""
    rep = VerifyReport()
    net = example1_network()
    a = [0, 0]
    truthful = net.normalized_gain()

    alloc = solve_ca(net, 0, [0, 1], truthful)
    thr = sum(realized_rates(net, 0, alloc).values())
    rep.add("single-cell truthful CA throughput = 3 ln 3",
            abs(thr - 3 * math.log(3)) < 1e-9, f"{thr:.6f}")

    fabricated = truthful.copy()
    fabricated[1] = [3.0, 3.0, 2.0]
    alloc = solve_ca(net, 0, [0, 1], fabricated)
    rep.add("fabricated report captures all channels",
            all(int(u) == 1 for u in alloc.beta))
    realized = realized_rates(net, 0, alloc, [0, 1])
    total = sum(realized.values())
    rep.add("realized misreport throughput = 2 ln 1.5 + ln 3",
            abs(total - (2 * math.log(1.5) + math.log(3))) < 1e-9,
            f"{total:.6f}")
    rep.add("misreport costs ~42% of optimal throughput",
            abs(total / thr - 0.5794) < 5e-3, f"ratio {total / thr:.4f}")
    truthful_r2 = math.log(3)
    rep.add("misreporting user's own rate grows by > 70%",
            realized[1] / truthful_r2 - 1.0 > 0.70,
            f"+{100 * (realized[1] / truthful_r2 - 1):.1f}%")

    t1 = vcg.tax(net, a, 0, None, CA)
    rep.add("user-1 tax = 2 ln 1.5 + ln 3 - ln 3",
            abs(t1 - 2 * math.log(1.5)) < 1e-9, f"{t1:.6f}")
    u1 = vcg.utility(net, a, 0, None, CA)
    rep.add("user-1 utility = 2 ln 3 - tax",
            abs(u1.utility - (2 * math.log(3) - t1)) < 1e-9, f"{u1.utility:.6f}")
    t2 = vcg.tax(net, a, 1, None, CA)
    rep.add("user-2 tax = ln 2", abs(t2 - math.log(2)) < 1e-9, f"{t2:.6f}")

    net2 = example2_ca_network()
    mode = GameMode(strategy=CA, taxed=False)
    ev = Evaluator(net2, mode)
    res = enumerate_nes(net2, mode, ev)
    rep.add("taxless CA game has no pure NE", len(res.nes) == 0,
            f"{len(res.nes)} found")
    rep.add("taxless CA better-reply table matches all 8 rows",
            all(better_reply_set(net2, p, u, mode, ev) == [t]
                for p, u, t in EXAMPLE2_BR_TABLE))

    net3 = example2_capa_network()
    mode = GameMode(strategy=CAPA, taxed=False)
    ev = Evaluator(net3, mode)
    res = enumerate_nes(net3, mode, ev)
    deviant = EXAMPLE2_CAPA_DEVIANT_PROFILE
    rep.add("taxless CAPA better-reply table matches the 7 consistent rows",
            all(better_reply_set(net3, p, u, mode, ev) == [t]
                for p, u, t in EXAMPLE2_BR_TABLE if p != deviant))
    stay = ev.utility(deviant, 2)
    move = ev.move_utility(deviant, 2, 1)
    rep.add("deviant profile: staying beats the nominal move (ln 15/8 > ln 11/6)",
            abs(stay - EXAMPLE2_CAPA_STAY_RATE) < 1e-12
            and abs(move - EXAMPLE2_CAPA_MOVE_RATE) < 1e-12 and stay > move,
            f"{stay:.6f} > {move:.6f}")
    rep.add("taxless CAPA game's unique pure NE is the deviant profile",
            [p for p, _ in res.nes] == [deviant])
    return rep
