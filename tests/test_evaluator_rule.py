"""One rule for a shared Evaluator: every entry that takes `evaluator=`
resolves it through `assoc_game._eval`, which refuses an Evaluator of
another instance, strategy or `taxed` flag."""

import ast
import copy
import pathlib

import numpy as np
import pytest

from conftest import random_network
from ofdma_assoc import assoc_game, baselines, mechanism
from ofdma_assoc.assoc_game import Evaluator, GameMode
from ofdma_assoc.net_model import (InvalidArgumentError, NetworkInstance,
                                   ScenarioConfig, generate)
from ofdma_assoc.per_bs_alloc import CA, CAPA

PACKAGE = pathlib.Path(assoc_game.__file__).parent
MODE = GameMode()                 # CAPA, taxed: the game every entry is called in
NE = (0, 1)


def two_cell_network():
    """User 0 hears only BS 0 and user 1 only BS 1, so `NE` is a NE of
    every game on it."""
    return NetworkInstance(gain=np.array([[1.0, 2.0, 0.0, 0.0],
                                          [0.0, 0.0, 1.0, 3.0]]),
                           noise=np.ones((2, 4)),
                           channels_of_bs=[np.arange(2), np.arange(2, 4)],
                           budget=np.ones(2), weight=np.ones(2),
                           bandwidth=np.ones(2), tau=1.0)


ENTRIES = {
    "better_reply_set": lambda net, ev: assoc_game.better_reply_set(net, NE, MODE, ev),
    "is_ne": lambda net, ev: assoc_game.is_ne(net, NE, MODE, ev),
    "system_throughput": lambda net, ev: assoc_game.system_throughput(net, NE, CAPA, ev),
    "deviation_identity_check":
        lambda net, ev: assoc_game.deviation_identity_check(net, NE, 0, 1, MODE, ev),
    "enumerate_nes": lambda net, ev: assoc_game.enumerate_nes(net, MODE, ev),
    "efficiency_ratio": lambda net, ev: assoc_game.efficiency_ratio(net, NE, MODE, ev),
    "step": lambda net, ev: mechanism.step(net, mechanism.init_state(net, 2, 0.0, 1),
                                           MODE, ev),
    "run": lambda net, ev: mechanism.run(net, 2, 0.0, 10, 1, MODE, evaluator=ev),
    "nearest_bs": lambda net, ev: baselines.nearest_bs(net, CAPA, ev),
    "exhaustive_opt": lambda net, ev: baselines.exhaustive_opt(net, CAPA, ev),
    "greedy0": lambda net, ev: baselines.greedy0(net, CAPA, ev),
    "multi_connect_bound": lambda net, ev: baselines.multi_connect_bound(net, CAPA, ev),
}

MISMATCHES = {
    "net": lambda net: Evaluator(copy.deepcopy(net), MODE),   # equal, not the same
    "strategy": lambda net: Evaluator(net, GameMode(strategy=CA)),
    "taxed": lambda net: Evaluator(net, GameMode(taxed=False)),
}


@pytest.mark.parametrize("mismatch", MISMATCHES)
@pytest.mark.parametrize("entry", ENTRIES)
def test_shared_evaluator_rejected(entry, mismatch):
    net = two_cell_network()
    ENTRIES[entry](net, Evaluator(net, MODE))      # the game's own is taken
    with pytest.raises(InvalidArgumentError):
        ENTRIES[entry](net, MISMATCHES[mismatch](net))


def first_draw():
    """The first of a run of random instances with 2-5 users, 2-3 BSs and
    a tenth of the gains zero (`default_rng(5)`)."""
    rng = np.random.default_rng(5)
    return random_network(rng, n_users=int(rng.integers(2, 6)),
                          n_bss=int(rng.integers(2, 4)), zero_frac=0.1)


def test_enumerate_nes_refuses_an_untaxed_evaluator_in_the_taxed_game():
    """The potential screen holds only in the taxed game; read with an
    untaxed Evaluator, it dropped this instance's one untaxed CA NE."""
    net = first_draw()
    untaxed = GameMode(strategy=CA, taxed=False)
    assert len(assoc_game.enumerate_nes(net, untaxed, Evaluator(net, untaxed)).nes) == 1
    with pytest.raises(InvalidArgumentError):
        assoc_game.enumerate_nes(net, GameMode(strategy=CA), Evaluator(net, untaxed))


def test_exhaustive_opt_refuses_an_evaluator_of_the_other_strategy():
    """A CAPA Evaluator made the CA search return the CAPA optimum
    (4.7553 against 4.3716 here)."""
    net = first_draw()
    ca, capa = (baselines.exhaustive_opt(net, s).throughput for s in (CA, CAPA))
    assert capa > ca + 0.1
    with pytest.raises(InvalidArgumentError):
        baselines.exhaustive_opt(net, CA, Evaluator(net, GameMode(strategy=CAPA)))


def test_step_refuses_the_evaluator_of_the_instance_before_an_event():
    """An event returns a new instance; the old Evaluator would play the
    round on the old channels."""
    net = generate(ScenarioConfig(num_users=4, num_bss=2, num_channels=8, seed=3))
    state = mechanism.init_state(net, 2, 0.0, seed=1)
    ev = Evaluator(net, MODE)
    mechanism.step(net, state, MODE, ev)
    redrawn = mechanism.apply_event(net, state, mechanism.RegenerateChannels(seed=7))
    with pytest.raises(InvalidArgumentError):
        mechanism.step(redrawn, state, MODE, ev)
    mechanism.step(redrawn, state, MODE, Evaluator(redrawn, MODE))


def evaluator_entries(source: str):
    """Per function with an `evaluator` parameter, other than `_eval`,
    its name and whether it calls `_eval`."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef) or node.name == "_eval":
            continue
        args = node.args
        if any(a.arg == "evaluator"
               for a in args.posonlyargs + args.args + args.kwonlyargs):
            out[node.name] = any(isinstance(n, ast.Call)
                                 and isinstance(n.func, ast.Name)
                                 and n.func.id == "_eval"
                                 for n in ast.walk(node))
    return out


def test_detects_an_entry_skipping_eval():
    assert evaluator_entries(
        "def f(net, evaluator=None):\n    return evaluator\n"
        "def g(net, *, evaluator=None):\n    return _eval(net, 0, evaluator)\n"
    ) == {"f": False, "g": True}


def test_every_entry_resolves_through_eval():
    entries = {}
    for path in sorted(PACKAGE.glob("*.py")):
        entries.update(evaluator_entries(path.read_text(encoding="utf-8")))
    assert [name for name, calls in entries.items() if not calls] == []
    assert sorted(entries) == sorted(ENTRIES)      # each has its rule test
