"""One rule for reports: every game entry reads its reports through
`NetworkInstance.reports`, which refuses anything but an (N, K) table of
finite, nonnegative entries.  The screens of `better_reply_set`,
`enumerate_nes` and `baselines.exhaustive_opt` rely on it."""

import ast
import math
import pathlib

import numpy as np
import pytest

from ofdma_assoc import assoc_game, baselines, vcg
from ofdma_assoc.assoc_game import Evaluator, GameMode
from ofdma_assoc.net_model import (InvalidArgumentError, NetworkInstance,
                                   ScenarioConfig, generate)
from ofdma_assoc.per_bs_alloc import CAPA

PACKAGE = pathlib.Path(assoc_game.__file__).parent
NET = generate(ScenarioConfig(num_users=4, num_bss=2, num_channels=8, seed=3))

READERS = {
    "Evaluator": lambda net, r: Evaluator(net, GameMode(), r).reports.tolist(),
    "vcg.utility": lambda net, r: vcg.utility(net, (0, 0, 1, 1), 1, r, CAPA),
    "vcg.tax": lambda net, r: vcg.tax(net, (0, 0, 1, 1), 1, r, CAPA),
    "candidate_bss": lambda net, r: baselines.candidate_bss(net, r),
}


def _entry(value):
    reports = NET.normalized_gain().copy()
    reports[1, 5] = value
    return reports


BAD = {
    "nan": lambda: _entry(math.nan),
    "inf": lambda: _entry(math.inf),
    "negative": lambda: _entry(-0.5),
    "narrow": lambda: NET.normalized_gain()[:, :-1],
    "wide": lambda: np.hstack([NET.normalized_gain(), np.ones((4, 1))]),
}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("reader", READERS)
def test_bad_reports_refused(reader, bad):
    READERS[reader](NET, NET.normalized_gain())    # good reports are taken
    with pytest.raises(InvalidArgumentError, match="reports"):
        READERS[reader](NET, BAD[bad]())


@pytest.mark.parametrize("reader", READERS)
def test_default_reports_are_the_true_gains(reader):
    assert repr(READERS[reader](NET, None)) == repr(
        READERS[reader](NET, NET.normalized_gain()))


def test_reports_are_read_as_floats():
    ev = Evaluator(NET, GameMode(), NET.normalized_gain().tolist())
    assert ev.reports.dtype == float
    assert np.array_equal(ev.reports, NET.normalized_gain())


def test_an_instance_without_users_builds_an_evaluator():
    net = NetworkInstance(gain=np.zeros((0, 3)), noise=np.ones((0, 3)),
                          channels_of_bs=[np.arange(2), np.array([2])],
                          budget=[1.0, 2.0], weight=[1.0, 1.0],
                          bandwidth=[1.0, 1.0], tau=1.0)
    ev = Evaluator(net, GameMode())
    assert ev.reports.shape == (0, 3)
    assert baselines.exhaustive_opt(net, CAPA, ev).profile == ()


def report_defaults(source: str):
    """Line numbers of the comparisons `reports is None` and
    `reports is not None` (a name or an attribute) in `source`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        left = node.left
        name = left.id if isinstance(left, ast.Name) else getattr(left, "attr", None)
        if (name == "reports"
                and all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and all(isinstance(c, ast.Constant) and c.value is None
                        for c in node.comparators)):
            out.append(node.lineno)
    return out


def test_detects_a_report_default():
    assert report_defaults(
        "def f(net, reports=None):\n"
        "    g = net.normalized_gain() if reports is None else reports\n"
        "    return self.reports is not None, reports == 0\n") == [2, 3]


def test_reports_default_only_in_net_model():
    found = {path.name: report_defaults(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, lines in found.items() if lines] == ["net_model.py"]
