"""Every binding a benchmark workload must exercise resolves in the library.

`bench/run.py --trace 1` fails a workload (exit 3) when a binding in its
`traced_bindings` sees no call.  A binding `module.fn@binder` is the name
`fn` of `ofdma_assoc.<binder>` bound to `ofdma_assoc.<module>.fn`, so moving
an import breaks it; this test catches that without running the benchmark.
The bench sources are read and executed, never imported, so nothing is
written under `bench/`.
"""

import collections
import importlib
import pathlib

import pytest

from ofdma_assoc import assoc_game, mechanism, net_model

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _exec(name):
    path = BENCH / name
    ns = {"__name__": f"bench_{path.stem}"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), ns)
    return ns


WORKLOADS = _exec("workloads.py")["WORKLOADS"]
TRACING = _exec("tracing.py")
BINDINGS = sorted({b for wl in WORKLOADS.values() for b in wl.traced_bindings})


def test_every_workload_names_bindings():
    assert all(wl.traced_bindings for wl in WORKLOADS.values())


@pytest.mark.parametrize("binding", BINDINGS)
def test_binding_resolves(binding):
    key, _, binder = binding.partition("@")
    module, _, fn = key.rpartition(".")
    if binder == "Evaluator":
        assert module == "assoc_game.Evaluator"
        assert fn in TRACING["EVALUATOR_METHODS"]
        assert callable(getattr(assoc_game.Evaluator, fn, None))
    else:
        assert (module, fn) in TRACING["FUNCTIONS"]
        target = getattr(importlib.import_module(f"ofdma_assoc.{module}"), fn)
        bound = importlib.import_module(f"ofdma_assoc.{binder}")
        assert getattr(bound, fn, None) is target


@pytest.mark.parametrize("name", ["dbsa_indoor", "dbsa_interference"])
def test_run_calls_its_mechanism_bindings(name, monkeypatch):
    """`mechanism.run`, at the workload's sizes, calls every name that the
    workload requires of `ofdma_assoc.mechanism`, and `step` once per round,
    so that no saving inside the run leaves a required binding idle."""
    wl = WORKLOADS[name]
    required = {b.partition("@")[0].rpartition(".")[2]
                for b in wl.traced_bindings if b.endswith("@mechanism")}
    assert {"run", "step", "better_reply_set"} <= required
    calls = collections.Counter()
    for fn in required:
        def counted(*args, _fn=fn, _target=getattr(mechanism, fn), **kwargs):
            calls[_fn] += 1
            return _target(*args, **kwargs)

        monkeypatch.setattr(mechanism, fn, counted)
    net = net_model.generate(net_model.ScenarioConfig(
        num_users=wl.N, num_bss=wl.W, num_channels=wl.K, seed=3))
    res = mechanism.run(net, wl.sizes["memory"], 0.0, wl.MAX_ITER, seed=1,
                        interference=wl.sizes.get("interference", False))
    assert calls["step"] == res.iterations
    assert all(calls[fn] >= 1 for fn in required)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_op_calls_every_binding(name, monkeypatch, tmp_path):
    """Set-up and one seeded op of each workload call every binding of its
    `traced_bindings`, each counted at the name its binder holds (the
    module `ofdma_assoc.<binder>`, or the `Evaluator` class): a saving that
    leaves one idle, which the traced benchmark run refuses, fails here."""
    calls = collections.Counter()
    for binding in WORKLOADS[name].traced_bindings:
        key, _, binder = binding.partition("@")
        fn = key.rpartition(".")[2]
        owner = (assoc_game.Evaluator if binder == "Evaluator"
                 else importlib.import_module(f"ofdma_assoc.{binder}"))

        def counted(*args, _binding=binding, _target=getattr(owner, fn), **kwargs):
            calls[_binding] += 1
            return _target(*args, **kwargs)

        monkeypatch.setattr(owner, fn, counted)
    wl = WORKLOADS[name](7, str(tmp_path))
    try:
        wl.setup(0)
        wl.op(wl.prepare(0))
    finally:
        wl.close()
    assert [b for b in WORKLOADS[name].traced_bindings if not calls[b]] == []
