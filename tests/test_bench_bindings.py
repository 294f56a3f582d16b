"""Every binding a benchmark workload must exercise resolves in the library.

`bench/run.py --trace 1` fails a workload (exit 3) when a binding in its
`traced_bindings` sees no call.  A binding `module.fn@binder` is the name
`fn` of `ofdma_assoc.<binder>` bound to `ofdma_assoc.<module>.fn`, so moving
an import breaks it; this test catches that without running the benchmark.
The bench sources are read and executed, never imported, so nothing is
written under `bench/`.
"""

import importlib
import pathlib

import pytest

from ofdma_assoc import assoc_game

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
