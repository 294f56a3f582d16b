"""The benchmark workloads behave as they did when their digests were taken.

Each workload's first five ops at seed 7 are run and verified as
`bench/run.py` does, and their digests joined into one SHA-256, which must
equal the recorded value.  A change that alters a mechanism trajectory, an
oracle's answer or a campaign output byte fails here without a benchmark
run.  The bench sources are read and executed, never imported, so nothing
is written under `bench/`; the campaign writes into a temporary directory.
"""

import hashlib
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
SEED = 7
OPS = 5
SETUP_REPS = 3                  # as in bench/run.py

DIGESTS = {
    "dbsa_indoor": "9654834f6c3452d8a9e5991607faabb4a31eaa5578cdbcf842403dc78fe389c8",
    "dbsa_interference": "81c705801e30da6319bb3b3f36237c27680136abd5d16a4a9407bc6684ea468d",
    "oracles": "1562ba7e2de65ad4b0cc0ede07d07a717c46dcbb169a2c3b84e9f2f1d01fce13",
    "campaign": "c0871e621fc0a1572208150ffb2ce73752cf30e033e4f11b0586bf46991c1064",
}


def _workloads():
    path = BENCH / "workloads.py"
    ns = {"__name__": f"bench_{path.stem}"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), ns)
    return ns["WORKLOADS"]


WORKLOADS = _workloads()


def test_every_workload_has_a_digest():
    assert set(WORKLOADS) == set(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_first_ops_digest(name, tmp_path):
    wl = WORKLOADS[name](SEED, str(tmp_path))
    try:
        wl.setup(SETUP_REPS)
        digests = []
        for j in range(OPS):
            inp = wl.prepare(j)
            digests.append(wl.verify(inp, wl.op(inp)))
    finally:
        wl.close()
    joined = hashlib.sha256("".join(digests).encode("ascii")).hexdigest()
    assert joined == DIGESTS[name]
