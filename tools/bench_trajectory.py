"""Record the benchmark's per-layer trajectory at the repository root.

    python3 tools/bench_trajectory.py

Runs `bench/run.py --workload W --seed 7 --seconds 0 --trace 1` for each
workload of BENCHMARK.json and writes BENCH_L0.json ... BENCH_L4.json, one
file per layer of the library, each metric filed by its prefix:

    L0  per_bs_alloc.*, net_model.*          per-cell solvers, instances
    L1  assoc_game.* but enumerate_*          the memoized game layer
    L2  mechanism.*                           the DBSA loop
    L3  baselines.*, vcg.*, assoc_game.enumerate_*   oracles
    L4  sim_cli.*                             campaigns

A traced run does a fixed 100 ops, so its counts (every metric not in
seconds or per second) repeat exactly for a seed; they are kept apart from
the times, which drift from run to run.  Each file also holds the commit,
whether `src/` or `bench/` differ from it, the Python and numpy versions
and each workload's output digest.  `trace_overhead_frac` belongs to no
layer and is not recorded.
"""

import json
import os
import platform
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
LAYERS = {
    "L0": ("per_bs_alloc.", "net_model."),
    "L1": ("assoc_game.",),
    "L2": ("mechanism.",),
    "L3": ("baselines.", "vcg.", "assoc_game.enumerate_"),
    "L4": ("sim_cli.",),
}
TIME_UNITS = {"s", "ms", "us", "1/s"}


def layer_of(name):
    """The layer of metric `name`, or None.  L3 is tried first, since its
    `assoc_game.enumerate_` lies under L1's prefix."""
    for layer in ("L3", "L0", "L1", "L2", "L4"):
        if name.startswith(LAYERS[layer]):
            return layer
    return None


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def run_workload(name):
    """The digest and the metrics of one traced run of workload `name`."""
    cmd = [sys.executable, "bench/run.py", "--workload", name,
           "--seed", str(SEED), "--seconds", "0", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or not result.get("correct"):
        sys.exit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr}")
    digest = next(line.split()[0].partition("=")[2] for line in lines
                  if line.startswith("digest="))
    return digest, result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    files = {layer: {
        "layer": layer,
        "prefixes": list(prefixes),
        "commit": git("rev-parse", "HEAD"),
        "source_differs_from_commit": bool(
            git("status", "--porcelain", "--", "src", "bench")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "command": (f"python3 bench/run.py --workload W --seed {SEED} "
                    f"--seconds 0 --trace 1"),
        "workloads": {},
    } for layer, prefixes in LAYERS.items()}
    for name in workloads:
        digest, metrics = run_workload(name)
        for doc in files.values():
            doc["workloads"][name] = {"digest": digest, "counts": {}, "times": {}}
        for metric, m in metrics.items():
            layer = layer_of(metric)
            if layer is None:
                continue
            kind = "times" if m["unit"] in TIME_UNITS else "counts"
            files[layer]["workloads"][name][kind][metric] = m["value"]
        print(f"{name}: digest {digest[:12]}", file=sys.stderr)
    for layer, doc in files.items():
        with open(os.path.join(ROOT, f"BENCH_{layer}.json"), "w") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
