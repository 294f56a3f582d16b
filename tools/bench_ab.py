"""Paired A/B timing of one benchmark workload on two source trees.

    python3 tools/bench_ab.py PARENT_DIR CHANGE_DIR --workload W [--pairs 20]

Each DIR is a checkout of this repository (for example made with
`git archive REV | tar -x -C DIR`).  The tool starts one long-lived worker
process per tree.  A worker puts that tree's `src/` and `bench/` first on
`sys.path`, imports its `workloads` and `run` modules, and does the
workload's set-up and warm-up as `bench/run.py` does.  It then times
passes on request: one pass is `run.run_ops` over ops 0 .. 99 at seed 7,
and reports the summed op time, the pass digest and its failures.

The two workers alternate passes, and which of them goes first alternates
from pair to pair, so slow drift of the machine hits both sides alike.
Each pair gives the ratio change time / parent time, below 1 when the
change is faster.  The report gives the median ratio, a distribution-free
interval for it of at least 95 % coverage where the pair count allows
(order statistics of the sign test, coverage stated), its quartiles,
the pairs the change won, each side's median ops/s, and each side's digest:
equal digests show that the change computes the same results on these ops.

The benchmark rule of `bench/README.md` stays the gate; this tool adds a
paired measurement next to it.  Nothing is written into either tree.
"""

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

OPS = 100       # ops per pass: bench/run.py's MIN_OPS, which its digest covers
SEED = 7        # the seed of the committed per-layer trajectory


def worker(tree, workload):
    """Serve passes over stdin/stdout until stdin closes.  The protocol
    uses the original stdout; everything the library prints goes to
    stderr."""
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    import run
    import workloads

    workdir = tempfile.mkdtemp(prefix="bench-ab-")
    wl = workloads.WORKLOADS[workload](SEED, workdir)
    try:
        for r in range(run.SETUP_REPS):
            wl.setup(run.SETUP_REPS)
            wl.warmup(r)
        for line in sys.stdin:
            if line.strip() != "pass":
                break
            p = run.run_ops(wl, run.Pass(), OPS, 0)
            proto.write(json.dumps({"seconds": sum(p.latencies),
                                    "digest": p.digest(),
                                    "failed": len(p.failures)}) + "\n")
            proto.flush()
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)


def sign_interval(ratios, level=0.95):
    """The order-statistic interval [r_(k), r_(n+1-k)] for the median and
    its coverage 1 - 2 P(Bin(n, 1/2) < k), with k the largest rank whose
    coverage is at least `level`; the whole range, at its lower coverage,
    when n is too small for that."""
    r = sorted(ratios)
    n = len(r)
    tail, k = 0.0, 0
    while True:
        nxt = tail + math.comb(n, k) / 2.0 ** n
        if 2 * nxt > 1 - level:
            break
        tail, k = nxt, k + 1
    if k == 0:
        k, tail = 1, 1.0 / 2.0 ** n
    return r[k - 1], r[n - k], 1.0 - 2.0 * tail


class Worker:
    def __init__(self, tree, workload):
        cmd = [sys.executable, os.path.abspath(__file__), "--worker", tree,
               "--workload", workload]
        self.tree = tree
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run_pass(self):
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            sys.exit(f"bench_ab: the worker on {self.tree} stopped "
                     f"(exit {self.proc.wait()})")
        return json.loads(line)

    def close(self):
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()
        self.proc.wait()


def quartiles(xs):
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=20,
                        help="timed pairs of passes; more pairs narrow the "
                             "interval (ROADMAP item 1)")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker, args.workload)
        return 0
    if not (args.parent and args.change):
        parser.error("PARENT_DIR and CHANGE_DIR are required")
    if args.pairs < 2:
        parser.error("need --pairs >= 2")
    for tree in (args.parent, args.change):
        if not os.path.isdir(os.path.join(tree, "src", "ofdma_assoc")):
            parser.error(f"{tree} holds no src/ofdma_assoc")

    sides = [Worker(os.path.abspath(t), args.workload)
             for t in (args.parent, args.change)]
    try:
        times = ([], [])
        digests = (set(), set())
        failed = [0, 0]
        for p in range(args.pairs):
            for s in ((0, 1) if p % 2 == 0 else (1, 0)):
                res = sides[s].run_pass()
                times[s].append(res["seconds"])
                digests[s].add(res["digest"])
                failed[s] += res["failed"]
    finally:
        for side in sides:
            side.close()

    ratios = [c / p for p, c in zip(*times)]
    lo, hi, coverage = sign_interval(ratios)
    q1, med, q3 = quartiles(ratios)
    wins = sum(r < 1.0 for r in ratios)
    report = {
        "workload": args.workload, "seed": SEED, "ops": OPS,
        "pairs": args.pairs,
        "ratio_median": med, "ratio_interval": [lo, hi],
        "interval_coverage": coverage,
        "ratio_quartiles": [q1, q3], "change_wins": wins,
        "parent_ops_per_s": OPS / statistics.median(times[0]),
        "change_ops_per_s": OPS / statistics.median(times[1]),
        "parent_digest": sorted(map(str, digests[0])),
        "change_digest": sorted(map(str, digests[1])),
        "failed": {"parent": failed[0], "change": failed[1]},
    }
    print(f"{args.workload}: change/parent time ratio {med:.3f} "
          f"({coverage:.1%} interval {lo:.3f}-{hi:.3f}, IQR {q1:.3f}-{q3:.3f}), "
          f"change faster in {wins}/{args.pairs} pairs; "
          f"ops/s {report['parent_ops_per_s']:.1f} -> {report['change_ops_per_s']:.1f}; "
          f"digests {'equal' if digests[0] == digests[1] else 'DIFFER'}")
    print(json.dumps(report, sort_keys=True))
    return 0 if not any(failed) else 1


if __name__ == "__main__":
    sys.exit(main())
