"""Benchmark of the ofdma_assoc library, one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.
Workloads are listed in bench/README.md and BENCHMARK.json.

--trace 0 times ops (each op one call into the library) for at least
S seconds and at least MIN_OPS ops, with no shims installed, and reports
the end-to-end metrics.  --trace 1 runs the first MIN_OPS ops without
shims, then installs the tracer and runs the same ops again; it reports
the per-layer metrics and writes the spans to .bench_out/.  Either way the
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import time

START = time.perf_counter()

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

MIN_OPS = 100        # ops per run; the digest covers exactly these
SETUP_REPS = 3       # set-up repetitions; setup_s reports their median


class Pass:
    """Latencies, per-op digests and failures of one pass over the ops."""

    def __init__(self):
        self.latencies = []
        self.digests = []
        self.failures = []

    def digest(self):
        head = self.digests[:MIN_OPS]
        if None in head:
            return None
        return hashlib.sha256("".join(head).encode("ascii")).hexdigest()


def run_ops(wl, pass_, min_ops, seconds, tracer=None):
    """Time ops 0, 1, ... until both `min_ops` ops and `seconds` are done.
    Inputs are prepared and outputs verified outside the timed region."""
    from workloads import CheckError

    clock = time.perf_counter
    began = clock()
    j = 0
    while j < min_ops or clock() - began < seconds:
        inp = wl.prepare(j)
        if tracer is not None:
            tracer.op = j
            tracer.enabled = True
        t0 = clock()
        try:
            out = wl.op(inp)
            error = None
        except Exception:
            error = traceback.format_exc()
        t1 = clock()
        if tracer is not None:
            tracer.enabled = False
        pass_.latencies.append(t1 - t0)
        digest = None
        if error is None:
            try:
                digest = wl.verify(inp, out)
            except CheckError as exc:
                error = f"check failed: {exc}"
        if error is not None:
            pass_.failures.append(f"op {j}: {error}")
        pass_.digests.append(digest)
        j += 1
    return pass_


def self_checks(wl, first_digest):
    """Re-running op 0 gives its digest again; then the workload's own
    once-per-run check.  Returns a list of problems."""
    from workloads import CheckError

    problems = []
    try:
        inp = wl.prepare(0)
        if wl.verify(inp, wl.op(inp)) != first_digest:
            problems.append("re-running op 0 gave another digest")
        wl.final_check()
    except CheckError as exc:
        problems.append(f"self-check failed: {exc}")
    return problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "ofdma_assoc")):
        print(f"bench: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START

    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    try:
        reps = []
        for r in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup(SETUP_REPS)
            wl.warmup(r)
            reps.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(reps)

        print(f"workload={wl.name} seed={args.seed} trace={args.trace}")
        print(f"sizes={json.dumps(wl.sizes, sort_keys=True)}")
        if args.trace:
            return traced(wl)

        main_pass = run_ops(wl, Pass(), MIN_OPS, args.seconds)
        problems = self_checks(wl, main_pass.digests[0])
    finally:
        wl.close()

    lat = main_pass.latencies
    ops = len(lat)
    failed = len(main_pass.failures)
    timed_s = sum(lat)
    p90 = statistics.quantiles(lat, n=10)[8]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in main_pass.failures[:5] + problems:
        print(line, file=sys.stderr)
    print(f"ops={ops} failed={failed} timed_s={timed_s:.4f} "
          f"import_s={import_s:.4f} setup_reps_s={[round(x, 4) for x in reps]}")
    print(f"digest={main_pass.digest()} (first {MIN_OPS} ops)")
    print(f"self_checks={'ok' if not problems else 'FAILED'}")
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(ops / timed_s, "1/s"),
        "op_ms_p50": metric(statistics.median(lat) * 1e3, "ms"),
        "op_ms_p90": metric(p90 * 1e3, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "ok_frac": metric((ops - failed) / ops, "ratio"),
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}  (ops={ops})")
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": ops, "failed": failed, "metrics": metrics}))
    return 0


def traced(wl):
    import tracing

    plain = run_ops(wl, Pass(), MIN_OPS, 0)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.enabled = True           # set-up under op id -1
    wl.setup(SETUP_REPS)
    tracer.enabled = False
    traced_pass = run_ops(wl, Pass(), MIN_OPS, 0, tracer)
    try:
        tracer.check_bindings(wl.traced_bindings)
    except tracing.BindingError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    problems = self_checks(wl, traced_pass.digests[0])
    if plain.digest() != traced_pass.digest():
        problems.append("traced ops gave another digest than untraced ops")
    failures = plain.failures + traced_pass.failures
    for line in failures[:5] + problems:
        print(line, file=sys.stderr)

    untraced_s, traced_s = sum(plain.latencies), sum(traced_pass.latencies)
    path = os.path.join(OUT, f"spans-{wl.name}.csv.gz")
    n_spans = tracer.write_spans(path)
    per_layer = tracer.metrics(traced_s / untraced_s - 1.0, untraced_s, traced_s)
    print(f"ops={len(traced_pass.latencies)} traced, {len(plain.latencies)} untraced; "
          f"spans={n_spans} written to {os.path.relpath(path, ROOT)}")
    print(f"digest={traced_pass.digest()} (first {MIN_OPS} ops)")
    print(f"self_checks={'ok' if not problems else 'FAILED'}")
    for name, (value, unit, base) in per_layer.items():
        print(f"{name} = {value!r} {unit}" + (f"  (base: {base})" if base else ""))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(traced_pass.latencies),
        "failed": len(traced_pass.failures),
        "metrics": {name: metric(value, unit)
                    for name, (value, unit, _) in per_layer.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
