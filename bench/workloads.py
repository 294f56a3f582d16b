"""The benchmark workloads.

Each workload makes its inputs from the workload seed alone: instance seeds
and mechanism seeds are drawn from `numpy.random.default_rng([seed,
stream])`.  An op's inputs are made by `prepare` and its outputs checked by
`verify` outside the timed region; `op` is the timed call into the library.
`verify` raises `CheckError` on a wrong output and otherwise returns a
digest of the op's behaviour (profiles, iteration counts, throughputs).

The library is called through its module attributes (`mechanism.run`, not
a name imported here), so the tracer's shims see the calls.
"""

import contextlib
import copy
import hashlib
import io
import math
import os
import shutil
import tempfile

import numpy as np

from ofdma_assoc import assoc_game, baselines, mechanism, net_model, sim_cli, vcg

POOL = 512                      # distinct instances per run; ops cycle over them
D_CYCLE = (0.2, 0.5, 0.8)       # distribution factor of op j is D_CYCLE[j % 3]
TOL = 1e-9                      # criterion tolerance; relative for throughputs


class CheckError(Exception):
    """An op's output failed its correctness check."""


def expect(cond, msg):
    if not cond:
        raise CheckError(msg)


def close_or_below(a, b):
    """a <= b up to TOL relative to their magnitude."""
    return a <= b + TOL * max(1.0, abs(a), abs(b))


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    name = ""
    sizes = {}
    # bindings "module.function@binding module" that must see >= 1 call
    # in a traced run of this workload
    traced_bindings = ()

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def _seeds(self, stream, n):
        rng = np.random.default_rng([self.seed, stream])
        return [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=n)]

    def _indoor(self, seed, j, users, bss, channels):
        cfg = net_model.ScenarioConfig(
            mode="indoor", num_users=users, num_bss=bss, num_channels=channels,
            distribution_factor=D_CYCLE[j % len(D_CYCLE)], seed=seed)
        return net_model.generate(cfg)

    def setup(self, warmups):
        """Generate every instance: the op pool plus `warmups` dedicated
        warm-up instances."""

    def warmup(self, r):
        """One discarded op on dedicated warm-up instance r."""
        self.op(self.prepare(-1 - r))

    def prepare(self, j):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def verify(self, inp, out):
        raise NotImplementedError

    def final_check(self):
        """Once-per-run check after all ops."""

    def close(self):
        """Remove what the workload wrote."""


COMMON_BINDINGS = (
    "net_model.generate@net_model",
    "per_bs_alloc.solve_cell@assoc_game",
    "per_bs_alloc.water_fill@per_bs_alloc",
    "per_bs_alloc.reported_rates@assoc_game",
    "assoc_game.Evaluator.__init__@Evaluator",
    "assoc_game.Evaluator.cell@Evaluator",
    "assoc_game.Evaluator.utility@Evaluator",
    "assoc_game.Evaluator.move_utility@Evaluator",
)


class _InstancePool(Workload):
    """Ops cycle over a pool of generated instances; op j < 0 is warm-up
    instance -1 - j."""

    def _make(self, seed, j):
        raise NotImplementedError

    def setup(self, warmups):
        seeds = self._seeds(0, POOL + warmups)
        self.pool = [self._make(s, j) for j, s in enumerate(seeds[:POOL])]
        self.warm = [self._make(s, j) for j, s in enumerate(seeds[POOL:])]
        self.op_seed = self._seeds(1, 1)[0]

    def _instance(self, j):
        return self.pool[j % POOL] if j >= 0 else self.warm[-1 - j]

    def _run_seed(self, j):
        return (self.op_seed + j) % 2 ** 31


def _trajectory(res):
    return repr((res.profile, res.iterations, res.converged, res.is_ne,
                 [rec.throughput for rec in res.trace]))


class DbsaIndoor(_InstancePool):
    name = "dbsa_indoor"
    N, W, K, MAX_ITER = 10, 6, 64, 4000
    sizes = {"users": N, "bss": W, "channels": K, "d": list(D_CYCLE),
             "memory": N, "cost": 0.0, "max_iter": MAX_ITER,
             "strategy": "CAPA", "pool": POOL}
    traced_bindings = COMMON_BINDINGS + (
        "mechanism.run@mechanism",
        "mechanism.step@mechanism",
        "assoc_game.better_reply_set@mechanism",
        "assoc_game.is_ne@mechanism",
    )

    def _make(self, seed, j):
        return self._indoor(seed, j, self.N, self.W, self.K)

    def prepare(self, j):
        return self._instance(j), self._run_seed(j)

    def op(self, inp):
        net, seed = inp
        return mechanism.run(net, self.N, 0.0, self.MAX_ITER, seed)

    def verify(self, inp, res):
        net, _ = inp
        expect(res.converged, f"no convergence in {self.MAX_ITER} rounds")
        expect(res.is_ne is True, "final profile is not a NE")
        fresh = assoc_game.system_throughput(net, res.profile)
        expect(res.trace[-1].throughput == fresh,
               f"last trace throughput {res.trace[-1].throughput!r} != "
               f"fresh system throughput {fresh!r}")
        return sha(_trajectory(res))


class DbsaInterference(_InstancePool):
    """Interference mode needs equal per-BS channel blocks: W=8, K=64 gives
    blocks of 8.  Unequal blocks raise IndexError in
    `update_interference_noise` (a known defect, not exercised here)."""

    name = "dbsa_interference"
    N, W, K, M, MAX_ITER = 10, 8, 64, 4, 30
    sizes = {"users": N, "bss": W, "channels": K, "d": list(D_CYCLE),
             "memory": M, "cost": 0.0, "max_iter": MAX_ITER,
             "strategy": "CAPA", "interference": True, "pool": POOL}
    traced_bindings = COMMON_BINDINGS + (
        "mechanism.run@mechanism",
        "mechanism.step@mechanism",
        "mechanism.update_interference_noise@mechanism",
        "per_bs_alloc.solve_cell@mechanism",
        "assoc_game.better_reply_set@mechanism",
    )

    def _make(self, seed, j):
        return self._indoor(seed, j, self.N, self.W, self.K)

    def prepare(self, j):
        # run(..., interference=True) overwrites net.noise: every op gets
        # its own copy so no op sees another's interference state
        return copy.deepcopy(self._instance(j)), self._run_seed(j)

    def op(self, inp):
        net, seed = inp
        return mechanism.run(net, self.M, 0.0, self.MAX_ITER, seed,
                             interference=True)

    def verify(self, inp, res):
        expect(len(res.trace) == res.iterations + 1,
               f"{len(res.trace)} trace records for {res.iterations} iterations")
        for rec in res.trace:
            expect(math.isfinite(rec.throughput)
                   and all(math.isfinite(x) for x in rec.bs_throughput),
                   f"non-finite throughput at iteration {rec.iteration}")
            expect(all(0 <= w < self.W for w in rec.profile),
                   f"BS index out of range at iteration {rec.iteration}")
        expect(all(0 <= w < self.W for w in res.profile), "final BS out of range")
        return sha(_trajectory(res))


class Oracles(_InstancePool):
    name = "oracles"
    N, W, K = 8, 4, 64
    SMALL_N, SMALL_W, SMALL_K = 6, 3, 24
    TRIALS = 50
    sizes = {"users": N, "bss": W, "channels": K, "d": list(D_CYCLE),
             "misreport_trials": TRIALS, "misreport_user": 0,
             "enumerate_users": SMALL_N, "enumerate_bss": SMALL_W,
             "enumerate_channels": SMALL_K, "strategy": "CAPA", "pool": POOL}
    traced_bindings = COMMON_BINDINGS + (
        "baselines.nearest_bs@baselines",
        "baselines.greedy0@baselines",
        "baselines.exhaustive_opt@baselines",
        "baselines.multi_connect_bound@baselines",
        "vcg.misreport_search@vcg",
        "per_bs_alloc.solve_cell@vcg",
        "per_bs_alloc.realized_rates@vcg",
        "per_bs_alloc.reported_rates@vcg",
        "assoc_game.enumerate_nes@assoc_game",
        "assoc_game.is_ne@assoc_game",
        "assoc_game.better_reply_set@assoc_game",
    )

    def _make(self, seed, j):
        return (self._indoor(seed, j, self.N, self.W, self.K),
                self._indoor(seed + 1, j, self.SMALL_N, self.SMALL_W, self.SMALL_K))

    def prepare(self, j):
        return self._instance(j) + (self._run_seed(j),)

    def op(self, inp):
        net, small, seed = inp
        ev = assoc_game.Evaluator(net, assoc_game.GameMode())
        near = baselines.nearest_bs(net, evaluator=ev)
        greedy = baselines.greedy0(net, evaluator=ev)
        opt = baselines.exhaustive_opt(net, evaluator=ev)
        bound = baselines.multi_connect_bound(net, evaluator=ev)
        gain = vcg.misreport_search(net, near.profile, 0, "CAPA",
                                    np.random.default_rng(seed), trials=self.TRIALS)
        enum = assoc_game.enumerate_nes(small, assoc_game.GameMode())
        return near, greedy, opt, bound, gain, enum

    def verify(self, inp, out):
        _, small, _ = inp
        near, greedy, opt, bound, gain, enum = out
        chain = (near.throughput, greedy.throughput, opt.throughput, bound)
        expect(all(close_or_below(a, b) for a, b in zip(chain, chain[1:])),
               f"nearest <= greedy0 <= exhaustive <= bound fails: {chain}")
        small_opt = baselines.exhaustive_opt(small).throughput
        expect(close_or_below(enum.optimum_value, small_opt)
               and close_or_below(small_opt, enum.optimum_value),
               f"enumerated optimum {enum.optimum_value!r} != "
               f"exhaustive {small_opt!r}")
        for profile, value in enum.nes:
            expect(value >= (0.5 - TOL) * enum.optimum_value,
                   f"NE {profile} below half the optimum")
        expect(gain <= TOL, f"misreport gain {gain!r} above {TOL}")
        return sha(repr((near, greedy, opt, bound, gain, enum.optimum,
                         enum.optimum_value, enum.nes)))


class Campaign(Workload):
    name = "campaign"
    ARGS = ["campaign", "--users", "10", "--bss", "4", "--channels", "64",
            "--trials", "1", "--d-values", "0.2,0.5,0.8",
            "--cer-values", "inf,0", "--algorithms", "dbsa,nearest,bound"]
    sizes = {"argv": " ".join(ARGS), "rows": 6}
    traced_bindings = (
        "sim_cli.main@sim_cli",
        "sim_cli.run_campaign@sim_cli",
        "sim_cli.write_outputs@sim_cli",
        "net_model.generate@sim_cli",
        "net_model.inject_estimation_error@sim_cli",
        "per_bs_alloc.solve_cell@sim_cli",
        "per_bs_alloc.solve_cell@assoc_game",
        "per_bs_alloc.realized_rates@sim_cli",
        "mechanism.run@mechanism",
        "mechanism.step@mechanism",
        "assoc_game.better_reply_set@mechanism",
        "assoc_game.is_ne@mechanism",
        "baselines.nearest_bs@baselines",
        "baselines.multi_connect_bound@baselines",
        "assoc_game.Evaluator.cell@Evaluator",
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.tmp = tempfile.mkdtemp(prefix="campaign-", dir=workdir)
        self.count = 0
        self.first = None

    def setup(self, warmups):
        self.seed_base = self._seeds(0, 1)[0]

    def prepare(self, j):
        self.count += 1
        outdir = os.path.join(self.tmp, f"op{j}-{self.count}")
        if j == 0 and self.first is None:
            self.first = outdir
        seed = (self.seed_base + j) % 2 ** 31
        return self.ARGS + ["--seed", str(seed), "--outdir", outdir]

    def op(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = sim_cli.main(argv)
        return code

    @staticmethod
    def _files(outdir):
        out = {}
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), "rb") as fh:
                out[name] = fh.read()
        return out

    def verify(self, argv, code):
        expect(code == 0, f"campaign exited with {code}")
        outdir = argv[-1]
        files = self._files(outdir)
        expect(set(files) == {"summary.csv", "bs_samples.csv",
                              "user_samples.csv", "manifest.json"},
               f"unexpected outputs {sorted(files)}")
        rows = files["summary.csv"].decode("utf-8").splitlines()
        header = rows[0].split(",")
        err = header.index("error")
        expect(len(rows) == 1 + self.sizes["rows"], f"{len(rows) - 1} summary rows")
        for row in rows[1:]:
            expect(row.split(",")[err] == "", f"error row: {row}")
        return sha(repr(sorted(files.items())))

    def final_check(self):
        """`replay` of the first op's manifest reproduces its files."""
        replayed = os.path.join(self.tmp, "replay")
        with contextlib.redirect_stdout(io.StringIO()):
            sim_cli.replay(os.path.join(self.first, "manifest.json"), replayed)
        expect(self._files(replayed) == self._files(self.first),
               "replay did not reproduce the campaign outputs byte for byte")

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (DbsaIndoor, DbsaInterference, Oracles, Campaign)}
