"""Command-line front end: instance generation, single runs, seeded Monte
Carlo campaigns with CSV/JSON emission, and manifest replay.

Output determinism is a contract: identical (config, base seed) produce
byte-identical files.  Every trial owns the derived seed base_seed + trial
index and results merge in trial order, so the outputs cannot depend on
scheduling.
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, asdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import baselines, mechanism
from .assoc_game import Evaluator, GameMode
from .baselines import SearchSpaceTooLargeError
from .net_model import (InvalidArgumentError, NetworkInstance, SatInstance,
                        ScenarioConfig, _check_cer, generate,
                        inject_estimation_error, reduce_3sat)
from .per_bs_alloc import (CAPA, STRATEGIES, cells_of, realized_rates,
                           solve_cell)

ALGORITHMS = ("dbsa", "nearest", "greedy0", "exhaustive", "bound")


@dataclass
class Campaign:
    scenario: ScenarioConfig
    algorithms: Tuple[str, ...] = ("dbsa", "nearest")
    d_values: Tuple[float, ...] = (0.5,)
    cost_values: Tuple[float, ...] = (0.0,)
    cer_values: Tuple[float, ...] = (math.inf,)
    trials: int = 1
    base_seed: int = 0
    memory_len: int = 0           # 0 -> use num_users
    max_iter: int = 500
    strategy: str = CAPA

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidArgumentError("trials must be >= 1")
        if self.memory_len < 0:
            raise InvalidArgumentError("memory length must be >= 1, or 0 for N")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise InvalidArgumentError(f"unknown algorithm {alg!r}")
        if self.strategy not in STRATEGIES:
            raise InvalidArgumentError(f"unknown strategy {self.strategy!r}")
        # the rules `run` and `inject_estimation_error` apply, checked
        # before any point runs
        mechanism._costs(self.cost_values, len(self.cost_values))
        for cer in self.cer_values:
            _check_cer(cer)

    def to_json(self) -> str:
        d = asdict(self)
        d["cer_values"] = ["inf" if math.isinf(c) else c for c in self.cer_values]
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Campaign":
        d = json.loads(text)
        d["scenario"] = ScenarioConfig.from_dict(d["scenario"])
        d["cer_values"] = tuple(math.inf if c == "inf" else float(c)
                                for c in d["cer_values"])
        for key in ("algorithms", "d_values", "cost_values"):
            d[key] = tuple(d[key])
        return cls(**d)


@dataclass
class MetricsRow:
    d: float
    cost: float
    cer_db: float
    trials: int
    throughput: Dict[str, List[float]] = field(default_factory=dict)
    iterations: List[int] = field(default_factory=list)
    converged: List[bool] = field(default_factory=list)
    ne_verified: List[bool] = field(default_factory=list)
    bs_samples: List[float] = field(default_factory=list)
    user_samples: List[float] = field(default_factory=list)
    efficiency: List[float] = field(default_factory=list)
    error: Optional[str] = None

    def mean_std(self, xs: Sequence[float]) -> Tuple[float, float]:
        if not xs:
            return math.nan, math.nan
        arr = np.asarray(xs, dtype=float)
        return float(arr.mean()), float(arr.std())


def _run_point(campaign: Campaign, d: float, cost: float,
               cer_db: float) -> MetricsRow:
    row = MetricsRow(d=d, cost=cost, cer_db=cer_db, trials=campaign.trials)
    for alg in campaign.algorithms:
        row.throughput[alg] = []
    strategy = campaign.strategy
    mode = GameMode(strategy=strategy)
    for trial in range(campaign.trials):
        seed = campaign.base_seed + trial
        cfg = dataclasses.replace(campaign.scenario,
                                  distribution_factor=d, seed=seed)
        net = generate(cfg)
        reports = None
        if not math.isinf(cer_db):
            err_rng = np.random.default_rng(seed + 10 ** 6)
            reports = inject_estimation_error(net, cer_db, err_rng)
        ev = Evaluator(net, mode, reports)
        m = campaign.memory_len or net.num_users
        exhaustive_value = None
        for alg in campaign.algorithms:
            if alg == "dbsa":
                res = mechanism.run(net, m, cost, campaign.max_iter, seed,
                                    mode=mode, evaluator=ev)
                per_bs, per_user = _realized(net, res.profile, ev.reports, strategy)
                row.throughput[alg].append(sum(per_bs))
                row.iterations.append(res.iterations)
                row.converged.append(res.converged)
                row.ne_verified.append(bool(res.is_ne))
                row.bs_samples.extend(per_bs)
                row.user_samples.extend(per_user)
            elif alg in ("nearest", "greedy0"):
                search = baselines.nearest_bs if alg == "nearest" else baselines.greedy0
                res = search(net, strategy, ev)
                per_bs, _ = _realized(net, res.profile, ev.reports, strategy)
                row.throughput[alg].append(sum(per_bs))
            elif alg == "exhaustive":
                res = baselines.exhaustive_opt(net, strategy, ev)
                exhaustive_value = res.throughput
                row.throughput[alg].append(res.throughput)
            elif alg == "bound":
                row.throughput[alg].append(
                    baselines.multi_connect_bound(net, strategy, ev))
        if (exhaustive_value is not None and exhaustive_value > 0
                and "dbsa" in campaign.algorithms):
            row.efficiency.append(row.throughput["dbsa"][-1] / exhaustive_value)
    return row


def _realized(net: NetworkInstance, a, reports,
              strategy) -> Tuple[List[float], List[float]]:
    """Weighted realized throughput per BS and realized rate per user, from
    one solve of each occupied cell."""
    per_bs = [0.0] * net.num_bss
    per_user = [0.0] * net.num_users
    for w, users in enumerate(cells_of(net, a)):
        if not users:
            continue
        alloc = solve_cell(net, w, users, reports, strategy)
        rates = realized_rates(net, alloc, users)
        per_bs[w] = float(net.weight[w] * sum(rates.values()))
        for u, r in rates.items():
            per_user[u] = r
    return per_bs, per_user


def run_campaign(campaign: Campaign) -> List[MetricsRow]:
    """All axis points in deterministic order; a failing point becomes an
    error row and the campaign continues."""
    rows = []
    for d in campaign.d_values:
        for cost in campaign.cost_values:
            for cer in campaign.cer_values:
                try:
                    rows.append(_run_point(campaign, d, cost, cer))
                except (InvalidArgumentError, SearchSpaceTooLargeError) as exc:
                    row = MetricsRow(d=d, cost=cost, cer_db=cer,
                                     trials=campaign.trials, error=str(exc))
                    rows.append(row)
    return rows


# -- output emission ---------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        if math.isnan(x):
            return "nan"
        return repr(float(x))
    return str(x)


def _write_lines(path: str, lines: List[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def config_hash(campaign: Campaign) -> str:
    return hashlib.sha256(campaign.to_json().encode("utf-8")).hexdigest()


def write_outputs(campaign: Campaign, rows: List[MetricsRow],
                  outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    algs = list(campaign.algorithms)
    header = ["d", "cost", "cer_db", "trials", "error"]
    for alg in algs:
        header += [f"thr_mean_{alg}", f"thr_std_{alg}"]
    header += ["iter_mean", "iter_std", "converged_frac", "ne_frac",
               "eff_mean", "eff_min"]
    lines = [",".join(header)]
    for row in rows:
        cells = [_fmt(row.d), _fmt(row.cost), _fmt(row.cer_db),
                 str(row.trials), row.error or ""]
        for alg in algs:
            m, s = row.mean_std(row.throughput.get(alg, []))
            cells += [_fmt(m), _fmt(s)]
        im, isd = row.mean_std(row.iterations)
        cf, _ = row.mean_std([1.0 if c else 0.0 for c in row.converged])
        nf, _ = row.mean_std([1.0 if c else 0.0 for c in row.ne_verified])
        em, _ = row.mean_std(row.efficiency)
        emin = min(row.efficiency) if row.efficiency else math.nan
        cells += [_fmt(im), _fmt(isd), _fmt(cf), _fmt(nf), _fmt(em), _fmt(emin)]
        lines.append(",".join(cells))
    _write_lines(os.path.join(outdir, "summary.csv"), lines)

    for name, attr in (("bs_samples.csv", "bs_samples"),
                       ("user_samples.csv", "user_samples")):
        lines = ["d,cost,cer_db,sample"]
        for row in rows:
            for x in getattr(row, attr):
                lines.append(",".join([_fmt(row.d), _fmt(row.cost),
                                       _fmt(row.cer_db), _fmt(float(x))]))
        _write_lines(os.path.join(outdir, name), lines)

    manifest = {
        "config": campaign.to_json(),
        "config_sha256": config_hash(campaign),
        "base_seed": campaign.base_seed,
        "trials": campaign.trials,
        "seeds": list(range(campaign.base_seed,
                            campaign.base_seed + campaign.trials)),
        "format_version": 1,
    }
    _write_lines(os.path.join(outdir, "manifest.json"),
                 [json.dumps(manifest, sort_keys=True, indent=2)])


def replay(manifest_path: str, outdir: str) -> List[MetricsRow]:
    """Re-run the campaign a manifest describes; refuses tampered configs."""
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    cfg_text = manifest["config"]
    digest = hashlib.sha256(cfg_text.encode("utf-8")).hexdigest()
    if digest != manifest["config_sha256"]:
        raise InvalidArgumentError(
            f"config hash mismatch: manifest says {manifest['config_sha256']}, "
            f"config hashes to {digest}")
    campaign = Campaign.from_json(cfg_text)
    rows = run_campaign(campaign)
    write_outputs(campaign, rows, outdir)
    return rows


# -- argparse front end ------------------------------------------------------

def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", default="indoor", choices=["indoor", "outdoor"])
    p.add_argument("--users", type=int, default=10)
    p.add_argument("--bss", type=int, default=4)
    p.add_argument("--channels", type=int, default=64)
    p.add_argument("--distribution-factor", type=float, default=0.5)
    p.add_argument("--ber", type=float, default=1e-6)
    p.add_argument("--bandwidth-hz", type=float, default=80e6)
    p.add_argument("--power-dbm", type=float, default=23.0)
    p.add_argument("--noise-psd-dbm-hz", type=float, default=-100.0)


def _scenario_from_args(args) -> ScenarioConfig:
    return ScenarioConfig(
        mode=args.mode, num_users=args.users, num_bss=args.bss,
        num_channels=args.channels, distribution_factor=args.distribution_factor,
        ber=args.ber, total_bandwidth_hz=args.bandwidth_hz,
        power_dbm=args.power_dbm, noise_psd_dbm_hz=args.noise_psd_dbm_hz,
        seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofdma-assoc",
        description="Joint BS association / OFDMA allocation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a network instance as JSON")
    _add_scenario_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--from-cnf", metavar="PATH",
                   help="build the SAT-reduction gadget from a DIMACS file")
    p.add_argument("--out", metavar="PATH", help="output file (default stdout)")

    p = sub.add_parser("run", help="one mechanism run on a fresh instance")
    _add_scenario_flags(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--memory", type=int, default=0,
                   help="memory length M (default: number of users)")
    p.add_argument("--cost", type=float, default=0.0)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--strategy", default=CAPA, choices=STRATEGIES)

    p = sub.add_parser("campaign", help="seeded Monte Carlo sweep")
    _add_scenario_flags(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--algorithms", default="dbsa,nearest")
    p.add_argument("--d-values", default="0.5")
    p.add_argument("--cost-values", default="0.0")
    p.add_argument("--cer-values", default="inf")
    p.add_argument("--memory", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--strategy", default=CAPA, choices=STRATEGIES)
    p.add_argument("--outdir", required=True)

    p = sub.add_parser("replay", help="re-run a campaign from its manifest")
    p.add_argument("manifest")
    p.add_argument("--outdir", required=True)
    return parser


def _cmd_generate(args) -> int:
    if args.from_cnf:
        with open(args.from_cnf, encoding="utf-8") as fh:
            sat = SatInstance.from_dimacs(fh.read())
        net, threshold = reduce_3sat(sat)
        payload = json.dumps({"instance": json.loads(net.to_json()),
                              "threshold": threshold}, sort_keys=True)
    else:
        net = generate(_scenario_from_args(args))
        payload = net.to_json()
    if args.out:
        _write_lines(args.out, [payload])
    else:
        print(payload)
    return 0


def _cmd_run(args) -> int:
    net = generate(_scenario_from_args(args))
    m = args.memory or net.num_users
    mode = GameMode(strategy=args.strategy)
    res = mechanism.run(net, m, args.cost, args.max_iter, args.seed, mode=mode)
    summary = {
        "profile": list(res.profile),
        "converged": res.converged,
        "iterations": res.iterations,
        "is_ne": res.is_ne,
        "throughput": res.trace[-1].throughput,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_campaign(args) -> int:
    def floats(text):
        return tuple(math.inf if t == "inf" else float(t)
                     for t in text.split(","))
    campaign = Campaign(
        scenario=_scenario_from_args(args),
        algorithms=tuple(args.algorithms.split(",")),
        d_values=floats(args.d_values),
        cost_values=floats(args.cost_values),
        cer_values=floats(args.cer_values),
        trials=args.trials, base_seed=args.seed,
        memory_len=args.memory, max_iter=args.max_iter,
        strategy=args.strategy)
    rows = run_campaign(campaign)
    write_outputs(campaign, rows, args.outdir)
    print(f"wrote {len(rows)} rows to {args.outdir}")
    return 0


def _cmd_replay(args) -> int:
    rows = replay(args.manifest, args.outdir)
    print(f"replayed {len(rows)} rows to {args.outdir}")
    return 0


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use: parsing leaves it
    unchanged, so one per process serves every call."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "run": _cmd_run,
        "campaign": _cmd_campaign,
        "replay": _cmd_replay,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
