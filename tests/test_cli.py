import argparse
import json
import math
import os
import pathlib
import re

import numpy as np
import pytest

from ofdma_assoc import sim_cli
from ofdma_assoc.assoc_game import Evaluator
from ofdma_assoc.net_model import (InvalidArgumentError, NetworkInstance,
                                   ScenarioConfig)
from ofdma_assoc.sim_cli import (Campaign, build_parser, main, replay,
                                 run_campaign, write_outputs)


def small_campaign(**overrides):
    kwargs = dict(
        scenario=ScenarioConfig(num_users=4, num_bss=2, num_channels=8,
                                seed=0),
        algorithms=("dbsa", "nearest", "greedy0", "exhaustive", "bound"),
        d_values=(0.2, 0.8),
        trials=3,
        base_seed=100,
        max_iter=200,
    )
    kwargs.update(overrides)
    return Campaign(**kwargs)


def read_all(outdir):
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestCampaign:
    def test_row_shape(self):
        rows = run_campaign(small_campaign(trials=1, d_values=(0.5,)))
        assert len(rows) == 1
        row = rows[0]
        assert row.error is None
        assert len(row.throughput["dbsa"]) == 1
        assert len(row.iterations) == 1

    def test_one_evaluator_per_trial(self, monkeypatch):
        """The DBSA run shares the trial's Evaluator with the baselines,
        including under estimation error."""
        built = []
        init = Evaluator.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Evaluator, "__init__", counting_init)
        c = small_campaign(cer_values=(math.inf, 0.0))
        rows = run_campaign(c)
        assert all(row.error is None for row in rows)
        assert len(built) == c.trials * len(c.d_values) * len(c.cer_values)

    def test_sample_counts(self):
        c = small_campaign()
        rows = run_campaign(c)
        for row in rows:
            assert len(row.bs_samples) == c.trials * c.scenario.num_bss
            assert len(row.user_samples) == c.trials * c.scenario.num_users

    def test_byte_identical_reruns(self, tmp_path):
        c = small_campaign()
        out1, out2 = tmp_path / "a", tmp_path / "b"
        write_outputs(c, run_campaign(c), str(out1))
        write_outputs(c, run_campaign(c), str(out2))
        assert read_all(str(out1)) == read_all(str(out2))

    def test_aggregation_matches_samples(self, tmp_path):
        c = small_campaign(algorithms=("dbsa",), d_values=(0.5,))
        rows = run_campaign(c)
        write_outputs(c, rows, str(tmp_path))
        with open(tmp_path / "summary.csv") as fh:
            header = fh.readline().strip().split(",")
            values = fh.readline().strip().split(",")
        emitted = float(values[header.index("thr_mean_dbsa")])
        recomputed = float(np.mean(rows[0].throughput["dbsa"]))
        assert emitted == pytest.approx(recomputed, abs=1e-12)

    def test_summary_cells_parse_as_floats(self, tmp_path):
        """With `exhaustive` the efficiency columns fill in; every summary
        cell stays a plain number (`eff_min` once read `np.float64(1.0)`)."""
        c = small_campaign(
            scenario=ScenarioConfig(num_users=6, num_bss=3, num_channels=12,
                                    seed=0),
            algorithms=("dbsa", "nearest", "exhaustive", "bound"),
            d_values=(0.5,), trials=2, base_seed=1)
        write_outputs(c, run_campaign(c), str(tmp_path))
        with open(tmp_path / "summary.csv") as fh:
            header, *rows = fh.read().splitlines()
        assert rows and all(row.split(",")[header.split(",").index("eff_min")]
                            for row in rows)
        for row in rows:
            for cell in row.split(","):
                if cell:
                    float(cell)

    def test_infeasible_point_becomes_error_row(self):
        c = small_campaign(algorithms=("exhaustive",), d_values=(0.5,),
                           trials=1,
                           scenario=ScenarioConfig(num_users=30, num_bss=8,
                                                   num_channels=16, seed=0))
        rows = run_campaign(c)
        assert len(rows) == 1
        assert rows[0].error is not None

    @pytest.mark.parametrize("strategy", ["bogus", "CA-PF"])
    def test_unknown_strategy_rejected(self, strategy):
        with pytest.raises(InvalidArgumentError, match="unknown strategy"):
            small_campaign(strategy=strategy)

    @pytest.mark.parametrize("costs", [(math.nan,), (0.0, -1.0)])
    def test_bad_costs_rejected_when_built(self, costs, tmp_path):
        """A NaN or negative switching cost is refused before any point
        runs, from the constructor, a manifest or the command line."""
        with pytest.raises(InvalidArgumentError, match="switching costs"):
            small_campaign(cost_values=costs)
        payload = json.loads(small_campaign().to_json())
        payload["cost_values"] = list(costs)
        with pytest.raises(InvalidArgumentError, match="switching costs"):
            Campaign.from_json(json.dumps(payload))
        with pytest.raises(InvalidArgumentError, match="switching costs"):
            main(["campaign", "--users", "3", "--bss", "2", "--channels", "8",
                  "--seed", "0", "--outdir", str(tmp_path / "out"),
                  "--cost-values", ",".join(map(str, costs))])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cers", [(math.nan,), (math.inf, -math.inf)])
    def test_bad_cer_rejected_when_built(self, cers, tmp_path):
        """A NaN or -inf channel error ratio is refused before any point
        runs, from the constructor, a manifest or the command line; it
        wrote a NaN row with no error, or error-free numbers labelled
        `inf`."""
        with pytest.raises(InvalidArgumentError, match="channel error ratio"):
            small_campaign(cer_values=cers)
        payload = json.loads(small_campaign().to_json())
        payload["cer_values"] = list(cers)
        with pytest.raises(InvalidArgumentError, match="channel error ratio"):
            Campaign.from_json(json.dumps(payload))
        with pytest.raises(InvalidArgumentError, match="channel error ratio"):
            main(["campaign", "--users", "3", "--bss", "2", "--channels", "8",
                  "--seed", "0", "--outdir", str(tmp_path / "out"),
                  "--cer-values", ",".join(map(str, cers))])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cost", ["nan", "-1.0"])
    def test_bad_run_cost_rejected(self, cost):
        with pytest.raises(InvalidArgumentError, match="switching costs"):
            main(["run", "--users", "3", "--bss", "2", "--channels", "8",
                  "--seed", "0", "--cost", cost])

    def test_negative_memory_rejected_when_built(self, tmp_path):
        """A negative memory length is refused before any point runs, from
        the constructor, a manifest or the command line; it ran every
        point with M = N."""
        with pytest.raises(InvalidArgumentError, match="memory length"):
            small_campaign(memory_len=-5)
        payload = json.loads(small_campaign().to_json())
        payload["memory_len"] = -5
        with pytest.raises(InvalidArgumentError, match="memory length"):
            Campaign.from_json(json.dumps(payload))
        with pytest.raises(InvalidArgumentError, match="memory length"):
            main(["campaign", "--users", "3", "--bss", "2", "--channels", "8",
                  "--seed", "0", "--outdir", str(tmp_path / "out"),
                  "--memory", "-5"])
        assert not (tmp_path / "out").exists()

    def test_negative_run_memory_rejected(self, capsys):
        """`run --memory -5` is refused, not run with M = N; 0 still means
        the number of users."""
        argv = ["run", "--users", "3", "--bss", "2", "--channels", "8",
                "--seed", "0", "--memory"]
        with pytest.raises(InvalidArgumentError, match="memory length"):
            main(argv + ["-5"])
        assert main(argv + ["0"]) == main(argv + ["3"]) == 0
        zero, three = capsys.readouterr().out.splitlines()
        assert zero == three

    def test_campaign_json_round_trip(self):
        c = small_campaign(cer_values=(math.inf, 20.0))
        back = Campaign.from_json(c.to_json())
        assert back == c

    @pytest.mark.parametrize("key, value", [("fading", "rayleigh"),
                                            ("mode", "explicit")])
    def test_bad_scenario_rejected_when_read(self, key, value):
        payload = json.loads(small_campaign().to_json())
        payload["scenario"][key] = value
        with pytest.raises(InvalidArgumentError, match=key):
            Campaign.from_json(json.dumps(payload))


class TestReplay:
    def test_replay_reproduces_bytes(self, tmp_path):
        c = small_campaign(trials=2, d_values=(0.5,))
        out1 = tmp_path / "orig"
        write_outputs(c, run_campaign(c), str(out1))
        out2 = tmp_path / "replayed"
        replay(str(out1 / "manifest.json"), str(out2))
        assert read_all(str(out1)) == read_all(str(out2))

    def test_tampered_config_refused(self, tmp_path):
        c = small_campaign(trials=1, d_values=(0.5,))
        out = tmp_path / "orig"
        write_outputs(c, run_campaign(c), str(out))
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"] = manifest["config"].replace('"trials": 1',
                                                        '"trials": 2')
        path.write_text(json.dumps(manifest, sort_keys=True, indent=2))
        with pytest.raises(InvalidArgumentError, match="hash mismatch"):
            replay(str(path), str(tmp_path / "out"))


class TestCliSurface:
    def test_readme_lists_every_subcommand(self):
        """The README's CLI block shows one `ofdma-assoc <subcommand>` line
        per subcommand of the parser, and no other."""
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        listed = set(re.findall(r"^ofdma-assoc (\S+)", block, re.MULTILINE))
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert listed == set(sub.choices)

    def test_generate_emits_instance(self, capsys):
        assert main(["generate", "--seed", "5", "--users", "3",
                     "--bss", "2", "--channels", "8"]) == 0
        payload = capsys.readouterr().out
        net = NetworkInstance.from_json(payload)
        assert net.num_users == 3 and net.num_bss == 2

    def test_generate_from_cnf(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 1\n1 1 -1 0\n")
        assert main(["generate", "--seed", "0", "--from-cnf", str(cnf)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["threshold"] == pytest.approx(2 + math.log2(3) + 1)
        net = NetworkInstance.from_json(json.dumps(payload["instance"]))
        assert net.num_users == 3 and net.num_bss == 3

    def test_run_subcommand(self, capsys):
        assert main(["run", "--seed", "7", "--users", "4", "--bss", "2",
                     "--channels", "8"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["converged"] is True
        assert len(summary["profile"]) == 4

    def test_campaign_subcommand(self, tmp_path, capsys):
        outdir = tmp_path / "camp"
        assert main(["campaign", "--seed", "3", "--users", "4", "--bss", "2",
                     "--channels", "8", "--trials", "2",
                     "--d-values", "0.2,0.8", "--outdir", str(outdir)]) == 0
        assert (outdir / "summary.csv").exists()
        assert (outdir / "manifest.json").exists()

    def test_campaign_with_a_bs_without_channels(self, tmp_path, capsys):
        """Three BSs share two channels, so one BS owns none; the exhaustive
        optimum still runs and no row carries an error."""
        outdir = tmp_path / "camp"
        assert main(["campaign", "--users", "4", "--bss", "3", "--channels", "2",
                     "--seed", "1", "--algorithms", "dbsa,exhaustive",
                     "--outdir", str(outdir)]) == 0
        header, *rows = (outdir / "summary.csv").read_text().splitlines()
        err = header.split(",").index("error")
        assert rows and all(row.split(",")[err] == "" for row in rows)

    def test_repeated_calls_share_one_parser(self, tmp_path, capsys):
        """A second `main` call in the process parses afresh: a campaign
        with the defaults after one with other flags writes the files a
        new parser's arguments write, and a bad argument still exits 2."""
        def argv(outdir, *flags):
            return ["campaign", "--seed", "3", "--users", "4", "--bss", "2",
                    "--channels", "8", "--outdir", str(tmp_path / outdir), *flags]
        first = argv("a", "--trials", "2", "--cer-values", "inf,0",
                     "--algorithms", "dbsa,nearest,bound")
        assert main(first) == 0
        assert main(argv("b")) == 0
        for name, args in (("a", first), ("b", argv("b"))):
            fresh = build_parser().parse_args(args)
            fresh.outdir = str(tmp_path / ("fresh-" + name))
            sim_cli._cmd_campaign(fresh)
            assert read_all(str(tmp_path / name)) == read_all(fresh.outdir)
        with pytest.raises(SystemExit) as exc:
            main(argv("c", "--trials", "two"))
        assert exc.value.code == 2
        assert not (tmp_path / "c").exists()
        assert sim_cli._parser() is sim_cli._parser()

    def test_replay_subcommand(self, tmp_path):
        outdir = tmp_path / "camp"
        main(["campaign", "--seed", "3", "--users", "4", "--bss", "2",
              "--channels", "8", "--trials", "1", "--outdir", str(outdir)])
        out2 = tmp_path / "rep"
        assert main(["replay", str(outdir / "manifest.json"),
                     "--outdir", str(out2)]) == 0
        assert read_all(str(outdir)) == read_all(str(out2))
