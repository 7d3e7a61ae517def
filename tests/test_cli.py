import csv
import ctypes
import json
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from matchkit import cli
from matchkit.cli import run_cli
from matchkit.ingest import (
    SyntheticSpec,
    generate_synthetic_match,
    load_match_csv,
    write_timeline_csv,
)


@pytest.fixture(scope="module")
def single_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "match.csv"
    tl = generate_synthetic_match(
        SyntheticSpec(n_points=200, p_serve_win=0.65, seed=42, match_id="demo-1301"))
    write_timeline_csv(tl, str(path))
    return str(path)


@pytest.fixture(scope="module")
def pool_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pool.csv"
    matches = [
        generate_synthetic_match(
            SyntheticSpec(n_points=140, p_serve_win=0.6, seed=s, match_id=f"demo-{mid}"))
        for s, mid in enumerate([1301, 1302, 1303, 1304, 1401, 1601, 1701])
    ]
    write_timeline_csv(matches, str(path))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


MAML_FAST = ["--hidden-dense", "4", "--hidden-lstm", "2", "--seq-len", "4",
             "--dropout-rate", "0.0", "--wv", "3", "--meta-iterations", "5",
             "--meta-lr", "0.01", "--inner-lr", "0.05"]

LSTM_FAST = ["--hidden-dense", "6", "--hidden-lstm", "3", "--epochs", "4",
             "--seq-len", "6", "--dropout-rate", "0.0"]

GBT_FAST = ["--n-trees", "8", "--lambda-grid", "0.0,1.0", "--rho-grid", "0.5"]


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, single_csv, tmp_path, capsys):
        code = run_cli(["dbwp", "--input", single_csv, "--frob", "1",
                        "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_required_out(self, single_csv, capsys):
        assert run_cli(["winjud", "--input", single_csv]) == 2
        capsys.readouterr()

    def test_missing_server_column_names_it(self, single_csv, tmp_path, capsys):
        rows = read_rows(single_csv)
        drop = rows[0].index("server")
        trimmed = tmp_path / "noserver.csv"
        with open(trimmed, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for row in rows:
                writer.writerow([c for k, c in enumerate(row) if k != drop])
        code = run_cli(["train-gbt", "--input", str(trimmed),
                        "--model-out", str(tmp_path / "m.json")] + GBT_FAST)
        assert code == 1
        assert "server" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,field", [
        (["--min-gain", "nan"], "min_gain"),
        (["--min-child-weight", "inf"], "min_child_weight"),
        (["--lambda-grid", "inf"], "lambda_grid"),
        (["--lambda-grid", "0,nan"], "lambda_grid"),
        (["--rho-grid", "nan"], "rho_grid"),
    ])
    def test_non_finite_gbt_settings(self, single_csv, tmp_path, capsys, flags, field):
        code = run_cli(["train-gbt", "--input", single_csv,
                        "--model-out", str(tmp_path / "m.json"),
                        "--n-trees", "2"] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert field in err

    @pytest.mark.parametrize("command,flags,field", [
        ("dbwp", ["--grid-step", "inf"], "grid_step_s"),
        ("dbwp", ["--grid-step", "1e-300"], "grid_step_s"),
        ("winjud", ["--beta", "nan"], "beta"),
        ("momentum", ["--set-factor", "nan"], "set_factor"),
        ("momentum", ["--ace-bonus", "inf"], "ace_bonus"),
    ])
    def test_unusable_scoring_settings(self, single_csv, tmp_path, capsys,
                                       command, flags, field):
        code = run_cli([command, "--input", single_csv,
                        "--out", str(tmp_path / "o.csv")] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert field in err

    @pytest.mark.parametrize("command", ["ingest", "winjud", "momentum", "dbwp", "correlate"])
    def test_corrupt_row_is_one_stderr_line(self, single_csv, tmp_path, capsys, command):
        rows = read_rows(single_csv)
        rows[57][rows[0].index("rally_count")] = "x"  # file line 58
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        argv = [command, "--input", str(bad)]
        if command != "ingest":
            argv += ["--out", str(tmp_path / "o.csv")]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: row 58: column 'rally_count' is not an integer: 'x'"]

    def test_missing_input_file(self, tmp_path, capsys):
        code = run_cli(["dbwp", "--input", str(tmp_path / "nope.csv"),
                        "--out", str(tmp_path / "o.csv")])
        assert code == 1
        capsys.readouterr()


class TestSeriesCommands:
    def test_dbwp_interface_contract(self, single_csv, tmp_path):
        out = tmp_path / "dbwp.csv"
        code = run_cli(["dbwp", "--input", single_csv, "--wv", "5",
                        "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["point_index", "elapsed_s", "win_rate", "dbwp"]
        assert len(rows) > 1
        widths = {len(r) for r in rows}
        assert widths == {4}

    def test_winjud_emits_series_and_best_times(self, single_csv, tmp_path, capsys):
        out = tmp_path / "wj.csv"
        assert run_cli(["winjud", "--input", single_csv, "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0] == ["point_index", "elapsed_s", "player", "score"]
        assert "set 1: player" in capsys.readouterr().out

    def test_momentum_flag_changes_output(self, single_csv, tmp_path):
        base = tmp_path / "m0.csv"
        tweaked = tmp_path / "m1.csv"
        assert run_cli(["momentum", "--input", single_csv, "--out", str(base)]) == 0
        assert run_cli(["momentum", "--input", single_csv, "--out", str(tweaked),
                        "--ace-bonus", "0.0"]) == 0
        assert read_rows(base)[0] == ["point_index", "elapsed_s", "strategic",
                                      "psychological"]
        assert base.read_text() != tweaked.read_text()

    def test_correlate_prints_coefficients(self, single_csv, tmp_path, capsys):
        out = tmp_path / "corr.csv"
        code = run_cli(["correlate", "--input", single_csv, "--out", str(out),
                        "--manifest", str(tmp_path / "corr.manifest.json")])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "pearson_dbwp_psychological=" in stdout
        assert "pearson_dbwp_strategic=" in stdout
        rows = read_rows(out)
        assert rows[0] == ["series", "pearson_r"]
        values = [float(r[1]) for r in rows[1:]]
        assert len(values) == 2
        assert all(-1.0 <= v <= 1.0 for v in values)

    def test_ingest_echo_and_normalized_output(self, single_csv, tmp_path, capsys):
        out = tmp_path / "normalized.csv"
        code = run_cli(["ingest", "--input", single_csv, "--out", str(out),
                        "--manifest", str(tmp_path / "ingest.manifest.json")])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "demo-1301: 200 points" in stdout
        assert "ok: 1 match(es)" in stdout
        original = load_match_csv(single_csv)
        reloaded = load_match_csv(str(out))
        assert reloaded[0].points == original[0].points


class TestMatchSelection:
    def test_multi_match_requires_match_id(self, pool_csv, tmp_path, capsys):
        code = run_cli(["dbwp", "--input", pool_csv, "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "--match-id" in capsys.readouterr().err

    def test_match_id_selects(self, pool_csv, tmp_path):
        out = tmp_path / "sel.csv"
        code = run_cli(["dbwp", "--input", pool_csv, "--match-id", "demo-1302",
                        "--out", str(out)])
        assert code == 0
        assert len(read_rows(out)) > 1

    def test_unknown_match_id(self, pool_csv, tmp_path, capsys):
        code = run_cli(["dbwp", "--input", pool_csv, "--match-id", "demo-9999",
                        "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "demo-9999" in capsys.readouterr().err


class TestTrainingCommands:
    def test_train_gbt_writes_model_json(self, single_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code = run_cli(["train-gbt", "--input", single_csv,
                        "--model-out", str(model_path)] + GBT_FAST)
        assert code == 0
        doc = json.loads(Path(model_path).read_text())
        assert doc["format_version"] == 1
        assert "test accuracy" in capsys.readouterr().out

    def test_ablate_emits_exactly_four_variant_rows(self, single_csv, tmp_path):
        out = tmp_path / "ablation.csv"
        code = run_cli(["ablate", "--input", single_csv, "--out", str(out),
                        "--seed", "7"] + GBT_FAST)
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["match_id", "variant", "test_accuracy", "lambda", "rho"]
        assert [r[1] for r in rows[1:]] == ["none", "strat_only", "psych_only", "both"]
        assert len(rows) == 5

    def test_train_lstm_report_and_loss_csv(self, single_csv, tmp_path):
        report_path = tmp_path / "report.json"
        loss_path = tmp_path / "loss.csv"
        code = run_cli(["train-lstm", "--input", single_csv, "--out", str(report_path),
                        "--loss-csv", str(loss_path)] + LSTM_FAST)
        assert code == 0
        doc = json.loads(Path(report_path).read_text())
        assert doc["variant"] == "full"
        assert doc["test_mse"] >= 0.0
        assert len(doc["epoch_losses"]) == 4
        rows = read_rows(loss_path)
        assert rows[0] == ["epoch", "loss"]
        assert len(rows) == 5

    def test_maml_comparison_csv_and_state(self, pool_csv, tmp_path):
        out = tmp_path / "queries.csv"
        state = tmp_path / "state.json"
        code = run_cli(["maml", "--input", pool_csv, "--out", str(out),
                        "--state-out", str(state)] + MAML_FAST)
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["match_id", "maml_mse", "scratch_mse"]
        assert sorted(r[0] for r in rows[1:]) == ["demo-1601", "demo-1701"]
        doc = json.loads(Path(state).read_text())
        assert doc["format_version"] == 2
        assert len(doc["loss_history"]) == 5

    def test_maml_explicit_partition(self, pool_csv, tmp_path):
        out = tmp_path / "q2.csv"
        code = run_cli(["maml", "--input", pool_csv, "--out", str(out),
                        "--support", "demo-1301,demo-1302,demo-1303,demo-1304,demo-1401,demo-1601",
                        "--query", "demo-1701"] + MAML_FAST)
        assert code == 0
        rows = read_rows(out)
        assert [r[0] for r in rows[1:]] == ["demo-1701"]

    def test_maml_no_query_errors(self, single_csv, tmp_path, capsys):
        code = run_cli(["maml", "--input", single_csv,
                        "--out", str(tmp_path / "x.csv")] + MAML_FAST)
        assert code == 1
        assert "query" in capsys.readouterr().err


class TestManifest:
    def test_manifest_contents(self, single_csv, tmp_path):
        out = tmp_path / "wj.csv"
        manifest = tmp_path / "run.json"
        code = run_cli(["winjud", "--input", single_csv, "--out", str(out),
                        "--manifest", str(manifest), "--beta", "0.25"])
        assert code == 0
        doc = json.loads(Path(manifest).read_text())
        assert doc["command"] == "winjud"
        assert doc["config"]["beta"] == 0.25
        assert doc["outputs"] == [str(out)]
        assert doc["seed"] == 0
        assert doc["duration_s"] >= 0.0
        digest = next(iter(doc["inputs"].values()))
        assert len(digest) == 64

    def test_default_manifest_path(self, single_csv, tmp_path):
        out = tmp_path / "db.csv"
        assert run_cli(["dbwp", "--input", single_csv, "--out", str(out)]) == 0
        assert (tmp_path / "db.csv.manifest.json").exists()


class TestConfigFile:
    def test_config_supplies_defaults(self, single_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"wv": 7, "beta": 0.25}))
        out = tmp_path / "wj.csv"
        assert run_cli(["winjud", "--input", single_csv, "--out", str(out),
                        "--config", str(cfg)]) == 0
        rows = read_rows(out)
        assert rows[1][0] == "7"  # first defined index equals the window

    def test_explicit_flag_beats_config(self, single_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"wv": 7}))
        out = tmp_path / "wj.csv"
        assert run_cli(["winjud", "--input", single_csv, "--out", str(out),
                        "--config", str(cfg), "--wv", "9"]) == 0
        assert read_rows(out)[1][0] == "9"

    def test_unknown_config_key(self, single_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        code = run_cli(["winjud", "--input", single_csv,
                        "--out", str(tmp_path / "x.csv"), "--config", str(cfg)])
        assert code == 1
        assert "nonsense" in capsys.readouterr().err

    def test_unreadable_config(self, single_csv, tmp_path, capsys):
        code = run_cli(["winjud", "--input", single_csv,
                        "--out", str(tmp_path / "x.csv"),
                        "--config", str(tmp_path / "missing.json")])
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("doc,key", [
        ({"n_trees": 2.5}, "n_trees"),
        ({"n_trees": True}, "n_trees"),
        ({"lambda_grid": [0.0, "x"]}, "lambda_grid"),
        ({"variant": "bogus"}, "variant"),
        ({"model_out": 5}, "model_out"),
    ])
    def test_config_values_are_type_checked(self, single_csv, tmp_path, capsys, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = run_cli(["train-gbt", "--input", single_csv,
                        "--model-out", str(tmp_path / "m.json"),
                        "--config", str(cfg)] + GBT_FAST)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert key in err

    def test_config_values_take_the_flag_type(self, single_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_trees": 3, "lambda_grid": [0, 1], "rho_grid": "0.5",
                                   "min_gain": "0.01"}))
        manifest = tmp_path / "m.manifest.json"
        assert run_cli(["train-gbt", "--input", single_csv,
                        "--model-out", str(tmp_path / "m.json"),
                        "--manifest", str(manifest), "--config", str(cfg)]) == 0
        doc = json.loads(manifest.read_text())["config"]
        assert (doc["n_trees"], doc["lambda_grid"], doc["rho_grid"], doc["min_gain"]) == (
            3, [0.0, 1.0], [0.5], 0.01)

    @pytest.mark.parametrize("config_first", [True, False])
    def test_config_does_not_leak_into_other_runs(self, single_csv, tmp_path, config_first):
        # Runs without --config share one parser per process; a --config
        # run must leave it unchanged, and must not be changed by it.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"wv": 7, "beta": 0.25}))

        def run(extra, name):
            manifest = tmp_path / f"{name}.manifest.json"
            assert run_cli(["winjud", "--input", single_csv, "--out", str(tmp_path / name),
                            "--manifest", str(manifest)] + extra) == 0
            doc = json.loads(manifest.read_text())["config"]
            return doc["w_v"], doc["beta"]

        runs = [(["--config", str(cfg)], "cfg.csv", (7, 0.25)), ([], "plain.csv", (5, 0.5))]
        for extra, name, expected in (runs if config_first else runs[::-1]):
            assert run(extra, name) == expected

    def test_non_object_config(self, single_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code = run_cli(["winjud", "--input", single_csv,
                        "--out", str(tmp_path / "x.csv"), "--config", str(cfg)])
        assert code == 1
        assert "JSON object" in capsys.readouterr().err


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, single_csv, pool_csv, tmp_path):
        for cmd, source, extra, side_outputs in (
                ("winjud", single_csv, [], ()),
                ("train-lstm", single_csv, LSTM_FAST, ()),
                ("maml", pool_csv, MAML_FAST, ("--state-out",))):
            runs = []
            for run in ("one", "two"):
                out = tmp_path / f"{cmd}-{run}.out"
                sides = [tmp_path / f"{cmd}-{run}{flag}.json" for flag in side_outputs]
                args = [cmd, "--input", source, "--out", str(out),
                        "--manifest", str(tmp_path / f"{cmd}-{run}.manifest.json"),
                        "--seed", "3"] + extra
                for flag, side in zip(side_outputs, sides):
                    args += [flag, str(side)]
                assert run_cli(args) == 0
                runs.append([path.read_bytes() for path in (out, *sides)])
            assert runs[0] == runs[1]

    def test_manifests_match_excluding_duration(self, single_csv, tmp_path):
        docs = []
        for run in ("one", "two"):
            manifest = tmp_path / f"{run}.manifest.json"
            assert run_cli(["dbwp", "--input", single_csv,
                            "--out", str(tmp_path / f"{run}.csv"),
                            "--manifest", str(manifest)]) == 0
            doc = json.loads(manifest.read_text())
            doc.pop("duration_s")
            doc.pop("outputs")  # paths differ by construction here
            docs.append(doc)
        assert docs[0] == docs[1]


def _no_libc(name):
    raise OSError(f"cannot open {name!r}")


class TestFreedHeapKept:
    # train-lstm twice in a fresh interpreter: with freed memory returned to
    # the kernel, the second run page-faults ~22,000 times; kept, ~20
    FAULT_SCRIPT = textwrap.dedent("""
        import contextlib, io, os, resource, sys
        from matchkit.cli import run_cli
        from matchkit.ingest import SyntheticSpec, generate_synthetic_match, write_timeline_csv
        tmp = sys.argv[1]
        csv_path = os.path.join(tmp, "match.csv")
        write_timeline_csv(generate_synthetic_match(
            SyntheticSpec(n_points=300, seed=42, match_id="demo-1301")), csv_path)
        argv = ["train-lstm", "--input", csv_path, "--out", os.path.join(tmp, "r.json"),
                "--epochs", "20"]
        for _ in range(2):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            with contextlib.redirect_stdout(io.StringIO()):
                assert run_cli(argv) == 0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        print(faults)
    """)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator only")
    def test_second_run_does_not_fault_memory_back_in(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", self.FAULT_SCRIPT, str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 1000

    @pytest.mark.parametrize("fake_cdll", [_no_libc, lambda name: object()],
                             ids=["oserror", "no-mallopt"])
    def test_without_mallopt_is_a_no_op(self, fake_cdll, single_csv, tmp_path, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
        assert cli._keep_freed_heap.__wrapped__() is None
        monkeypatch.setattr(cli, "_keep_freed_heap", cli._keep_freed_heap.__wrapped__)
        assert run_cli(["dbwp", "--input", single_csv, "--out", str(tmp_path / "d.csv")]) == 0
