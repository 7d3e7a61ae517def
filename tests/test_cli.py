import csv
import hashlib
import io
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import textwrap
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from matchkit import _fork, cli, gbtree
from matchkit.cli import build_parser, run_cli
from matchkit.dbwp import DbwpParams, dbwp_scores
from matchkit.gbtree import GbtConfig
from matchkit.ingest import (
    SyntheticSpec,
    generate_synthetic_match,
    load_match_csv,
    write_timeline_csv,
)
from matchkit.maml import (
    MamlConfig,
    evaluate_queries,
    make_task,
    meta_state_to_json,
    meta_train,
    split_support_query,
    write_meta_eval_csv,
)
from matchkit.momentum import MomentumConfig, momentum_series
from matchkit.neural import VARIANT_COLUMNS, NetConfig
from matchkit.winjud import WinjudParams


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


@pytest.fixture
def one_helper(monkeypatch):
    """Fork one helper, for meta-training or a grid search, whatever the core count."""
    if hasattr(os, "fork"):
        monkeypatch.setattr(_fork, "_helper_count", lambda n: 1)


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
        ("momentum", ["--game-factor", "1e308"], "game_factor"),
        ("momentum", ["--set-factor", "1e308"], "set_factor"),
        ("winjud", ["--beta", "1e308"], "beta"),
        ("correlate", ["--ace-bonus", "1e308"], "overflows"),
        ("correlate", ["--unforced-error-penalty", "1e308", "--grid-step", "1e308"],
         "overflows"),
        # numpy's own error for a negative seed does not name it
        ("train-lstm", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_unusable_scoring_settings(self, single_csv, tmp_path, capsys,
                                       command, flags, field):
        code = run_cli([command, "--input", single_csv,
                        "--out", str(tmp_path / "o.csv")] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert field in err

    # capfd, not capsys: a helper process writes to file descriptor 2 directly
    def test_diverging_lstm_is_one_stderr_line(self, single_csv, tmp_path, capfd, monkeypatch):
        for helpers in (0, 1, 2) if hasattr(os, "fork") else (0,):
            monkeypatch.setattr(_fork, "_helper_count", lambda n, h=helpers: h)
            code = run_cli(["train-lstm", "--input", single_csv,
                            "--out", str(tmp_path / "r.json"), "--adam-lr", "1e308"] + LSTM_FAST)
            assert code == 1
            assert multiprocessing.active_children() == []
            assert capfd.readouterr().err.splitlines() == [
                "error: epoch losses must be finite and non-negative"]

    # capfd, not capsys: a helper process writes to file descriptor 2 directly
    @pytest.mark.parametrize("flags, message", [
        pytest.param(["--meta-lr", "1e308"], "meta-training diverged: task '", id="meta-lr"),
        pytest.param(["--inner-lr", "1e308"], "meta-training diverged: task '", id="inner-lr"),
        pytest.param(["--inner-lr", "1e308", "--inner-epochs", "0"],
                     "fine-tuning diverged: task '", id="fine-tune"),
    ])
    def test_diverging_maml_is_one_stderr_line(self, pool_csv, tmp_path, capfd, one_helper,
                                               flags, message):
        code = run_cli(["maml", "--input", pool_csv, "--out", str(tmp_path / "q.csv")]
                       + MAML_FAST + flags)
        assert code == 1
        assert multiprocessing.active_children() == []
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: " + message)

    @pytest.mark.parametrize("fraction", ["1e308", "2"])
    def test_maml_train_fraction_checked_before_tasks(self, pool_csv, tmp_path, capsys,
                                                      fraction):
        code = run_cli(["maml", "--input", pool_csv, "--out", str(tmp_path / "q.csv"),
                        "--train-fraction", fraction] + MAML_FAST)
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: train_fraction must be in (0, 1), got {float(fraction)}"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="helpers are forked")
    def test_grid_search_helper_that_dies_is_one_stderr_line(self, single_csv, tmp_path, capfd,
                                                             monkeypatch, one_helper):
        main = os.getpid()
        boost = gbtree._boost

        def dies_in_a_helper(*args):
            if os.getpid() != main:
                os._exit(3)
            return boost(*args)

        monkeypatch.setattr(gbtree, "_boost", dies_in_a_helper)
        code = run_cli(["train-gbt", "--input", single_csv,
                        "--model-out", str(tmp_path / "m.json")] + GBT_FAST)
        assert code == 1
        assert multiprocessing.active_children() == []
        assert capfd.readouterr().err.splitlines() == [
            "error: a grid-search helper process ended unexpectedly"]

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

    def test_out_of_memory_is_one_stderr_line(self, single_csv, tmp_path, capsys,
                                              monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 22.4 GiB for an array")

        monkeypatch.setattr(cli, "train_deep_lstm", exhausted)
        code = run_cli(["train-lstm", "--input", single_csv,
                        "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: out of memory: Unable to allocate 22.4 GiB for an array"]


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
    def test_train_gbt_writes_model_json(self, single_csv, tmp_path, capsys, one_helper):
        model_path = tmp_path / "model.json"
        code = run_cli(["train-gbt", "--input", single_csv,
                        "--model-out", str(model_path)] + GBT_FAST)
        assert code == 0
        assert multiprocessing.active_children() == []
        doc = json.loads(Path(model_path).read_text())
        assert doc["format_version"] == 1
        assert "test accuracy" in capsys.readouterr().out

    def test_ablate_emits_exactly_four_variant_rows(self, single_csv, tmp_path, one_helper):
        out = tmp_path / "ablation.csv"
        code = run_cli(["ablate", "--input", single_csv, "--out", str(out),
                        "--seed", "7"] + GBT_FAST)
        assert code == 0
        assert multiprocessing.active_children() == []
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

    def test_maml_comparison_csv_and_state(self, pool_csv, tmp_path, one_helper):
        out = tmp_path / "queries.csv"
        state = tmp_path / "state.json"
        code = run_cli(["maml", "--input", pool_csv, "--out", str(out),
                        "--state-out", str(state)] + MAML_FAST)
        assert code == 0
        assert multiprocessing.active_children() == []
        rows = read_rows(out)
        assert rows[0] == ["match_id", "maml_mse", "scratch_mse"]
        assert sorted(r[0] for r in rows[1:]) == ["demo-1601", "demo-1701"]
        doc = json.loads(Path(state).read_text())
        assert doc["format_version"] == 4
        assert len(doc["loss_history"]) == 5

    def test_maml_explicit_partition(self, pool_csv, tmp_path):
        out = tmp_path / "q2.csv"
        code = run_cli(["maml", "--input", pool_csv, "--out", str(out),
                        "--support", "demo-1301,demo-1302,demo-1303,demo-1304,demo-1401,demo-1601",
                        "--query", "demo-1701"] + MAML_FAST)
        assert code == 0
        rows = read_rows(out)
        assert [r[0] for r in rows[1:]] == ["demo-1701"]

    def test_maml_seed_is_the_library_net_seed(self, pool_csv, tmp_path):
        # --seed sets NetConfig.seed, which draws both the initialization and
        # the meta-training tasks: the CLI run equals the library run.
        out, state = tmp_path / "queries.csv", tmp_path / "state.json"
        assert run_cli(["maml", "--input", pool_csv, "--out", str(out),
                        "--state-out", str(state), "--seed", "3"] + MAML_FAST) == 0
        net = NetConfig(input_dim=len(VARIANT_COLUMNS["full"]), hidden_dense=4, hidden_lstm=2,
                        seq_len=4, dropout_rate=0.0, seed=3)
        config = MamlConfig(net=net, meta_iterations=5, meta_lr=0.01, inner_lr=0.05)
        by_id = {tl.match_id: tl for tl in load_match_csv(pool_csv)}
        tasks = {mid: make_task(tl, dbwp_scores(tl, DbwpParams(w_v=3)),
                                momentum_series(tl, MomentumConfig()), config)
                 for mid, tl in by_id.items()}
        support, query = split_support_query(list(by_id))
        meta = meta_train([tasks[mid] for mid in support], config)
        buf = io.StringIO()
        write_meta_eval_csv(evaluate_queries(meta, [tasks[mid] for mid in query], config), buf)
        assert out.read_text() == buf.getvalue()
        assert state.read_text() == meta_state_to_json(meta) + "\n"

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
        assert "seed" not in doc  # only the learners take --seed
        assert doc["duration_s"] >= 0.0
        # the digest taken as the CSV reader pulls the file through is the file's
        assert doc["inputs"] == {single_csv: hashlib.sha256(Path(single_csv).read_bytes())
                                 .hexdigest()}

    def test_digest_covers_what_the_reader_leaves_unread(self, single_csv, tmp_path,
                                                          monkeypatch):
        load = cli.load_match_csv

        def reads_a_little(stream):
            stream.read(100)
            return load(single_csv)

        monkeypatch.setattr(cli, "load_match_csv", reads_a_little)
        manifest = tmp_path / "run.json"
        assert run_cli(["winjud", "--input", single_csv, "--out", str(tmp_path / "wj.csv"),
                        "--manifest", str(manifest)]) == 0
        digest = json.loads(manifest.read_text())["inputs"][single_csv]
        assert digest == hashlib.sha256(Path(single_csv).read_bytes()).hexdigest()

    def test_default_manifest_path(self, single_csv, tmp_path):
        out = tmp_path / "db.csv"
        assert run_cli(["dbwp", "--input", single_csv, "--out", str(out)]) == 0
        assert (tmp_path / "db.csv.manifest.json").exists()

    @pytest.mark.parametrize("fault", ["missing-dir", "input-unreadable"])
    def test_manifest_write_error_is_one_stderr_line(self, single_csv, tmp_path, capsys,
                                                     monkeypatch, fault):
        manifest = tmp_path / "run.json"
        if fault == "missing-dir":
            manifest = tmp_path / "absent" / "run.json"
        else:  # the command's one read of its input, before any output
            def unreadable(path, *args, **kwargs):
                if path == single_csv:
                    raise PermissionError(13, "Permission denied", path)
                return open(path, *args, **kwargs)
            monkeypatch.setattr(cli, "open", unreadable, raising=False)
        code = run_cli(["winjud", "--input", single_csv, "--out", str(tmp_path / "wj.csv"),
                        "--manifest", str(manifest)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        if fault == "missing-dir":
            assert err[0].startswith("error: cannot write manifest: ")
        else:
            assert err[0] == f"error: [Errno 13] Permission denied: {single_csv!r}"
            assert not manifest.exists()


    @pytest.mark.parametrize("cmd, source, out_flag, extra, seed_at", [
        ("train-gbt", "single_csv", "--model-out", GBT_FAST, ()),
        ("ablate", "single_csv", "--out", GBT_FAST, ()),
        ("train-lstm", "single_csv", "--out", LSTM_FAST, ()),
        ("maml", "pool_csv", "--out", MAML_FAST, ("net",)),
    ])
    def test_learner_manifest_holds_the_seed_once(self, request, tmp_path, cmd, source,
                                                  out_flag, extra, seed_at):
        manifest = tmp_path / "run.json"
        assert run_cli([cmd, "--input", request.getfixturevalue(source),
                        out_flag, str(tmp_path / "out"), "--manifest", str(manifest),
                        "--seed", "3"] + extra) == 0
        doc = json.loads(manifest.read_text())
        assert "seed" not in doc
        config = doc["config"]
        for key in seed_at:
            assert "seed" not in config
            config = config[key]
        assert config["seed"] == 3


class TestFlagDefaults:
    # Flags whose dest is not the field's name.
    RENAMED = {"wv": "w_v", "ws": "w_s", "grid_step": "grid_step_s"}
    SOURCES = {
        "winjud": (WinjudParams,),
        "momentum": (MomentumConfig,),
        "dbwp": (DbwpParams,),
        "train-gbt": (GbtConfig,),
        "ablate": (GbtConfig,),
        "train-lstm": (NetConfig, DbwpParams),
        "maml": (MamlConfig, NetConfig, DbwpParams),
        "correlate": (DbwpParams, MomentumConfig),
    }

    @pytest.mark.parametrize("command", sorted(SOURCES))
    def test_parsed_defaults_equal_dataclass_defaults(self, command):
        out = "--model-out" if command == "train-gbt" else "--out"
        args = vars(build_parser()[0].parse_args([command, "--input", "in.csv", out, "o"]))
        for cls in self.SOURCES[command]:
            defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
            checked = 0
            for dest, value in args.items():
                name = self.RENAMED.get(dest, dest)
                if name in defaults:
                    assert value == defaults[name], (cls.__name__, dest)
                    checked += 1
            assert checked, cls.__name__

    @pytest.mark.parametrize("command", sorted(["ingest", *SOURCES]))
    def test_help_shows_each_flags_default(self, command, capsys):
        # Every flag with a default shows it, and a config field's flag its range too.
        assert run_cli([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        dest_of = {name: dest for dest, name in self.RENAMED.items()}
        ranges = {dest_of.get(f.name, f.name): f.metadata["range"]
                  for cls in self.SOURCES.get(command, ()) for f in fields(cls)}
        for action in build_parser()[1][command]._actions:
            if action.default is None or action.dest == "help":
                continue
            default = action.default
            shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
            metavar = ("{" + ",".join(map(str, action.choices)) + "}" if action.choices
                       else action.dest.upper())
            line = f"{action.option_strings[0]} {metavar} default {shown};"
            if action.dest in ranges:
                line += f" {ranges[action.dest].describe()}"
            assert line in text


class TestParserPinned:
    # Every subcommand's flags as (option, dest, type, default, choices,
    # required), in parser order; the help flag is left out.
    COMMON = [
        ("--input", "input", None, None, None, True),
        ("--match-id", "match_id", None, None, None, False),
        ("--config", "config", None, None, None, False),
        ("--manifest", "manifest", None, None, None, False),
    ]
    OUT = [("--out", "out", None, None, None, True)]
    DBWP = [
        ("--wv", "wv", "int", 5, None, False),
        ("--grid-step", "grid_step", "float", 1.0, None, False),
    ]
    MOMENTUM = [
        ("--set-factor", "set_factor", "float", 1.5, None, False),
        ("--game-factor", "game_factor", "float", 1.2, None, False),
        ("--b0-sets", "b0_sets", "float", 1.0, None, False),
        ("--b0-games", "b0_games", "float", 5.0, None, False),
        ("--ace-bonus", "ace_bonus", "float", 1.0, None, False),
        ("--double-fault-penalty", "double_fault_penalty", "float", -1.0, None, False),
        ("--unforced-error-penalty", "unforced_error_penalty", "float", -0.5, None, False),
    ]
    GBT = [
        ("--n-trees", "n_trees", "int", 100, None, False),
        ("--learning-rate", "learning_rate", "float", 0.1, None, False),
        ("--max-depth", "max_depth", "int", 4, None, False),
        ("--min-child-weight", "min_child_weight", "float", 1.0, None, False),
        ("--min-gain", "min_gain", "float", 0.0, None, False),
        ("--seed", "seed", "int", 0, None, False),  # GbtConfig.seed
        ("--lambda-grid", "lambda_grid", "_float_list", (0.0, 0.01, 0.1, 1.0, 10.0), None, False),
        ("--rho-grid", "rho_grid", "_float_list", (0.0, 0.25, 0.5, 0.75, 1.0), None, False),
    ]
    NET = [
        ("--hidden-dense", "hidden_dense", "int", 32, None, False),
        ("--hidden-lstm", "hidden_lstm", "int", 16, None, False),
        ("--dropout-rate", "dropout_rate", "float", 0.2, None, False),
        ("--huber-delta", "huber_delta", "float", 1.0, None, False),
        ("--adam-lr", "adam_lr", "float", 0.001, None, False),
        ("--epochs", "epochs", "int", 100, None, False),
        ("--seq-len", "seq_len", "int", 16, None, False),
        ("--seed", "seed", "int", 0, None, False),  # NetConfig.seed
    ]
    NEURAL_VARIANT = [
        ("--variant", "variant", None, "full", ("full", "no_momentum", "no_server"), False),
    ]
    EXPECTED = {
        "ingest": COMMON + [("--out", "out", None, None, None, False)],
        "winjud": COMMON + OUT + [
            ("--wv", "wv", "int", 5, None, False),
            ("--ws", "ws", "int", 5, None, False),
            ("--beta", "beta", "float", 0.5, None, False),
        ],
        "momentum": COMMON + OUT + MOMENTUM,
        "dbwp": COMMON + OUT + DBWP + [("--player", "player", "int", 1, (1, 2), False)],
        "train-gbt": COMMON + [
            ("--model-out", "model_out", None, None, None, True),
            ("--variant", "variant", None, "both",
             ("both", "none", "psych_only", "strat_only"), False),
        ] + GBT,
        "ablate": COMMON + OUT + GBT,
        "train-lstm": COMMON + OUT + NEURAL_VARIANT + [
            ("--repeats", "repeats", "int", 1, None, False),
            ("--loss-csv", "loss_csv", None, None, None, False),
        ] + NET + DBWP,
        "maml": COMMON + OUT + [
            ("--support", "support", "_id_list", None, None, False),
            ("--query", "query", "_id_list", None, None, False),
        ] + NEURAL_VARIANT + [
            ("--meta-lr", "meta_lr", "float", 0.0001, None, False),
            ("--inner-lr", "inner_lr", "float", 0.0001, None, False),
            ("--inner-epochs", "inner_epochs", "int", 3, None, False),
            ("--tasks-per-batch", "tasks_per_batch", "int", 4, None, False),
            ("--train-fraction", "train_fraction", "float", 0.8, None, False),
            ("--fine-tune-epochs", "fine_tune_epochs", "int", 5, None, False),
            ("--meta-iterations", "meta_iterations", "int", 100, None, False),
            ("--state-out", "state_out", None, None, None, False),
        ] + NET + DBWP,
        "correlate": COMMON + [("--out", "out", None, None, None, False)] + DBWP + MOMENTUM,
    }

    @staticmethod
    def _typed(rows):
        # 1 == 1.0 in Python, so each default's own type is compared too.
        return [row[:4] + (type(row[3]),) + row[4:] for row in rows]

    def test_every_flag_is_pinned(self):
        _, subcommands, _ = build_parser()
        assert list(subcommands) == list(self.EXPECTED)
        for name, sub in subcommands.items():
            actual = [(" ".join(a.option_strings), a.dest,
                       a.type.__name__ if a.type else None, a.default,
                       None if a.choices is None else tuple(a.choices), a.required)
                      for a in sub._actions if a.dest != "help"]
            assert self._typed(actual) == self._typed(self.EXPECTED[name]), name


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
        # A scoring command has no --seed, so a seed key is unknown to it too,
        # and a key is the flag's dest, so the field name w_v is unknown.
        for key in ("nonsense", "seed", "w_v"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: 1}))
            code = run_cli(["winjud", "--input", single_csv,
                            "--out", str(tmp_path / "x.csv"), "--config", str(cfg)])
            assert code == 1
            assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("command,doc,flags,params", [
        ("winjud", {"wv": 7, "ws": 3, "beta": 0.3}, ["--wv", "7", "--ws", "3", "--beta", "0.3"],
         {"w_v": 7, "w_s": 3, "beta": 0.3}),
        ("dbwp", {"wv": 4, "grid_step": 7.3, "player": 2},
         ["--wv", "4", "--grid-step", "7.3", "--player", "2"],
         {"w_v": 4, "grid_step_s": 7.3, "player": 2}),
    ])
    def test_config_keys_are_the_flag_dests(self, single_csv, tmp_path, capsys,
                                            command, doc, flags, params):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        runs = []
        for name, extra in (("config", ["--config", str(cfg)]), ("flags", flags)):
            out, manifest = tmp_path / f"{name}.csv", tmp_path / f"{name}.manifest.json"
            assert run_cli([command, "--input", single_csv, "--out", str(out),
                            "--manifest", str(manifest)] + extra) == 0
            runs.append((out.read_bytes(), capsys.readouterr().out,
                         json.loads(manifest.read_text())["config"]))
        assert runs[0] == runs[1]
        assert runs[0][2] == params

    def test_config_value_outside_the_flag_choices(self, single_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"player": 3}))
        code = run_cli(["dbwp", "--input", single_csv, "--out", str(tmp_path / "x.csv"),
                        "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "player" in err

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

    @pytest.mark.parametrize("spelling", ["--conf", "--config="])
    def test_config_flag_spellings(self, single_csv, tmp_path, spelling):
        # argparse takes an unambiguous prefix and the --flag=value form alike.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"wv": 9}))
        flag = [spelling + str(cfg)] if spelling.endswith("=") else [spelling, str(cfg)]
        manifest = tmp_path / "wj.manifest.json"
        assert run_cli(["winjud", "--input", single_csv, "--out", str(tmp_path / "wj.csv"),
                        "--manifest", str(manifest)] + flag) == 0
        assert json.loads(manifest.read_text())["config"]["w_v"] == 9

    def test_usage_error_comes_before_the_config_file(self, single_csv, tmp_path, capsys):
        code = run_cli(["winjud", "--input", single_csv,
                        "--config", str(tmp_path / "missing.json")])
        assert code == 2
        assert "--out" in capsys.readouterr().err


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, single_csv, pool_csv, tmp_path):
        for cmd, source, extra, side_outputs in (
                ("winjud", single_csv, [], ()),
                ("train-lstm", single_csv, LSTM_FAST + ["--seed", "3"], ()),
                ("maml", pool_csv, MAML_FAST + ["--seed", "3"], ("--state-out",))):
            runs = []
            for run in ("one", "two"):
                out = tmp_path / f"{cmd}-{run}.out"
                sides = [tmp_path / f"{cmd}-{run}{flag}.json" for flag in side_outputs]
                args = [cmd, "--input", source, "--out", str(out),
                        "--manifest", str(tmp_path / f"{cmd}-{run}.manifest.json")] + extra
                for flag, side in zip(side_outputs, sides):
                    args += [flag, str(side)]
                assert run_cli(args) == 0
                runs.append([path.read_bytes() for path in (out, *sides)])
            assert runs[0] == runs[1]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="helpers are forked")
    @pytest.mark.parametrize("cmd, source, outputs, extra", [
        ("train-gbt", "single_csv", ["--model-out"], GBT_FAST),
        ("ablate", "single_csv", ["--out"], GBT_FAST),
        ("maml", "pool_csv", ["--out", "--state-out"], MAML_FAST),
        ("train-lstm", "single_csv", ["--out", "--loss-csv"], LSTM_FAST),
    ])
    def test_outputs_do_not_depend_on_the_helper_count(self, request, tmp_path, monkeypatch,
                                                       cmd, source, outputs, extra):
        runs = []
        for helpers in (0, 1, 2):
            monkeypatch.setattr(_fork, "_helper_count", lambda n, h=helpers: h)
            paths = [tmp_path / f"{helpers}{flag}" for flag in outputs]
            args = [cmd, "--input", request.getfixturevalue(source)] + extra
            for flag, path in zip(outputs, paths):
                args += [flag, str(path)]
            assert run_cli(args) == 0
            assert multiprocessing.active_children() == []
            runs.append([path.read_bytes() for path in paths])
        assert runs[0] == runs[1] == runs[2]

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


class TestImportCost:
    def test_cli_import_leaves_multiprocessing_out(self):
        # meta_train imports it only when it forks helpers: the import alone
        # takes 3-5 ms of every command's start-up
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = "import sys, matchkit.cli; print('multiprocessing' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]

    # A scoring or ingest command loads none of these: the learners load on
    # their subcommand's first call, and multiprocessing on the first fork.
    LEARNERS = ("matchkit.gbtree", "matchkit.neural", "matchkit.maml", "matchkit._fork",
                "multiprocessing")
    SCORING_SCRIPT = textwrap.dedent("""
        import json, os, sys
        learners = json.loads(sys.argv[2])
        loaded = lambda: [name for name in learners if name in sys.modules]
        import matchkit.cli
        matchkit.cli.build_parser()
        after_parser = loaded()
        from matchkit.ingest import SyntheticSpec, generate_synthetic_match, write_timeline_csv
        path = os.path.join(sys.argv[1], "match.csv")
        write_timeline_csv(generate_synthetic_match(SyntheticSpec(n_points=60, seed=5)), path)
        codes = [matchkit.cli.run_cli(["ingest", "--input", path,
                                       "--out", os.path.join(sys.argv[1], "norm.csv")]),
                 matchkit.cli.run_cli(["winjud", "--input", path,
                                       "--out", os.path.join(sys.argv[1], "wj.csv")])]
        print(json.dumps([after_parser, codes, loaded()]))
    """)
    PACKAGE_SCRIPT = textwrap.dedent("""
        import json, sys
        import matchkit
        bare = sorted(name for name in sys.modules if name.startswith("matchkit."))
        from matchkit import train_gbt, GbtConfig, meta_train
        from matchkit import configs, gbtree, maml
        same = [train_gbt is gbtree.train_gbt, GbtConfig is configs.GbtConfig,
                meta_train is maml.meta_train]
        print(json.dumps([bare, same, sorted(set(matchkit.__all__) - set(dir(matchkit)))]))
    """)

    def _run(self, script, *args):
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", script, *args],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])  # after the commands' own lines

    def test_parser_and_scoring_commands_load_no_learner(self, tmp_path):
        after_parser, codes, after_commands = self._run(
            self.SCORING_SCRIPT, str(tmp_path), json.dumps(self.LEARNERS))
        assert after_parser == []
        assert codes == [0, 0]
        assert after_commands == []

    def test_package_exports_lazily(self):
        bare, same, undir = self._run(self.PACKAGE_SCRIPT)
        assert bare == []
        assert same == [True, True, True]
        assert undir == []

    def test_unknown_package_name_is_an_attribute_error(self):
        import matchkit
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            matchkit.no_such_name


class TestLearnersFromColdStart:
    """Each learner subcommand in a fresh interpreter, where its module is
    imported at the command's first call, writes what the same command
    writes in-process, where this suite has imported every learner already."""

    COMMANDS = {
        "train-gbt": (["--model-out", "model.json", "--n-trees", "2"], ["model.json"]),
        "ablate": (["--out", "ablation.csv", "--n-trees", "2"], ["ablation.csv"]),
        "train-lstm": (["--out", "report.json", "--loss-csv", "loss.csv", "--epochs", "2"]
                       + LSTM_FAST[:4], ["report.json", "loss.csv"]),
        "maml": (["--out", "queries.csv", "--state-out", "state.json", "--epochs", "2",
                  "--meta-iterations", "2"] + MAML_FAST[:6], ["queries.csv", "state.json"]),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_cold_run_equals_in_process_run(self, command, single_csv, pool_csv, tmp_path,
                                            capsys, monkeypatch):
        flags, outputs = self.COMMANDS[command]
        data = pool_csv if command == "maml" else single_csv
        cold, warm = tmp_path / "cold", tmp_path / "warm"
        cold.mkdir()
        warm.mkdir()
        argv = [command, "--input", data] + flags
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", "from matchkit.cli import main; main()",
                               *argv], cwd=cold, env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        monkeypatch.chdir(warm)
        assert run_cli(argv) == 0
        assert done.stdout == capsys.readouterr().out
        for name in outputs:
            assert (cold / name).read_bytes() == (warm / name).read_bytes(), name


class TestFreedHeapKept:
    # train-lstm twice in a fresh interpreter: with freed memory returned to
    # the kernel, the second run page-faults ~22,000 times; kept, ~20.  The
    # training runs in-process: a fork's copy-on-write faults land in the
    # parent too, and would hide the allocator's own.
    FAULT_SCRIPT = textwrap.dedent("""
        import contextlib, io, os, resource, sys
        from matchkit import _fork
        _fork._helper_count = lambda jobs: 0
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
