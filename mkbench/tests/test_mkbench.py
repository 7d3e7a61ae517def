"""Tests of the benchmark itself: seeded inputs, output checks and tracing.

    python3 -m pytest mkbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from matchkit import cli, gbtree, maml, neural  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _shape(commands):
    return [(c.kind, c.outputs, c.points) for c in commands]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_byte_identical_for_a_fixed_seed(workload, tmp_path):
    first = workloads.make_inputs(workload, 7, tmp_path / "a")
    again = workloads.make_inputs(workload, 7, tmp_path / "b")
    other = workloads.make_inputs(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _shape(first) == _shape(again)
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_tournament_work_does_not_depend_on_the_seed(tmp_path):
    a = workloads.make_inputs("tournament-series", 1, tmp_path / "a")
    b = workloads.make_inputs("tournament-series", 2, tmp_path / "b")
    assert len(a) == 1 + 4 * len(workloads.TOURNAMENT)
    assert sum(c.points for c in a) == sum(c.points for c in b)
    assert [c.points for c in a] != [c.points for c in b]


@pytest.fixture(scope="module")
def tournament_pass(tmp_path_factory):
    work = tmp_path_factory.mktemp("tournament")
    commands = workloads.make_inputs("tournament-series", 0, work / "inputs")
    pass_dir = work / "pass"
    pass_dir.mkdir()
    codes, _, _ = run.run_pass(cli, commands, pass_dir)
    assert codes == [0] * len(commands)
    return commands, pass_dir


def _corrupt_copy(pass_dir: Path, tmp_path: Path, name: str) -> Path:
    copy = tmp_path / "pass"
    shutil.copytree(pass_dir, copy)
    target = copy / name
    data = bytearray(target.read_bytes())
    data[-2] = ord("7") if data[-2] != ord("7") else ord("3")  # a digit of the last value
    target.write_bytes(bytes(data))
    return copy


def test_reference_accepts_the_program_output(tournament_pass):
    commands, pass_dir = tournament_pass
    digests = [checks.file_digests(cmd, pass_dir) for cmd in commands]
    reference = checks.load_reference("tournament-series", 0)
    assert reference is not None
    assert checks.check_reference(reference, commands, pass_dir, digests) == set()


def test_reference_rejects_a_corrupted_output(tournament_pass, tmp_path):
    commands, pass_dir = tournament_pass
    copy = _corrupt_copy(pass_dir, tmp_path, "dbwp-1405.csv")
    digests = [checks.file_digests(cmd, copy) for cmd in commands]
    failed = checks.check_reference(checks.load_reference("tournament-series", 0),
                                    commands, copy, digests)
    assert failed == {i for i, cmd in enumerate(commands) if cmd.kind == "dbwp"}


def test_repeat_check_rejects_a_changed_output(tournament_pass, tmp_path):
    commands, pass_dir = tournament_pass
    base = [checks.file_digests(cmd, pass_dir) for cmd in commands]
    copy = _corrupt_copy(pass_dir, tmp_path, "momentum-1301.csv")
    digests = [checks.file_digests(cmd, copy) for cmd in commands]
    changed = [i for i, cmd in enumerate(commands) if cmd.outputs[0][1] == "momentum-1301.csv"]
    assert checks.check_repeat(base, digests) == set(changed)
    (copy / "winjud-1302.csv").unlink()
    digests = [checks.file_digests(cmd, copy) for cmd in commands]
    assert len(checks.check_repeat(base, digests)) == 2


def test_reference_holds_every_reference_seed_of_every_workload():
    for workload in workloads.WORKLOADS:
        for seed in checks.REFERENCE_SEEDS:
            assert checks.load_reference(workload, seed), (workload, seed)


def test_learner_numbers_allow_rounding_drift_only():
    reference = checks.load_reference("lstm-train", 0)["train-lstm"]
    assert checks.mismatches(reference, {k: v * (1 + 1e-12) for k, v in reference.items()}) == []
    off = dict(reference, test_mse=reference["test_mse"] * (1 + 1e-4))
    assert len(checks.mismatches(reference, off)) == 1
    assert checks.mismatches(reference, {"test_mse": 1.0}) != []


def test_trace_accounts_for_every_command(tmp_path):
    commands = workloads.make_inputs("tournament-series", 3, tmp_path / "inputs")[:9]
    modules = {"cli": cli, "gbtree": gbtree, "maml": maml, "neural": neural}
    originals = {name: dict(vars(module)) for name, module in modules.items()}
    tracer = tracing.Tracer(modules)
    for k in (0, 1):
        (tmp_path / f"pass-{k}").mkdir()
        tracer.install(k)
        try:
            codes, _, _ = run.run_pass(cli, commands, tmp_path / f"pass-{k}", tracer)
        finally:
            tracer.uninstall()
        assert codes == [0] * len(commands)
    assert {name: dict(vars(module)) for name, module in modules.items()} == originals
    first, second = tracer.pass_metrics(0), tracer.pass_metrics(1)
    counts = {k: v for k, v in first.items() if isinstance(v, int)}
    assert counts == {k: v for k, v in second.items() if isinstance(v, int)}
    assert first["cli.commands"] == len(commands)
    assert first["ingest.rows_read"] == sum(c.points for c in commands)
    roots = sum(end - start for _, parent, p, *_, start, end in tracer.spans
                if parent is None and p == 0)
    counting = sum(tracer.counter_time[s[0]] for s in tracer.spans if s[2] == 0)
    assert counting > 0
    assert first["trace.self_sum_s"] == pytest.approx(roots - counting, rel=1e-9)
    assert all(first[f"{layer}.self_s"] >= 0 for layer in tracing.LAYERS)


def test_probe_scales_by_the_speed_seen_during_the_interval():
    speed = probe.SpeedProbe()
    # Two samples inside [1, 2] at twice the reference loop time, one far away.
    speed.starts = [1.2, 1.6, 9.0]
    speed.times = [2 * probe.REFERENCE_S] * 2 + [probe.REFERENCE_S]
    expected = (1.0 - 4 * probe.REFERENCE_S) * 0.5
    assert speed.at_reference_speed(1.0, 2.0) == pytest.approx(expected, rel=1e-12)
    with speed:
        sum(range(3_000_000))
    assert len(speed.times) > 3 and all(t > 0 for t in speed.times[3:])


def test_a_run_makes_two_passes_however_short(tmp_path):
    done = subprocess.run([sys.executable, "mkbench/run.py", "--workload", "lstm-train",
                           "--seed", "11", "--seconds", "0.01", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "no stored reference for seed 11; outputs repeated over 2 passes" in done.stdout
    extra = json.loads(next(line for line in lines if line.startswith("extra "))[6:])
    assert extra["passes"] == 2 and extra["failed_ratio"] == 0
    assert extra["lstm_train_s"] > 0 and extra["wall_cmd_p50_ms"] > 0
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "mkbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "mkbench/run.py", "--workload", "gbt-fit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
