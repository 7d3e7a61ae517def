"""The benchmark's tracer patches names that matchkit still has, and sees the
calls made through them.

`mkbench/tracing.py` wraps each `(module, attribute)` of its `HOOKS` for a
traced pass.  A refactor that drops or renames one of those names, or stops
calling a layer through it, would otherwise break only
`mkbench/run.py --trace 1`, which this suite does not run.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "mkbench" / "tracing.py"

# Tiny runs of the subcommands that reach every `cli` hook, traced from a
# fresh interpreter as `mkbench/run.py` traces them: the tracer is installed
# before any learner subcommand has run, so each learner module's first
# call happens under it.
TRACED_SCRIPT = textwrap.dedent("""
    import contextlib, io, json, os, sys
    import tracing
    from matchkit import cli, gbtree, maml, neural
    from matchkit.ingest import SyntheticSpec, generate_synthetic_match, write_timeline_csv
    tmp = sys.argv[1]
    single, pool = os.path.join(tmp, "match.csv"), os.path.join(tmp, "pool.csv")
    write_timeline_csv(generate_synthetic_match(SyntheticSpec(n_points=120, seed=3)), single)
    write_timeline_csv([generate_synthetic_match(SyntheticSpec(
        n_points=100, seed=s, match_id=f"demo-{mid}")) for s, mid in enumerate(
        [1301, 1302, 1303, 1601])], pool)
    out = lambda name: os.path.join(tmp, name)
    net = ["--hidden-dense", "4", "--hidden-lstm", "2", "--seq-len", "4", "--epochs", "2"]
    commands = [
        ["ingest", "--input", single, "--out", out("norm.csv")],
        ["winjud", "--input", single, "--out", out("wj.csv")],
        ["momentum", "--input", single, "--out", out("mo.csv")],
        ["dbwp", "--input", single, "--out", out("db.csv")],
        ["train-gbt", "--input", single, "--model-out", out("model.json"), "--n-trees", "2"],
        ["train-lstm", "--input", single, "--out", out("report.json")] + net,
        ["maml", "--input", pool, "--out", out("q.csv"), "--state-out", out("state.json"),
         "--meta-iterations", "2", "--tasks-per-batch", "2"] + net,
    ]
    tracer = tracing.Tracer({"cli": cli, "gbtree": gbtree, "maml": maml, "neural": neural})
    tracer.install(0)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.run_cli(argv) for argv in commands]
    finally:
        tracer.uninstall()
    names = {span[0]: span[5] for span in tracer.spans}
    print(json.dumps({"codes": codes, "spans": [
        [names[span[1]] if span[1] is not None else None, span[5]] for span in tracer.spans]}))
""")


def _hooks():
    spec = importlib.util.spec_from_file_location("mkbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.HOOKS


def test_every_traced_name_resolves():
    hooks = _hooks()
    assert hooks
    missing = [f"matchkit.{module}.{attr}" for module, attr, *_ in hooks
               if not callable(getattr(importlib.import_module(f"matchkit.{module}"), attr, None))]
    assert missing == []


def test_every_cli_hook_sees_its_call(tmp_path):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(TRACING.parent)])}
    done = subprocess.run([sys.executable, "-c", TRACED_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [0] * 7
    called = {name for _, name in result["spans"]}
    wanted = {f"cli.{attr}" for module, attr, *_ in _hooks() if module == "cli"}
    assert sorted(wanted - called) == []
    # A learner function the CLI calls runs once a call: its `cli` span has
    # no child span of the same function through its own module.
    doubled = [(parent, name) for parent, name in result["spans"]
               if parent and parent.split(".")[1] == name.split(".")[1]]
    assert doubled == []
