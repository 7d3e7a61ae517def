"""Regenerate mkbench/reference.json from the program as it is now.

    python3 mkbench/make_reference.py

Runs one pass of every workload on each of `checks.REFERENCE_SEEDS` and
stores, per command kind, the digest or the learner numbers that
`checks.check_reference` compares with.  The file is rebuilt whole.  Only
rerun this when an output is meant to change, and say why.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from matchkit import cli

    import checks
    import workloads

    doc = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        for workload in workloads.WORKLOADS:
            for seed in checks.REFERENCE_SEEDS:
                work = Path(tmp) / f"{workload}-{seed}"
                commands = workloads.make_inputs(workload, seed, work / "inputs")
                pass_dir = work / "pass"
                pass_dir.mkdir()
                codes, _, _ = run.run_pass(cli, commands, pass_dir)
                if any(code != 0 for code in codes):
                    print(f"error: {workload} seed {seed}: a command failed", file=sys.stderr)
                    return 1
                digests = [checks.file_digests(cmd, pass_dir) for cmd in commands]
                doc.setdefault(workload, {})[str(seed)] = checks.observe(commands, pass_dir,
                                                                         digests)
                shutil.rmtree(work)
                print(f"{workload} seed {seed}: done", flush=True)
    checks.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    run.limit_blas_threads()
    sys.exit(main())
