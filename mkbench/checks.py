"""Output checks: stored references for known seeds, repeatability for all.

Exact outputs (scoring CSVs, `ingest --out`, GBT model JSON) are compared by
sha256.  The learners' numbers (`train-lstm`, `maml`) are compared within
REL_TOL, because a rewrite of the LSTM maths may move them at rounding
level.  Every output must also repeat byte for byte across the passes of a
run, on any seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# The seeds `reference.json` holds, for every workload.
REFERENCE_SEEDS = range(10)
# Rounding-level tolerance for the learners' numbers.
REL_TOL = 1e-6
ABS_TOL = 1e-12


def file_digests(command, pass_dir: Path) -> dict[str, str] | None:
    """sha256 of each output file, or None when one is missing."""
    digests = {}
    for _, name in command.outputs:
        try:
            digests[name] = hashlib.sha256((pass_dir / name).read_bytes()).hexdigest()
        except FileNotFoundError:
            return None
    return digests


def _lstm_summary(paths: dict[str, Path]) -> dict[str, float]:
    doc = json.loads(paths["report.json"].read_text(encoding="utf-8"))
    losses = doc["epoch_losses"]
    return {"test_mse": doc["test_mse"], "loss_first": losses[0],
            "loss_last": losses[-1], "loss_sum": math.fsum(losses)}


def _maml_summary(paths: dict[str, Path]) -> dict[str, float]:
    out = {}
    with open(paths["queries.csv"], encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            out[f"{row['match_id']}.maml_mse"] = float(row["maml_mse"])
            out[f"{row['match_id']}.scratch_mse"] = float(row["scratch_mse"])
    doc = json.loads(paths["state.json"].read_text(encoding="utf-8"))
    history = doc["loss_history"]
    out.update(loss_first=history[0], loss_last=history[-1], loss_sum=math.fsum(history))
    # Count, sum and sum of squares do not depend on how the arrays are laid out.
    values = np.concatenate([np.ravel(array) for array in doc["params"].values()])
    out.update(param_count=float(values.size), param_sum=math.fsum(values),
               param_sum_sq=math.fsum(values * values))
    return out


NUMERIC_SUMMARIES = {"train-lstm": _lstm_summary, "maml": _maml_summary}


def observe(commands, pass_dir: Path, digests) -> dict[str, object]:
    """What the reference holds for one pass: per command kind, either one
    digest over all its outputs or a dict of the learner's numbers."""
    observed: dict[str, object] = {}
    by_kind: dict[str, list[int]] = {}
    for i, cmd in enumerate(commands):
        by_kind.setdefault(cmd.kind, []).append(i)
    for kind, indices in by_kind.items():
        if any(digests[i] is None for i in indices):
            continue
        if kind in NUMERIC_SUMMARIES:
            (i,) = indices
            paths = {name: pass_dir / name for _, name in commands[i].outputs}
            observed[kind] = NUMERIC_SUMMARIES[kind](paths)
        else:
            lines = "".join(f"{name} {sha}\n" for i in indices
                            for name, sha in sorted(digests[i].items()))
            observed[kind] = hashlib.sha256(lines.encode()).hexdigest()
    return observed


def mismatches(expected, actual) -> list[str]:
    """Differences between a stored reference and an observed value."""
    if isinstance(expected, str):
        return [] if expected == actual else [f"digest {actual} != reference {expected}"]
    if not isinstance(actual, dict) or set(actual) != set(expected):
        return [f"fields {sorted(actual) if isinstance(actual, dict) else actual} "
                f"!= reference {sorted(expected)}"]
    return [f"{key}: {actual[key]!r} != reference {value!r}"
            for key, value in sorted(expected.items())
            if not math.isclose(actual[key], value, rel_tol=REL_TOL, abs_tol=ABS_TOL)]


def load_reference(workload: str, seed: int):
    """The stored reference of one workload and seed, or None if there is none."""
    doc = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return doc.get(workload, {}).get(str(seed))


def check_reference(reference, commands, pass_dir: Path, digests) -> set[int]:
    """Indices of commands whose outputs disagree with the reference."""
    observed = observe(commands, pass_dir, digests)
    failed = set()
    for kind, expected in sorted(reference.items()):
        problems = (mismatches(expected, observed[kind]) if kind in observed
                    else ["output missing"])
        if problems:
            print(f"check: {kind} differs from the reference: {'; '.join(problems)}",
                  file=sys.stderr)
            failed.update(i for i, cmd in enumerate(commands) if cmd.kind == kind)
    return failed


def check_repeat(base, digests) -> set[int]:
    """Indices of commands whose outputs differ from the first pass."""
    failed = {i for i, (a, b) in enumerate(zip(base, digests)) if a != b}
    for i in sorted(failed):
        print(f"check: command {i} output differs from the first pass", file=sys.stderr)
    return failed
