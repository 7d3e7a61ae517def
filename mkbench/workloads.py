"""Seeded inputs and per-pass command lists for the matchkit benchmark.

A workload turns a seed into point-by-point CSV files (the only thing the
program sees) and a list of `run_cli` commands that make up one pass over
them.  The benchmark repeats the pass, one command at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from matchkit.ingest import SyntheticSpec, generate_synthetic_match, write_timeline_csv

ID_PREFIX = "2023-wimbledon-"
# Match numbers of a 31-match draw, in the shape of the real tournament file.
TOURNAMENT = (*range(1301, 1317), *range(1401, 1409), *range(1501, 1505), 1601, 1602, 1701)
# Seven support ids and two that the built-in id split sends to the query pool.
MAML_POOL = (1301, 1302, 1303, 1304, 1401, 1402, 1501, 1601, 1602)
MATCH_POINTS = 300
SCORING_KINDS = ("winjud", "momentum", "dbwp", "correlate")

WORKLOADS = ("tournament-series", "gbt-fit", "lstm-train", "maml-meta")


@dataclass(frozen=True)
class Command:
    """One `run_cli` call: a subcommand, its input, and the files it writes."""

    kind: str
    args: tuple[str, ...]
    outputs: tuple[tuple[str, str], ...]  # (flag, file name inside the pass directory)
    points: int  # timeline points in the command's input

    def argv(self, pass_dir: Path) -> list[str]:
        argv = list(self.args)
        for flag, name in self.outputs:
            argv += [flag, str(pass_dir / name)]
        return argv


def _spec(rng: random.Random, n_points: int, number: int) -> SyntheticSpec:
    return SyntheticSpec(
        n_points=n_points,
        p_serve_win=round(rng.uniform(0.55, 0.72), 3),
        seed=rng.randrange(2**31),
        match_id=f"{ID_PREFIX}{number}",
    )


def tournament_lengths(rng: random.Random) -> list[int]:
    """Points per match: a fixed 150..420 ladder in seeded order.

    The total stays the same on every seed, so the seed changes what the
    matches hold and which match is long, but not the amount of work.
    """
    count = len(TOURNAMENT)
    lengths = [150 + (270 * k) // (count - 1) for k in range(count)]
    rng.shuffle(lengths)
    return lengths


def make_inputs(workload: str, seed: int, inputs_dir: Path) -> list[Command]:
    """Write the workload's CSV files for `seed` and return one pass of commands."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    inputs_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)

    if workload == "tournament-series":
        timelines = [generate_synthetic_match(_spec(rng, n, number))
                     for n, number in zip(tournament_lengths(rng), TOURNAMENT)]
        whole = inputs_dir / "tournament.csv"
        write_timeline_csv(timelines, str(whole))
        commands = [Command("ingest", ("ingest", "--input", str(whole)),
                            (("--out", "tournament.csv"),),
                            sum(len(tl) for tl in timelines))]
        for tl in timelines:
            path = inputs_dir / f"{tl.match_id}.csv"
            write_timeline_csv(tl, str(path))
            number = tl.match_id[len(ID_PREFIX):]
            commands += [Command(kind, (kind, "--input", str(path)),
                                 (("--out", f"{kind}-{number}.csv"),), len(tl))
                         for kind in SCORING_KINDS]
        return commands

    if workload == "maml-meta":
        pool = [generate_synthetic_match(_spec(rng, MATCH_POINTS, number))
                for number in MAML_POOL]
        path = inputs_dir / "pool.csv"
        write_timeline_csv(pool, str(path))
        return [Command("maml", ("maml", "--input", str(path)),
                        (("--out", "queries.csv"), ("--state-out", "state.json")),
                        MATCH_POINTS * len(pool))]

    path = inputs_dir / "match.csv"
    write_timeline_csv(generate_synthetic_match(_spec(rng, MATCH_POINTS, TOURNAMENT[0])),
                       str(path))
    if workload == "gbt-fit":
        return [Command("train-gbt", ("train-gbt", "--input", str(path)),
                        (("--model-out", "model.json"),), MATCH_POINTS)]
    return [Command("train-lstm", ("train-lstm", "--input", str(path)),
                    (("--out", "report.json"),), MATCH_POINTS)]
