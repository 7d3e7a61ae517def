"""Fuzzed command lines: whatever the flag values, `run_cli` returns 0, 1 or
2, raises nothing, and a failure is one stderr line (after argparse's usage
text, for a usage error).  Numpy warnings count as stderr lines."""

from __future__ import annotations

import contextlib
import io
import math
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from matchkit._checks import field_ranges  # noqa: E402
from matchkit.cli import build_parser, run_cli  # noqa: E402
from matchkit.dbwp import DbwpParams  # noqa: E402
from matchkit.gbtree import GbtConfig  # noqa: E402
from matchkit.ingest import SyntheticSpec, generate_synthetic_match, write_timeline_csv  # noqa: E402
from matchkit.maml import MamlConfig  # noqa: E402
from matchkit.momentum import MomentumConfig  # noqa: E402
from matchkit.neural import NetConfig  # noqa: E402
from matchkit.winjud import WinjudParams  # noqa: E402

# Flags that name the files a command reads and writes, which the test sets.
FILE_FLAGS = {"--input", "--out", "--model-out", "--state-out", "--loss-csv", "--config",
              "--manifest"}
# No value here is a count above 2, so a fuzzed count cannot make a run long.
VALUES = ("1e308", "-1e308", "inf", "-inf", "nan", "-1", "0", "-0.0", "1e-308", "0.5",
          "1", "2", "", "x", "1,nan")
# Small learners: the fuzzed flags come after these, and override them.
SMALL = {
    "train-gbt": ["--n-trees", "3", "--lambda-grid", "0,1", "--rho-grid", "0.5"],
    "ablate": ["--n-trees", "3", "--lambda-grid", "0,1", "--rho-grid", "0.5"],
    "train-lstm": ["--epochs", "2", "--hidden-dense", "4", "--hidden-lstm", "2",
                   "--seq-len", "4"],
    "maml": ["--meta-iterations", "2", "--tasks-per-batch", "2", "--inner-epochs", "1",
             "--fine-tune-epochs", "1",
             "--hidden-dense", "4", "--hidden-lstm", "2", "--seq-len", "4"],
}
OUT_FLAG = {"train-gbt": "--model-out"}
_, SUBCOMMANDS, _ = build_parser()
FUZZED_FLAGS = {
    name: sorted(flag for action in sub._actions for flag in action.option_strings
                 if flag.startswith("--") and flag not in FILE_FLAGS | {"--help"})
    for name, sub in SUBCOMMANDS.items()
}
# Flags whose dest is not their config field's name.
RENAMED = {"wv": "w_v", "ws": "w_s", "grid_step": "grid_step_s"}


def _boundary_values(rng) -> set[str]:
    """Each declared bound and choice, with its neighbours on either side."""
    values = set()
    for value in (*rng.choices, rng.ge, rng.gt, rng.le, rng.lt):
        if value is not None:
            values |= ({value - 1, value, value + 1} if rng.kind is int else
                       {math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)})
    return {repr(v) for v in values}


# The boundary values declared for each field name, over every config that has it.
_BOUNDARIES: dict[str, set[str]] = {}
for _cls in (WinjudParams, MomentumConfig, DbwpParams, GbtConfig, NetConfig, MamlConfig):
    for _name, _rng in field_ranges(_cls):
        _BOUNDARIES.setdefault(_name, set()).update(_boundary_values(_rng))
FLAG_VALUES = {
    (name, flag): VALUES + tuple(sorted(_BOUNDARIES.get(RENAMED.get(action.dest, action.dest),
                                                        ())))
    for name, sub in SUBCOMMANDS.items() for action in sub._actions
    for flag in action.option_strings
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(one-match CSV, three-match maml pool CSV, output directory)."""
    root = tmp_path_factory.mktemp("fuzz")
    single, pool = root / "match.csv", root / "pool.csv"
    write_timeline_csv(generate_synthetic_match(SyntheticSpec(n_points=120, seed=5)), str(single))
    write_timeline_csv([generate_synthetic_match(SyntheticSpec(
        n_points=90, seed=k, match_id=f"2023-wimbledon-{number}"))
        for k, number in enumerate((1301, 1302, 1701))], str(pool))
    return str(single), str(pool), root


def stderr_lines(code: int, text: str, caught) -> list[str]:
    lines = text.splitlines()
    if code == 2:  # argparse's usage text: "usage: ..." and its indented lines
        lines = [line for line in lines if not line.startswith(("usage:", " "))]
    return lines + [f"{w.category.__name__}: {w.message}" for w in caught]


@pytest.mark.parametrize("command", sorted(FUZZED_FLAGS))
def test_fuzzed_flags_end_in_one_stderr_line(command, inputs):
    single, pool, root = inputs
    argv = [command, "--input", pool if command == "maml" else single,
            OUT_FLAG.get(command, "--out"), str(root / f"{command}.out"),
            "--manifest", str(root / f"{command}.manifest.json"), *SMALL.get(command, [])]
    flags = st.lists(st.sampled_from(FUZZED_FLAGS[command]).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(FLAG_VALUES[command, flag]))),
        min_size=1, max_size=3)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(flags)
    def check(pairs):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(argv + [f"{flag}={value}" for flag, value in pairs])
        assert code in (0, 1, 2)
        assert len(stderr_lines(code, err.getvalue(), caught)) == (code != 0)

    check()
