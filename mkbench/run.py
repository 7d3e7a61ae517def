"""matchkit benchmark: seeded workloads driven through `matchkit.cli.run_cli`.

Usage, from the root of a checkout:

    python3 mkbench/run.py --workload tournament-series --seed 0 --seconds 20 --trace 0

One closed-loop client runs one command at a time.  A pass is the workload's
list of commands; passes repeat until the next one would end after
`--seconds`, but there are always at least two, so that every output is
checked for repeatability (three with `--trace 1`, so that two are traced).
Command times are corrected for the machine's speed by `probe.py`.  Every
output is checked, against `reference.json` for the seeds it holds.  With
`--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` passes alternate traced and untraced, and it carries the
per-layer metrics plus the tracing overhead.  The exit code is 0 only if
every command succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7
SETUP_PROBE_SAMPLES = 5
# Passes a run always makes, by --trace value: two to compare outputs, and
# at --trace 1 two traced passes to compare counts.
MIN_PASSES = {0: 2, 1: 3}
# The learners' matrices are at most a few hundred by 16, where BLAS threads
# only add synchronisation and noise; one thread keeps runs comparable.
BLAS_THREADS = 1
SETUP_SCRIPT = ("import time\n"
               "from matchkit.cli import build_parser\n"
               "build_parser()\n"
               "print(time.monotonic())\n")
# End-to-end names for a command kind's median latency.
KIND_METRICS = {"train-gbt": "gbt_fit_s", "train-lstm": "lstm_train_s", "maml": "maml_s"}


def limit_blas_threads() -> None:
    """Fix the BLAS thread count; call before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(probe) -> float:
    """Median time, at reference speed, from spawning a fresh interpreter
    until `matchkit.cli` is imported and `build_parser()` has returned.

    The children run on the benchmark's own CPU, where the probe samples
    just before and just after each of them.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    samples = []
    try:
        for _ in range(SETUP_REPEATS):
            probe.sample(SETUP_PROBE_SAMPLES)
            started, mono = time.perf_counter(), time.monotonic()
            done = subprocess.run([sys.executable, "-c", SETUP_SCRIPT], env=env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=60, check=True)
            ready = float(done.stdout.split()[-1]) - mono
            probe.sample(SETUP_PROBE_SAMPLES)
            samples.append(probe.at_reference_speed(started, started + ready))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.median(samples)


def blas_info() -> tuple[str | None, int | None]:
    """OpenBLAS version string and the thread count in effect, if loadable."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        lib = ctypes.CDLL(libs[0])
    except (OSError, IndexError):
        return None, None
    config = threads = None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
        get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        if get_config and get_threads:
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            config, threads = get_config().decode(), get_threads()
            break
    return config, threads


def environment(args) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "matchkit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    openblas, threads = blas_info()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas": openblas, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": threads}


def run_pass(cli, commands, pass_dir: Path, tracer=None):
    """Run one pass; return exit codes, each command's (start, end) and the
    pass's (start, end), all in `time.perf_counter` seconds."""
    codes, spans = [], []
    started = time.perf_counter()
    for i, cmd in enumerate(commands):
        argv = cmd.argv(pass_dir)
        if tracer:
            tracer.command = i
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run_cli(argv)
        except Exception:
            traceback.print_exc()
            code = None
        spans.append((t0, time.perf_counter()))
        codes.append(code)
    return codes, spans, (started, time.perf_counter())


def percentile_ms(values, q) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1000.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "matchkit" / "cli.py").is_file():
        print(f"error: no matchkit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from matchkit import cli, gbtree, maml, neural

    import checks
    import tracing
    import workloads
    from probe import SpeedProbe

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    env = environment(args)
    probe = SpeedProbe()
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    tracer = tracing.Tracer({"cli": cli, "gbtree": gbtree, "maml": maml, "neural": neural}) \
        if args.trace else None
    passes = []  # (traced, command (start, end) spans, pass (start, end))
    failed: set[tuple[int, int]] = set()
    try:
        commands = workloads.make_inputs(args.workload, args.seed, work / "inputs")
        setup_s = None if args.trace else measure_setup(probe)
        reference = checks.load_reference(args.workload, args.seed)
        base = None
        started = time.perf_counter()
        while True:
            k = len(passes)
            traced = bool(args.trace) and k % 2 == 0
            pass_dir = work / f"pass-{k}"
            pass_dir.mkdir()
            if traced:
                tracer.install(k)
            try:
                with probe:
                    codes, spans, pass_span = run_pass(cli, commands, pass_dir,
                                                       tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            bad = {i for i, code in enumerate(codes) if code != 0}
            digests = [checks.file_digests(cmd, pass_dir) for cmd in commands]
            if base is None:
                base = digests
                if reference is not None:
                    bad |= checks.check_reference(reference, commands, pass_dir, digests)
            else:
                bad |= checks.check_repeat(base, digests)
            failed |= {(k, i) for i in bad}
            shutil.rmtree(pass_dir)
            passes.append((traced, spans, pass_span))
            elapsed = time.perf_counter() - started
            if len(passes) < MIN_PASSES[args.trace]:
                continue
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(commands) * len(passes)
    correct = not failed
    print("env " + json.dumps(env, sort_keys=True))
    print(f"checks: {'stored reference' if reference else 'no stored reference'} "
          f"for seed {args.seed}; outputs repeated over {len(passes)} passes")

    if args.trace:
        traced_passes = [k for k, p in enumerate(passes) if p[0]]
        per_pass = [tracer.pass_metrics(k) for k in traced_passes]
        counted = [{key: v for key, v in m.items() if isinstance(v, int)} for m in per_pass]
        if any(c != counted[0] for c in counted):
            print("check: counts differ between traced passes", file=sys.stderr)
            correct = False
        values = {key: statistics.fmean(m.get(key, 0) for m in per_pass)
                  for key in set().union(*per_pass)}
        values.update(counted[0])
        ref_s = {}
        for traced in (True, False):
            kind = "traced" if traced else "untraced"
            pass_spans = [p[2] for p in passes if p[0] == traced]
            values[f"trace.{kind}_wall_s"] = statistics.fmean(b - a for a, b in pass_spans)
            ref_s[traced] = statistics.fmean(probe.at_reference_speed(a, b)
                                             for a, b in pass_spans)
        # At reference speed, so that a change of machine speed between the
        # two kinds of pass does not read as overhead.
        values["trace.overhead_s"] = ref_s[True] - ref_s[False]
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
        tracer.write_spans(spans_path)
        print(f"per traced pass, mean of {len(traced_passes)} traced and "
              f"{len(passes) - len(traced_passes)} untraced passes; spans in {spans_path}")
    else:
        # Each command's time at reference speed, as the median over the passes.
        per_command = [statistics.median(probe.at_reference_speed(*p[1][i]) for p in passes)
                       for i in range(len(commands))]
        wall = [statistics.median(p[1][i][1] - p[1][i][0] for p in passes)
                for i in range(len(commands))]
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_ratio": (attempted - len(failed)) / attempted,
            "points_per_s": sum(cmd.points for cmd in commands) / sum(per_command),
            "cmd_p50_ms": percentile_ms(per_command, 50),
            "cmd_p90_ms": percentile_ms(per_command, 90),
        }
        # Figures beside the metrics: the uncorrected wall-clock percentiles,
        # the failed share, and the learners' command times under their names.
        extra = {"passes": len(passes), "latency_samples": len(commands),
                 "wall_cmd_p50_ms": percentile_ms(wall, 50),
                 "wall_cmd_p90_ms": percentile_ms(wall, 90),
                 "failed_ratio": len(failed) / attempted}
        for kind, name in KIND_METRICS.items():
            times = [t for cmd, t in zip(commands, per_command) if cmd.kind == kind]
            if times:
                extra[name] = statistics.median(times)
        print(f"{len(commands)} commands a pass, {len(passes)} passes; a command's time is "
              f"its median over the passes at reference speed, and the percentiles are "
              f"over the {len(commands)} commands")
        print("extra " + json.dumps(extra))

    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"], 0 if metric["unit"] == "count" else 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} = {value!r} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    limit_blas_threads()
    sys.exit(main())
