"""Command-line front door: ingestion, scoring series, training, reports.

Every subcommand reads a point-by-point CSV, writes its outputs with
deterministic byte-level formatting, and records a run manifest (command,
resolved configuration with a learner's seed, input digests, output paths,
wall-clock duration) next to its primary output.  Identical inputs and flags
produce byte-identical output files.

Start-up loads only the scoring modules and the learners' settings
(`configs`); `gbtree`, `neural` and `maml` load when a learner subcommand
first calls into them.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import io
import json
import math
import sys
import time
from dataclasses import MISSING, asdict, fields

import numpy as np

from ._checks import field_ranges
from .configs import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_RHO_GRID,
    NEURAL_VARIANTS,
    VARIANT_COLUMNS,
    GbtConfig,
    MamlConfig,
    NetConfig,
)
from .dbwp import DbwpParams, dbwp_scores, write_dbwp_csv
from .ingest import IngestError, format_elapsed, load_match_csv, write_timeline_csv
from .momentum import (
    FEATURE_SETS,
    MomentumConfig,
    build_feature_matrix,
    momentum_series,
    write_momentum_csv,
)
from .winjud import WinjudParams, best_performance_times, winjud_scores, write_winjud_csv

__all__ = ["build_parser", "run_cli", "main"]


def _learner(module: str, name: str):
    """`name` of learner module `module`, which is imported on the first call,
    so that a command that trains nothing never loads it.

    The command bodies call these by their `cli` names, where a caller may
    wrap them, as the benchmark's tracer does.  The call goes to the function
    the module defines, bound once: a wrapper later put on the module's own
    attribute (for the module's internal calls) is not run a second time.
    """
    target = None

    def call(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(importlib.import_module(f".{module}", __package__), name)
            while hasattr(target, "__wrapped__"):
                target = target.__wrapped__
        return target(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


accuracy_score = _learner("gbtree", "accuracy_score")
grid_search = _learner("gbtree", "grid_search")
model_to_json = _learner("gbtree", "model_to_json")
run_ablation = _learner("gbtree", "run_ablation")
write_ablation_csv = _learner("gbtree", "write_ablation_csv")
train_deep_lstm = _learner("neural", "train_deep_lstm")
train_report_to_json = _learner("neural", "train_report_to_json")
write_loss_csv = _learner("neural", "write_loss_csv")
evaluate_queries = _learner("maml", "evaluate_queries")
make_task = _learner("maml", "make_task")
meta_state_to_json = _learner("maml", "meta_state_to_json")
meta_train = _learner("maml", "meta_train")
split_support_query = _learner("maml", "split_support_query")
write_meta_eval_csv = _learner("maml", "write_meta_eval_csv")


def _float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")
    return values


def _id_list(text: str) -> tuple[str, ...]:
    values = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of ids")
    return values


class _HashingReader(io.BufferedIOBase):
    """An unbuffered binary file read through once, its bytes hashed as they
    pass.  A read is one read of the file, as read1 must be."""

    def __init__(self, raw):
        self.raw = raw
        self.sha256 = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def read(self, size: int = -1) -> bytes:
        data = self.raw.read(size)
        self.sha256.update(data)
        return data

    read1 = read


def _pearson(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    # A sum that overflows is refused, not warned about.
    with np.errstate(all="ignore"):
        da = a - a.mean()
        db = b - b.mean()
        cross = np.sum(da * db)
        denom = float(np.sqrt(np.sum(da * da) * np.sum(db * db)))
    if not (math.isfinite(cross) and math.isfinite(denom)):
        raise ValueError("correlation undefined: a sum over the series overflows")
    if denom == 0.0:
        raise ValueError("correlation undefined: one series is constant")
    return float(cross / denom)


def _pick_timeline(timelines, match_id):
    ids = ", ".join(tl.match_id for tl in timelines)
    if match_id is not None:
        for tl in timelines:
            if tl.match_id == match_id:
                return tl
        raise ValueError(f"match id {match_id!r} not found in file (present: {ids})")
    if len(timelines) == 1:
        return timelines[0]
    raise ValueError(f"file holds several matches; pass --match-id (present: {ids})")


def _dest(f) -> str:
    return f.metadata["flag"] or f.name


def _config(cls, args, **given):
    """A `cls` config from the parsed flags: every field with a flag is read
    from it, and `given` supplies the rest."""
    flags = vars(args)
    return cls(**{f.name: flags[_dest(f)] for f in fields(cls) if _dest(f) in flags}, **given)


# ---------------------------------------------------------------------------
# subcommand bodies: each takes the parsed flags and the --input file's
# timelines and returns (output paths, resolved config for manifest)

def _cmd_ingest(args, timelines):
    for tl in timelines:
        p1 = tl.meta.get("player1", "?")
        p2 = tl.meta.get("player2", "?")
        print(f"{tl.match_id}: {len(tl)} points, {p1} vs {p2}, "
              f"span {format_elapsed(int(tl.elapsed_s[-1]))}")
    print(f"ok: {len(timelines)} match(es) validated")
    outputs = []
    if args.out:
        write_timeline_csv(timelines, args.out)
        outputs.append(args.out)
    return outputs, {"out": args.out}


def _cmd_winjud(args, timelines):
    timeline = _pick_timeline(timelines, args.match_id)
    params = _config(WinjudParams, args)
    series = winjud_scores(timeline, params)
    write_winjud_csv(series, args.out)
    for best in best_performance_times(series, timeline):
        print(f"set {best.set_no}: player {best.player} peaked at "
              f"{best.elapsed_clock} (score {best.score!r})")
    return [args.out], asdict(params)


def _cmd_momentum(args, timelines):
    timeline = _pick_timeline(timelines, args.match_id)
    config = _config(MomentumConfig, args)
    series = momentum_series(timeline, config)
    write_momentum_csv(series, args.out)
    print(f"{timeline.match_id}: momentum series for {len(series.indices)} points")
    return [args.out], asdict(config)


def _cmd_dbwp(args, timelines):
    timeline = _pick_timeline(timelines, args.match_id)
    params = _config(DbwpParams, args)
    series = dbwp_scores(timeline, params)
    write_dbwp_csv(series, args.out)
    print(f"{timeline.match_id}: fluctuation series for {len(series.indices)} points")
    return [args.out], asdict(params)


def _cmd_train_gbt(args, timelines):
    timeline = _pick_timeline(timelines, args.match_id)
    series = momentum_series(timeline, MomentumConfig())
    fm = build_feature_matrix(timeline, series, args.variant)
    config = _config(GbtConfig, args)
    result = grid_search(fm.x, fm.y, args.lambda_grid, args.rho_grid, config)
    test_acc = accuracy_score(result.model, fm.x[result.n_train:], fm.y[result.n_train:])
    with open(args.model_out, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(result.model))
        fh.write("\n")
    print(f"{timeline.match_id}: variant {args.variant}, "
          f"lambda {result.best_lambda!r}, rho {result.best_rho!r}, "
          f"validation accuracy {result.val_accuracy!r}, "
          f"test accuracy {test_acc!r}")
    doc = asdict(config)
    doc.update(variant=args.variant, lambda_grid=list(args.lambda_grid),
               rho_grid=list(args.rho_grid))
    return [args.model_out], doc


def _cmd_ablate(args, timelines):
    timeline = _pick_timeline(timelines, args.match_id)
    config = _config(GbtConfig, args)
    report = run_ablation(timeline, MomentumConfig(), config, args.lambda_grid, args.rho_grid)
    write_ablation_csv(report, args.out)
    for row in report.rows:
        print(f"{timeline.match_id}: {row.variant} accuracy {row.test_accuracy!r}")
    doc = asdict(config)
    doc.update(lambda_grid=list(args.lambda_grid), rho_grid=list(args.rho_grid))
    return [args.out], doc


def _cmd_train_lstm(args, timelines):
    timeline = _pick_timeline(timelines, args.match_id)
    momentum = momentum_series(timeline, MomentumConfig())
    series = dbwp_scores(timeline, _config(DbwpParams, args))
    config = _config(NetConfig, args, input_dim=len(VARIANT_COLUMNS[args.variant]))
    report = train_deep_lstm([(timeline, series, momentum)], config,
                             variant=args.variant, repeats=args.repeats)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(train_report_to_json(report))
        fh.write("\n")
    outputs = [args.out]
    if args.loss_csv:
        write_loss_csv(report, args.loss_csv)
        outputs.append(args.loss_csv)
    print(f"{timeline.match_id}: variant {args.variant}, "
          f"test MSE {report.test_mse!r} over {args.repeats} repeat(s)")
    doc = asdict(report.config)
    doc.update(variant=args.variant, repeats=args.repeats,
               wv=args.wv, grid_step=args.grid_step)
    return outputs, doc


def _cmd_maml(args, timelines):
    by_id = {tl.match_id: tl for tl in timelines}
    support_ids, query_ids = split_support_query(
        list(by_id), support=args.support, query=args.query)
    if not support_ids:
        raise ValueError("no support matches after the split")
    if not query_ids:
        raise ValueError("no query matches after the split; pass --query")
    net = _config(NetConfig, args, input_dim=len(VARIANT_COLUMNS[args.variant]))
    config = _config(MamlConfig, args, net=net)

    def task_for(mid):
        tl = by_id[mid]
        momentum = momentum_series(tl, MomentumConfig())
        series = dbwp_scores(tl, _config(DbwpParams, args))
        return make_task(tl, series, momentum, config, variant=args.variant)

    support_tasks = [task_for(mid) for mid in support_ids]
    query_tasks = [task_for(mid) for mid in query_ids]
    meta = meta_train(support_tasks, config)
    rows = evaluate_queries(meta, query_tasks, config)
    write_meta_eval_csv(rows, args.out)
    outputs = [args.out]
    if args.state_out:
        with open(args.state_out, "w", encoding="utf-8") as fh:
            fh.write(meta_state_to_json(meta))
            fh.write("\n")
        outputs.append(args.state_out)
    for row in rows:
        print(f"{row.match_id}: adapted MSE {row.maml_mse!r}, "
              f"scratch MSE {row.scratch_mse!r}")
    doc = asdict(config)
    doc.update(variant=args.variant, wv=args.wv, grid_step=args.grid_step,
               support=list(support_ids), query=list(query_ids))
    return outputs, doc


def _cmd_correlate(args, timelines):
    timeline = _pick_timeline(timelines, args.match_id)
    config = _config(MomentumConfig, args)
    momentum = momentum_series(timeline, config)
    series = dbwp_scores(timeline, _config(DbwpParams, args))
    dbwp_vals = list(series.dbwp)
    pairs = (
        ("psychological", [momentum.psychological[i] for i in series.indices]),
        ("strategic", [momentum.strategic[i] for i in series.indices]),
    )
    rows = []
    for name, values in pairs:
        rows.append((name, _pearson(dbwp_vals, values)))
        print(f"pearson_dbwp_{name}={rows[-1][1]!r}")
    outputs = []
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("series,pearson_r\n")
            for name, value in rows:
                fh.write(f"{name},{value!r}\n")
        outputs.append(args.out)
    doc = asdict(config)
    doc.update(wv=args.wv, grid_step=args.grid_step)
    return outputs, doc


_DISPATCH = {
    "ingest": _cmd_ingest,
    "winjud": _cmd_winjud,
    "momentum": _cmd_momentum,
    "dbwp": _cmd_dbwp,
    "train-gbt": _cmd_train_gbt,
    "ablate": _cmd_ablate,
    "train-lstm": _cmd_train_lstm,
    "maml": _cmd_maml,
    "correlate": _cmd_correlate,
}


# ---------------------------------------------------------------------------
# parser construction

def _add_common(sub, out_required=True, out_help="output CSV path"):
    sub.add_argument("--input", required=True, help="point-by-point CSV file")
    sub.add_argument("--match-id", default=None,
                     help="select one match when the file has several")
    sub.add_argument("--config", default=None,
                     help="JSON file of flag defaults (explicit flags win)")
    sub.add_argument("--manifest", default=None,
                     help="manifest path (default: first output + .manifest.json)")
    if out_required is not None:
        sub.add_argument("--out", required=out_required, help=out_help)


def _add_config_flags(sub, cls, skip=()):
    """A --dest flag, of its default's type and declared choices, for each field of
    `cls` that has a default and is not in `skip`, its help the default and range."""
    for f in fields(cls):
        if f.default is not MISSING and f.name not in skip:
            sub.add_argument("--" + _dest(f).replace("_", "-"), type=type(f.default),
                             default=f.default, choices=f.metadata["range"].choices or None,
                             help=f"default {f.default}; {f.metadata['range'].describe()}")


def _add_gbt_flags(sub):
    _add_config_flags(sub, GbtConfig, skip=("lam", "rho"))
    ranges = dict(field_ranges(GbtConfig))
    for flag, name, default in (("--lambda-grid", "lam", DEFAULT_LAMBDA_GRID),
                                ("--rho-grid", "rho", DEFAULT_RHO_GRID)):
        sub.add_argument(flag, type=_float_list, default=default,
                         help=f"default {','.join(map(str, default))}; comma-separated "
                              f"{name} values to search, each {ranges[name].describe()}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matchkit",
        description="Point-by-point tennis analytics: scoring series, "
                    "momentum features, and model training.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    dests: dict[str, set] = {}

    sub = subs.add_parser("ingest", help="validate a CSV and echo diagnostics")
    _add_common(sub, out_required=False, out_help="optional normalized CSV")

    wj = subs.add_parser("winjud", help="sliding-window performance scores")
    _add_common(wj)
    _add_config_flags(wj, WinjudParams)

    mo = subs.add_parser("momentum", help="strategic + psychological series")
    _add_common(mo)
    _add_config_flags(mo, MomentumConfig)

    db = subs.add_parser("dbwp", help="fluctuation (win-rate derivative) series")
    _add_common(db)
    _add_config_flags(db, DbwpParams)

    tg = subs.add_parser("train-gbt", help="grid-searched boosted trees")
    _add_common(tg, out_required=None)
    tg.add_argument("--model-out", required=True, help="model JSON path")
    tg.add_argument("--variant", choices=sorted(FEATURE_SETS), default="both",
                    help="default both; the momentum series among the features")
    _add_gbt_flags(tg)

    ab = subs.add_parser("ablate", help="accuracy for every feature variant")
    _add_common(ab, out_help="ablation report CSV")
    _add_gbt_flags(ab)

    tl = subs.add_parser("train-lstm", help="two-branch regressor on fluctuation targets")
    _add_common(tl, out_help="training report JSON")
    tl.add_argument("--variant", choices=NEURAL_VARIANTS, default="full",
                    help="default full; all feature columns, or all but momentum or server")
    tl.add_argument("--repeats", type=int, default=1,
                    help="default 1; >= 1, test MSE averaged over seeds seed..seed+repeats-1")
    tl.add_argument("--loss-csv", default=None, help="optional per-epoch loss CSV")
    _add_config_flags(tl, NetConfig)
    _add_config_flags(tl, DbwpParams, skip=("player",))

    mm = subs.add_parser("maml", help="meta-train, fine-tune, and compare")
    _add_common(mm, out_help="query comparison CSV")
    mm.add_argument("--support", type=_id_list, default=None,
                    help="comma-separated support match ids")
    mm.add_argument("--query", type=_id_list, default=None,
                    help="comma-separated query match ids")
    mm.add_argument("--variant", choices=NEURAL_VARIANTS, default="full",
                    help="default full; all feature columns, or all but momentum or server")
    _add_config_flags(mm, MamlConfig)
    mm.add_argument("--state-out", default=None, help="optional meta state JSON")
    _add_config_flags(mm, NetConfig)
    _add_config_flags(mm, DbwpParams, skip=("player",))

    co = subs.add_parser("correlate", help="Pearson r of fluctuation vs momentum")
    _add_common(co, out_required=False, out_help="optional correlation CSV")
    _add_config_flags(co, DbwpParams, skip=("player",))
    _add_config_flags(co, MomentumConfig)

    for name, sub_parser in subs.choices.items():
        dests[name] = {action.dest for action in sub_parser._actions
                       if action.dest != "help"}
    return parser, subs.choices, dests


def _typed_config(sub_parser, overrides):
    """Config values passed through each flag's own type and choices.

    A value is converted from its text, as if it were given on the command
    line, so {"n_trees": 2.5} is rejected like --n-trees 2.5; a list stands
    for a comma-separated value.  Keys the subcommand lacks pass unchanged
    and are reported after parsing.
    """
    actions = {action.dest: action for action in sub_parser._actions}
    typed = dict(overrides)
    for key, value in overrides.items():
        action = actions.get(key)
        if action is None or (value is None and action.default is None):
            continue
        if action.type is None:
            if not isinstance(value, str):
                raise ValueError(f"config key {key!r}: expected a string, got {value!r}")
        else:
            text = ",".join(str(v) for v in value) if isinstance(value, list) else str(value)
            try:
                typed[key] = action.type(text)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
            except (TypeError, ValueError):
                raise ValueError(f"config key {key!r}: invalid value {value!r}") from None
        if action.choices is not None and typed[key] not in action.choices:
            raise ValueError(f"config key {key!r}: {value!r} is not one of "
                             f"{list(action.choices)}")
    return typed


def _write_manifest(path, command, config, input_path, input_digest, outputs, duration):
    doc = {
        "command": command,
        "config": config,
        "inputs": {input_path: input_digest},
        "outputs": list(outputs),
        "duration_s": duration,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


@functools.cache
def _shared_parser():
    """The parser every run without --config uses, built once per process.

    Parsing leaves a parser as it was; only set_defaults changes it, so a
    --config run builds its own parser instead.
    """
    return build_parser()


def run_cli(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subcommands, dests = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    overrides = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config {args.config!r}: {exc}", file=sys.stderr)
            return 1
        if not isinstance(overrides, dict):
            print("error: config file must hold a JSON object", file=sys.stderr)
            return 1
        # The defaults must land on the subcommand's own parser: subparsers
        # parse into a fresh namespace, so main-parser defaults would be
        # clobbered.  set_defaults changes the parser, so this run gets its own.
        parser, subcommands, dests = build_parser()
        try:
            typed = _typed_config(subcommands[args.command], overrides)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        subcommands[args.command].set_defaults(**typed)
        # argv parsed once already, and the typed defaults need no conversion.
        args = parser.parse_args(argv)

    unknown = set(overrides) - dests[args.command]
    if unknown:
        print(f"error: config keys not understood by {args.command!r}: "
              f"{sorted(unknown)}", file=sys.stderr)
        return 1

    started = time.perf_counter()
    try:
        # One read serves both the parse and the manifest's digest.
        with open(args.input, "rb", buffering=0) as fh:
            stream = _HashingReader(fh)
            timelines = load_match_csv(stream)
            while stream.read(io.DEFAULT_BUFFER_SIZE):  # the digest covers the whole file
                pass
        input_digest = stream.sha256.hexdigest()
        outputs, config_doc = _DISPATCH[args.command](args, timelines)
    except (IngestError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1

    duration = time.perf_counter() - started
    manifest_path = args.manifest
    if manifest_path is None:
        manifest_path = (outputs[0] if outputs else args.command) + ".manifest.json"
    try:
        _write_manifest(manifest_path, args.command, config_doc, args.input, input_digest,
                        outputs, duration)
    except OSError as exc:
        print(f"error: cannot write manifest: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
