"""Command-line front door: ingestion, scoring series, training, reports.

Every subcommand reads a point-by-point CSV, writes its outputs with
deterministic byte-level formatting, and records a run manifest (command,
resolved configuration, input digests, seed, output paths, wall-clock
duration) next to its primary output.  Identical inputs, flags, and seed
produce byte-identical output files.

On glibc, ``run_cli`` raises the allocator's mmap and trim thresholds once
per process, so the LSTM's per-call arrays, freed together when a backward
call returns, stay mapped for the next call instead of being handed back to
the kernel and page-faulted in again.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from .dbwp import DbwpParams, dbwp_scores, write_dbwp_csv
from .gbtree import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_RHO_GRID,
    GbtConfig,
    accuracy_score,
    grid_search,
    model_to_json,
    run_ablation,
    write_ablation_csv,
)
from .ingest import IngestError, format_elapsed, load_match_csv, write_timeline_csv
from .maml import (
    MamlConfig,
    evaluate_queries,
    make_task,
    meta_state_to_json,
    meta_train,
    split_support_query,
    write_meta_eval_csv,
)
from .momentum import (
    FEATURE_SETS,
    MomentumConfig,
    build_feature_matrix,
    momentum_series,
    write_momentum_csv,
)
from .neural import (
    NEURAL_VARIANTS,
    VARIANT_COLUMNS,
    NetConfig,
    train_deep_lstm,
    train_report_to_json,
    write_loss_csv,
)
from .winjud import WinjudParams, best_performance_times, winjud_scores, write_winjud_csv

__all__ = ["build_parser", "run_cli", "main"]


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


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _pearson(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    da = a - a.mean()
    db = b - b.mean()
    denom = float(np.sqrt(np.sum(da * da) * np.sum(db * db)))
    if denom == 0.0:
        raise ValueError("correlation undefined: one series is constant")
    return float(np.sum(da * db) / denom)


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


def _momentum_config(args) -> MomentumConfig:
    return MomentumConfig(
        set_factor=args.set_factor,
        game_factor=args.game_factor,
        b0_sets=args.b0_sets,
        b0_games=args.b0_games,
        ace_bonus=args.ace_bonus,
        double_fault_penalty=args.double_fault_penalty,
        unforced_error_penalty=args.unforced_error_penalty,
    )


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (output paths, resolved config for manifest)

def _cmd_ingest(args):
    timelines = load_match_csv(args.input)
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


def _cmd_winjud(args):
    timelines = load_match_csv(args.input)
    timeline = _pick_timeline(timelines, args.match_id)
    params = WinjudParams(w_v=args.wv, w_s=args.ws, beta=args.beta)
    series = winjud_scores(timeline, params)
    write_winjud_csv(series, args.out)
    for best in best_performance_times(series, timeline):
        print(f"set {best.set_no}: player {best.player} peaked at "
              f"{best.elapsed_clock} (score {best.score!r})")
    return [args.out], asdict(params)


def _cmd_momentum(args):
    timelines = load_match_csv(args.input)
    timeline = _pick_timeline(timelines, args.match_id)
    config = _momentum_config(args)
    series = momentum_series(timeline, config)
    write_momentum_csv(series, args.out)
    print(f"{timeline.match_id}: momentum series for {len(series.indices)} points")
    return [args.out], asdict(config)


def _cmd_dbwp(args):
    timelines = load_match_csv(args.input)
    timeline = _pick_timeline(timelines, args.match_id)
    params = DbwpParams(w_v=args.wv, grid_step_s=args.grid_step, player=args.player)
    series = dbwp_scores(timeline, params)
    write_dbwp_csv(series, args.out)
    print(f"{timeline.match_id}: fluctuation series for {len(series.indices)} points")
    return [args.out], asdict(params)


def _gbt_config(args) -> GbtConfig:
    return GbtConfig(
        n_trees=args.n_trees,
        learning_rate=args.learning_rate,
        max_depth=args.max_depth,
        min_child_weight=args.min_child_weight,
        min_gain=args.min_gain,
        seed=args.seed,
    )


def _cmd_train_gbt(args):
    timelines = load_match_csv(args.input)
    timeline = _pick_timeline(timelines, args.match_id)
    series = momentum_series(timeline, MomentumConfig())
    fm = build_feature_matrix(timeline, series, args.variant)
    config = _gbt_config(args)
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


def _cmd_ablate(args):
    timelines = load_match_csv(args.input)
    timeline = _pick_timeline(timelines, args.match_id)
    report = run_ablation(timeline, MomentumConfig(), _gbt_config(args),
                          args.lambda_grid, args.rho_grid)
    write_ablation_csv(report, args.out)
    for row in report.rows:
        print(f"{timeline.match_id}: {row.variant} accuracy {row.test_accuracy!r}")
    doc = asdict(_gbt_config(args))
    doc.update(lambda_grid=list(args.lambda_grid), rho_grid=list(args.rho_grid))
    return [args.out], doc


def _net_config(args, input_dim: int) -> NetConfig:
    return NetConfig(
        input_dim=input_dim,
        hidden_dense=args.hidden_dense,
        hidden_lstm=args.hidden_lstm,
        dropout_rate=args.dropout_rate,
        huber_delta=args.huber_delta,
        adam_lr=args.adam_lr,
        epochs=args.epochs,
        seq_len=args.seq_len,
        seed=args.seed,
    )


def _cmd_train_lstm(args):
    timelines = load_match_csv(args.input)
    timeline = _pick_timeline(timelines, args.match_id)
    momentum = momentum_series(timeline, MomentumConfig())
    series = dbwp_scores(timeline, DbwpParams(w_v=args.wv, grid_step_s=args.grid_step))
    config = _net_config(args, len(VARIANT_COLUMNS[args.variant]))
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


def _cmd_maml(args):
    timelines = load_match_csv(args.input)
    by_id = {tl.match_id: tl for tl in timelines}
    support_ids, query_ids = split_support_query(
        list(by_id), support=args.support, query=args.query)
    if not support_ids:
        raise ValueError("no support matches after the split")
    if not query_ids:
        raise ValueError("no query matches after the split; pass --query")
    net = _net_config(args, len(VARIANT_COLUMNS[args.variant]))
    config = MamlConfig(
        net=net,
        meta_lr=args.meta_lr,
        inner_lr=args.inner_lr,
        inner_epochs=args.inner_epochs,
        tasks_per_batch=args.tasks_per_batch,
        train_fraction=args.train_fraction,
        fine_tune_epochs=args.fine_tune_epochs,
        meta_iterations=args.meta_iterations,
        seed=args.seed,
    )

    def task_for(mid):
        tl = by_id[mid]
        momentum = momentum_series(tl, MomentumConfig())
        series = dbwp_scores(tl, DbwpParams(w_v=args.wv, grid_step_s=args.grid_step))
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


def _cmd_correlate(args):
    timelines = load_match_csv(args.input)
    timeline = _pick_timeline(timelines, args.match_id)
    momentum = momentum_series(timeline, _momentum_config(args))
    series = dbwp_scores(timeline, DbwpParams(w_v=args.wv, grid_step_s=args.grid_step))
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
    doc = asdict(_momentum_config(args))
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
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for anything stochastic (default 0)")
    sub.add_argument("--config", default=None,
                     help="JSON file of flag defaults (explicit flags win)")
    sub.add_argument("--manifest", default=None,
                     help="manifest path (default: first output + .manifest.json)")
    if out_required is not None:
        sub.add_argument("--out", required=out_required, help=out_help)


def _add_momentum_flags(sub):
    cfg = MomentumConfig()
    sub.add_argument("--set-factor", type=float, default=cfg.set_factor)
    sub.add_argument("--game-factor", type=float, default=cfg.game_factor)
    sub.add_argument("--b0-sets", type=float, default=cfg.b0_sets)
    sub.add_argument("--b0-games", type=float, default=cfg.b0_games)
    sub.add_argument("--ace-bonus", type=float, default=cfg.ace_bonus)
    sub.add_argument("--double-fault-penalty", type=float,
                     default=cfg.double_fault_penalty)
    sub.add_argument("--unforced-error-penalty", type=float,
                     default=cfg.unforced_error_penalty)


def _add_gbt_flags(sub):
    cfg = GbtConfig()
    sub.add_argument("--n-trees", type=int, default=cfg.n_trees)
    sub.add_argument("--learning-rate", type=float, default=cfg.learning_rate)
    sub.add_argument("--max-depth", type=int, default=cfg.max_depth)
    sub.add_argument("--min-child-weight", type=float, default=cfg.min_child_weight)
    sub.add_argument("--min-gain", type=float, default=cfg.min_gain)
    sub.add_argument("--lambda-grid", type=_float_list,
                     default=DEFAULT_LAMBDA_GRID, dest="lambda_grid")
    sub.add_argument("--rho-grid", type=_float_list,
                     default=DEFAULT_RHO_GRID, dest="rho_grid")


def _add_net_flags(sub):
    sub.add_argument("--hidden-dense", type=int, default=32)
    sub.add_argument("--hidden-lstm", type=int, default=16)
    sub.add_argument("--dropout-rate", type=float, default=0.2)
    sub.add_argument("--huber-delta", type=float, default=1.0)
    sub.add_argument("--adam-lr", type=float, default=1e-3)
    sub.add_argument("--epochs", type=int, default=100)
    sub.add_argument("--seq-len", type=int, default=16)


def _add_dbwp_flags(sub):
    sub.add_argument("--wv", type=int, default=5, help="half window in points")
    sub.add_argument("--grid-step", type=float, default=1.0,
                     help="uniform time grid step in seconds")


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
    wj.add_argument("--wv", type=int, default=5, help="point-victor window")
    wj.add_argument("--ws", type=int, default=5, help="serve window")
    wj.add_argument("--beta", type=float, default=0.5, help="serve factor")

    mo = subs.add_parser("momentum", help="strategic + psychological series")
    _add_common(mo)
    _add_momentum_flags(mo)

    db = subs.add_parser("dbwp", help="fluctuation (win-rate derivative) series")
    _add_common(db)
    _add_dbwp_flags(db)
    db.add_argument("--player", type=int, choices=(1, 2), default=1)

    tg = subs.add_parser("train-gbt", help="grid-searched boosted trees")
    _add_common(tg, out_required=None)
    tg.add_argument("--model-out", required=True, help="model JSON path")
    tg.add_argument("--variant", choices=sorted(FEATURE_SETS), default="both")
    _add_gbt_flags(tg)

    ab = subs.add_parser("ablate", help="accuracy for every feature variant")
    _add_common(ab, out_help="ablation report CSV")
    _add_gbt_flags(ab)

    tl = subs.add_parser("train-lstm", help="two-branch regressor on fluctuation targets")
    _add_common(tl, out_help="training report JSON")
    tl.add_argument("--variant", choices=NEURAL_VARIANTS, default="full")
    tl.add_argument("--repeats", type=int, default=1)
    tl.add_argument("--loss-csv", default=None, help="optional per-epoch loss CSV")
    _add_net_flags(tl)
    _add_dbwp_flags(tl)

    mm = subs.add_parser("maml", help="meta-train, fine-tune, and compare")
    _add_common(mm, out_help="query comparison CSV")
    mm.add_argument("--support", type=_id_list, default=None,
                    help="comma-separated support match ids")
    mm.add_argument("--query", type=_id_list, default=None,
                    help="comma-separated query match ids")
    mm.add_argument("--variant", choices=NEURAL_VARIANTS, default="full")
    mm.add_argument("--meta-lr", type=float, default=1e-4)
    mm.add_argument("--inner-lr", type=float, default=1e-4)
    mm.add_argument("--inner-epochs", type=int, default=3)
    mm.add_argument("--tasks-per-batch", type=int, default=4)
    mm.add_argument("--train-fraction", type=float, default=0.8)
    mm.add_argument("--fine-tune-epochs", type=int, default=5)
    mm.add_argument("--meta-iterations", type=int, default=100)
    mm.add_argument("--state-out", default=None, help="optional meta state JSON")
    _add_net_flags(mm)
    _add_dbwp_flags(mm)

    co = subs.add_parser("correlate", help="Pearson r of fluctuation vs momentum")
    _add_common(co, out_required=False, out_help="optional correlation CSV")
    _add_dbwp_flags(co)
    _add_momentum_flags(co)

    for name, sub_parser in subs.choices.items():
        dests[name] = {action.dest for action in sub_parser._actions
                       if action.dest != "help"}
    return parser, subs.choices, dests


def _extract_config_path(argv):
    for i, token in enumerate(argv):
        if token == "--config":
            return argv[i + 1] if i + 1 < len(argv) else None
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


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


def _write_manifest(path, command, config, input_path, seed, outputs, duration):
    doc = {
        "command": command,
        "config": config,
        "inputs": {input_path: _sha256(input_path)},
        "seed": seed,
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


# glibc mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap() -> None:
    """Keep freed heap memory in the process for reuse (glibc only).

    The arrays a backward call frees together (tens of KiB each, megabytes in
    all) leave a free heap top far over glibc's 128 KiB trim threshold, so
    glibc hands it back to the kernel and the next call page-faults it in
    again; a 64 MiB trim threshold keeps it.  Setting any parameter also pins
    the mmap threshold, which glibc otherwise raises to the largest block
    freed, at 128 KiB; at 32 MiB, blocks up to that size come from the kept
    heap instead of a fresh mapping each time.  Elsewhere this does nothing.
    """
    try:
        import ctypes
        # TypeError: ctypes on Windows cannot open the process image (None)
        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def run_cli(argv=None) -> int:
    _keep_freed_heap()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subcommands, dests = _shared_parser()

    config_path = _extract_config_path(argv)
    overrides = {}
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config {config_path!r}: {exc}", file=sys.stderr)
            return 1
        if not isinstance(overrides, dict):
            print("error: config file must hold a JSON object", file=sys.stderr)
            return 1
        # defaults must land on the subcommand's own parser: subparsers parse
        # into a fresh namespace, so main-parser defaults would be clobbered
        sub_name = argv[0] if argv and not argv[0].startswith("-") else None
        if sub_name in subcommands:
            # set_defaults changes the parser: this run gets its own
            parser, subcommands, dests = build_parser()
            try:
                typed = _typed_config(subcommands[sub_name], overrides)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            subcommands[sub_name].set_defaults(**typed)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    unknown = set(overrides) - dests[args.command]
    if unknown:
        print(f"error: config keys not understood by {args.command!r}: "
              f"{sorted(unknown)}", file=sys.stderr)
        return 1

    started = time.perf_counter()
    try:
        outputs, config_doc = _DISPATCH[args.command](args)
    except (IngestError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    duration = time.perf_counter() - started
    manifest_path = args.manifest
    if manifest_path is None:
        manifest_path = (outputs[0] if outputs else args.command) + ".manifest.json"
    _write_manifest(manifest_path, args.command, config_doc, args.input,
                    args.seed, outputs, duration)
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
