"""Per-layer spans for the matchkit benchmark, recorded from outside the package.

The tracer replaces, for the length of a traced pass, each module attribute
through which a caller looks up a layer's public function: `cli` imports the
layer functions by name, `maml` imports `backward`/`adam_step`/`forward_batch`
from `neural`, and `grid_search` reaches `train_gbt` through `gbtree`'s
globals.  Each call records a span (id, parent, pass, command, layer, name,
start, end) in memory, and counters read from its arguments and return value.  A
layer's self time is the time of its spans minus the time of their child
spans and of the counters run inside them, which are the tracer's own work.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from collections import Counter, defaultdict

import numpy as np

from matchkit import gbtree

LAYERS = ("ingest", "winjud", "momentum", "dbwp", "gbtree", "neural", "maml", "cli")


def _timeline_points(args, kwargs, result):
    return {"points": len(args[0].points)}


def _rows_read(args, kwargs, result):
    return {"rows_read": sum(len(tl.points) for tl in result)}


def _rows_written(args, kwargs, result):
    timelines = args[0]
    if hasattr(timelines, "points"):
        timelines = [timelines]
    return {"rows_written": sum(len(tl.points) for tl in timelines)}


def _dbwp_grid(args, kwargs, result):
    # Nodes of the uniform grid the derivative is defined on: span/step + 1.
    span = result.elapsed_s[-1] - result.elapsed_s[0]
    nodes = max(2, 1 + math.ceil(span / result.params.grid_step_s))
    return {"points": len(args[0].points), "grid_nodes": nodes}


def _gbt_fit(args, kwargs, result):
    # Count nodes in the model's JSON form, which stays fixed while the
    # in-memory tree layout may change.
    trees = json.loads(gbtree.model_to_json(result))["trees"]
    nodes, stack = 0, list(trees)
    while stack:
        node = stack.pop()
        nodes += 1
        stack += [node[side] for side in ("left", "right") if side in node]
    return {"fits": 1, "trees": len(trees), "nodes": nodes}


def _backward(args, kwargs, result):
    batch, seq_len = np.shape(args[1])[:2]
    return {"backward_calls": 1, "seq_steps": int(batch * seq_len)}


def _meta_train(args, kwargs, result):
    return {"meta_iterations": len(result.loss_history)}


def _command(args, kwargs, result):
    return {"commands": 1, "failed": int(result != 0)}


# (module, attribute, layer, timer name or None, counter or None)
HOOKS = (
    ("cli", "run_cli", "cli", None, _command),
    ("cli", "load_match_csv", "ingest", "read_s", _rows_read),
    ("cli", "write_timeline_csv", "ingest", "write_s", _rows_written),
    ("cli", "format_elapsed", "ingest", None, None),
    ("cli", "winjud_scores", "winjud", None, _timeline_points),
    ("cli", "best_performance_times", "winjud", None, None),
    ("cli", "write_winjud_csv", "winjud", None, None),
    ("cli", "momentum_series", "momentum", None, _timeline_points),
    ("cli", "build_feature_matrix", "momentum", None, None),
    ("cli", "write_momentum_csv", "momentum", None, None),
    ("cli", "dbwp_scores", "dbwp", None, _dbwp_grid),
    ("cli", "write_dbwp_csv", "dbwp", None, None),
    ("cli", "grid_search", "gbtree", None, None),
    ("cli", "accuracy_score", "gbtree", "eval_s", None),
    ("cli", "model_to_json", "gbtree", None, None),
    ("gbtree", "train_gbt", "gbtree", "fit_s", _gbt_fit),
    ("gbtree", "accuracy_score", "gbtree", "eval_s", None),
    ("cli", "train_deep_lstm", "neural", None, None),
    ("cli", "train_report_to_json", "neural", None, None),
    ("neural", "train_net", "neural", None, None),
    ("neural", "init_net", "neural", None, None),
    ("neural", "backward", "neural", "backward_s", _backward),
    ("neural", "adam_step", "neural", "adam_s", lambda a, k, r: {"adam_steps": 1}),
    ("neural", "forward_batch", "neural", "forward_s", None),
    ("maml", "backward", "neural", "backward_s", _backward),
    ("maml", "adam_step", "neural", "adam_s", lambda a, k, r: {"adam_steps": 1}),
    ("maml", "forward_batch", "neural", "forward_s", None),
    ("maml", "init_net", "neural", None, None),
    ("maml", "init_adam_state", "neural", None, None),
    ("maml", "assemble_match_features", "neural", None, None),
    ("maml", "build_sequences", "neural", None, None),
    ("cli", "split_support_query", "maml", None, None),
    ("cli", "make_task", "maml", None, lambda a, k, r: {"tasks": 1}),
    ("cli", "meta_train", "maml", None, _meta_train),
    ("cli", "evaluate_queries", "maml", None, None),
    ("cli", "meta_state_to_json", "maml", None, None),
    ("cli", "write_meta_eval_csv", "maml", None, None),
)


class Tracer:
    """Spans and counters of the traced passes of one benchmark run."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []  # (id, parent, pass, command, layer, name, start, end)
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.timers: dict[int, Counter] = defaultdict(Counter)
        self.counter_time: Counter = Counter()  # by enclosing span id
        self.pass_no = 0
        self.command = 0
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, pass_no: int) -> None:
        self.pass_no = pass_no
        for module_name, attr, layer, timer, counter in HOOKS:
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, f"{module_name}.{attr}",
                                             timer, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, layer, name, timer, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            counts = self.counts[self.pass_no]
            counts[f"{layer}.calls"] += 1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{layer}.failed"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, self.pass_no, self.command,
                                   layer, name, start, end))
                if timer:
                    self.timers[self.pass_no][f"{layer}.{timer}"] += end - start
            if counter:
                counted = time.perf_counter()
                for key, value in counter(args, kwargs, result).items():
                    counts[f"{layer}.{key}"] += value
                if parent is not None:
                    self.counter_time[parent] += time.perf_counter() - counted
            return result

        return traced

    def self_times(self, pass_no: int) -> dict[str, float]:
        """Per-layer self time of one pass: span time minus the time of child
        spans and of counters run inside the span."""
        spans = [s for s in self.spans if s[2] == pass_no]
        child_time: Counter = Counter()
        for _, parent, *_, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        selfs = dict.fromkeys(LAYERS, 0.0)
        for span_id, _, _, _, layer, _, start, end in spans:
            selfs[layer] += (end - start) - child_time[span_id] - self.counter_time[span_id]
        return selfs

    def pass_metrics(self, pass_no: int) -> dict[str, float]:
        """Counters, timers and self times of one traced pass, by metric name."""
        counts = self.counts[pass_no]
        metrics: dict[str, float] = dict(counts)
        metrics.update(self.timers[pass_no])
        selfs = self.self_times(pass_no)
        metrics.update({f"{layer}.self_s": value for layer, value in selfs.items()})
        if counts["dbwp.points"]:
            metrics["dbwp.nodes_per_point"] = counts["dbwp.grid_nodes"] / counts["dbwp.points"]
        if counts["cli.commands"]:
            metrics["cli.self_ms_per_command"] = 1000.0 * selfs["cli"] / counts["cli.commands"]
        metrics["trace.self_sum_s"] = sum(selfs.values())
        metrics["trace.spans"] = sum(1 for s in self.spans if s[2] == pass_no)
        return metrics

    def write_spans(self, path) -> None:
        fields = ("id", "parent", "pass", "command", "layer", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
