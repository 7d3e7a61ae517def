"""matchkit: point-by-point tennis match analytics and from-scratch learners.

The modules mirror the pipeline: `ingest` loads and validates point-by-point
CSVs, `winjud` and `momentum` score performance and momentum, `dbwp` turns
win rates into a time derivative, `gbtree` and `neural` fit from-scratch
learners on those features, `maml` meta-learns an initialization across
matches, `configs` declares the learners' settings, and `cli` ties it all
together behind subcommands.

The package exports its names lazily (PEP 562): `import matchkit` loads no
module, and `matchkit.train_gbt` imports `matchkit.gbtree` on first access,
so a scoring command never pays for the learners.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_EXPORTS = {
    "IngestError": "ingest",
    "MatchTimeline": "ingest",
    "PointRecord": "ingest",
    "SyntheticSpec": "ingest",
    "load_match_csv": "ingest",
    "write_timeline_csv": "ingest",
    "generate_synthetic_match": "ingest",
    "WinjudParams": "winjud",
    "WinjudSeries": "winjud",
    "winjud_scores": "winjud",
    "best_performance_times": "winjud",
    "MomentumConfig": "momentum",
    "MomentumSeries": "momentum",
    "fibonacci": "momentum",
    "momentum_series": "momentum",
    "build_feature_matrix": "momentum",
    "DbwpParams": "dbwp",
    "DbwpSeries": "dbwp",
    "dbwp_scores": "dbwp",
    "GbtConfig": "configs",
    "GbtModel": "gbtree",
    "train_gbt": "gbtree",
    "predict": "gbtree",
    "grid_search": "gbtree",
    "run_ablation": "gbtree",
    "NetConfig": "configs",
    "ParallelNet": "neural",
    "TrainReport": "neural",
    "train_net": "neural",
    "train_deep_lstm": "neural",
    "MamlConfig": "configs",
    "MetaState": "maml",
    "meta_train": "maml",
    "fine_tune_and_eval": "maml",
    "evaluate_queries": "maml",
    "split_support_query": "maml",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
