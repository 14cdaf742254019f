"""Command line interface.

Subcommands: train, evaluate, topn, hierarchy, demo, recover, overfit,
histogram.  Heavy imports happen inside the handlers so that --threads can
pin the BLAS thread pools before numpy loads.
"""

from __future__ import annotations

import argparse
import os
import sys

__all__ = ["main", "build_parser"]

# Worked demo fixture: one user, one two-outcome item, D=2.  The like
# probability is 49/50 and the dislike probability 1/50.
_DEMO_RHO = (
    (0.98, 0.14),
    (0.14, 0.02),
)
_DEMO_E1 = (
    (1.0, 0.0),
    (0.0, 0.0),
)


def _add_data_args(sub):
    sub.add_argument("--data", required=True, help="ratings file path")
    sub.add_argument(
        "--format",
        choices=("ml100k", "ml1m"),
        default="ml100k",
        help="ratings file layout (default: ml100k)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="psdrec",
        description="Density-matrix and nonnegative recommender models.",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="cap BLAS thread pools (set before numpy loads)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="fit a model and save it")
    _add_data_args(train)
    train.add_argument("--config", default=None, help="key=value training config file")
    train.add_argument("--model-out", required=True, help="where to write the model")
    train.add_argument("--seed", type=int, default=None, help="override config seed")

    evaluate = commands.add_parser("evaluate", help="k-fold cross-validated error metrics")
    _add_data_args(evaluate)
    evaluate.add_argument("--config", default=None)
    evaluate.add_argument(
        "--metric",
        action="append",
        choices=("mae", "rmse"),
        default=None,
        help="metric to report (repeatable; default: mae and rmse)",
    )
    evaluate.add_argument("--folds", type=int, default=5)
    evaluate.add_argument("--seed", type=int, default=0, help="fold assignment seed")

    topn = commands.add_parser("topn", help="holdout recall@N evaluation")
    _add_data_args(topn)
    topn.add_argument("--config", default=None)
    topn.add_argument("--n", type=int, default=10)
    topn.add_argument("--fraction", type=float, default=0.2, help="holdout fraction")
    topn.add_argument("--seed", type=int, default=0, help="holdout assignment seed")

    hierarchy = commands.add_parser("hierarchy", help="extract a tag hierarchy from a model")
    hierarchy.add_argument("--model-in", required=True)
    _add_data_args(hierarchy)
    hierarchy.add_argument("--genres", required=True, help="movie metadata file with tag lists")
    hierarchy.add_argument("--epsilon", type=float, required=True)
    hierarchy.add_argument("--method", choices=("simple", "sdp"), default="simple")
    hierarchy.add_argument(
        "--exclude",
        action="append",
        default=None,
        help="tag name to drop (repeatable)",
    )
    hierarchy.add_argument("--dot-out", default=None, help="write Graphviz output here")
    hierarchy.add_argument("--seed", type=int, default=0, help="has no effect; the sdp test is exact")

    demo = commands.add_parser("demo", help="check the built-in worked example")

    recover = commands.add_parser("recover", help="map a commuting quantum model to a nonnegative one")
    recover.add_argument("--model-in", required=True)
    recover.add_argument("--model-out", required=True)
    recover.add_argument("--tol", type=float, default=1e-6)
    recover.add_argument("--seed", type=int, default=0)

    overfit = commands.add_parser("overfit", help="build the zero-error memorizing model")
    _add_data_args(overfit)
    overfit.add_argument("--model-out", required=True)

    histogram = commands.add_parser("histogram", help="rating counts per star value")
    _add_data_args(histogram)

    return parser


def _load_dataset(args):
    from . import data

    if args.format == "ml1m":
        return data.load_movielens_1m(args.data)
    return data.load_movielens_100k(args.data)


def _load_config(path, seed=None):
    """TrainConfig from the file, or the defaults; only `train --seed` passes `seed`."""
    import dataclasses

    from .train import TrainConfig

    cfg = TrainConfig.from_file(path) if path else TrainConfig()
    return cfg if seed is None else dataclasses.replace(cfg, seed=seed)


def _fit(ds, cfg):
    from . import train

    fit = train.train_nnm if cfg.kind == "nnm" else train.train_quantum
    return fit(ds, cfg)


def _cmd_train(args):
    from . import models

    ds = _load_dataset(args)
    cfg = _load_config(args.config, seed=args.seed)
    model, history = _fit(ds, cfg)
    models.save_model(model, args.model_out)
    last = history.objective[-1] if len(history) else float("nan")
    print(f"trained users={model.U} items={model.I} D={model.D} objective={last:.6g}")
    print(f"saved {args.model_out}")
    return 0


def _cmd_evaluate(args):
    import numpy as np

    from . import data, metrics

    ds = _load_dataset(args)
    cfg = _load_config(args.config)
    wanted = args.metric or ["mae", "rmse"]
    # Keep first occurrence order, drop repeats.
    wanted = list(dict.fromkeys(wanted))
    values = {name: [] for name in wanted}
    for split in data.kfold_split(ds, args.folds, seed=args.seed):
        model, _ = _fit(ds.subset(split.train), cfg)
        for name in wanted:
            fn = metrics.mae if name == "mae" else metrics.rmse
            report = fn(model, ds, split)
            values[name].append(report.value)
    for name in wanted:
        arr = np.asarray(values[name])
        print(f"{name} mean={arr.mean():.6g} std={arr.std():.6g} folds={len(arr)}")
    return 0


def _cmd_topn(args):
    from . import data, metrics

    ds = _load_dataset(args)
    cfg = _load_config(args.config)
    split = data.topn_holdout(ds, args.fraction, seed=args.seed)
    model, _ = _fit(ds.subset(split.train), cfg)
    report = metrics.recall_at_n(model, ds, split, args.n)
    print(f"recall@{args.n} value={report.value:.6g} users={report.count}")
    return 0


def _cmd_hierarchy(args):
    from . import data, models, tags
    from .exceptions import InvalidInput

    model = models.load_model(args.model_in)
    if not isinstance(model, models.QuantumModel):
        raise InvalidInput(f"hierarchy: expected a QuantumModel, got {type(model).__name__}")
    ds = _load_dataset(args)
    catalog = data.load_genres_1m(args.genres, ds, exclude=tuple(args.exclude or ()))
    graph = tags.build_hierarchy(model, catalog, args.epsilon, method=args.method)
    if catalog.skipped:
        print(f"skipped {catalog.skipped} metadata lines without ratings", file=sys.stderr)
    print(f"tags={len(graph.vertices)} edges={len(graph.edges)} method={graph.method} epsilon={graph.eps:g}")
    for child, parent in graph.edges:
        print(f"{child} -> {parent}")
    if args.dot_out:
        with open(args.dot_out, "w", encoding="utf-8") as fh:
            fh.write(tags.export_dot(graph))
        print(f"wrote {args.dot_out}")
    return 0


def _cmd_demo(args):
    import numpy as np

    from . import models

    model = models.QuantumModel(np.asarray([_DEMO_RHO]), np.asarray([[_DEMO_E1, np.eye(2) - _DEMO_E1]]))
    like, dislike = (models.quantum_predict(model, 0, 0, z) for z in (1, 2))
    print(f"p(like) = {like:.17g}")
    print(f"p(dislike) = {dislike:.17g}")
    if abs(like - 49.0 / 50.0) > 1e-12 or abs(dislike - 1.0 / 50.0) > 1e-12:
        print("demo check failed: expected 49/50 and 1/50", file=sys.stderr)
        return 1
    print("demo check passed")
    return 0


def _cmd_recover(args):
    from . import models

    model = models.load_model(args.model_in)
    nnm = models.recover_nnm(model, tol=args.tol, seed=args.seed)
    models.save_model(nnm, args.model_out)
    print(f"recovered nonnegative model D={nnm.D}")
    print(f"saved {args.model_out}")
    return 0


def _cmd_overfit(args):
    from . import models

    ds = _load_dataset(args)
    model = models.overfit_model(ds)
    models.save_model(model, args.model_out)
    print(f"built memorizing model D={model.D} items={model.I}")
    print(f"saved {args.model_out}")
    return 0


def _cmd_histogram(args):
    from . import metrics

    ds = _load_dataset(args)
    counts = metrics.rating_histogram(ds)
    for star, count in enumerate(counts, start=1):
        print(f"{star} {count}")
    return 0


_HANDLERS = {
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "topn": _cmd_topn,
    "hierarchy": _cmd_hierarchy,
    "demo": _cmd_demo,
    "recover": _cmd_recover,
    "overfit": _cmd_overfit,
    "histogram": _cmd_histogram,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be at least 1", file=sys.stderr)
            return 2
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    from .exceptions import PsdrecError

    try:
        return _HANDLERS[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PsdrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
