"""The paper's three protocols, driven through psdrec's public functions.

Each protocol calls the library in the order the matching `psdrec` command
handler does (`evaluate`, `topn`, `hierarchy`), always through module
attributes so that a tracer can wrap them, and checks every output. A few
steps go beyond the handler so that every workload yields every quality
number the benchmark reports; they run after the handler's own steps and
are marked below.

An operation is a fold, a metric, a file round trip or a tag pair. It
fails when it raises or when its output check fails; the Ops tally counts
both. A tag pair's check is the answer the planted model gives for it, so a
change to the containment tests that flips an answer fails the run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

import psdrec.data as data
import psdrec.metrics as metrics
import psdrec.models as models
import psdrec.tags as tags
import psdrec.train as train

import gen

# Worst constraint violation a trained model may show.
RESIDUAL_TOL = 1e-8
RECALL_N = 20
# Training settings besides the sweep count, as `psdrec evaluate` and
# `psdrec topn` get them from their config files.
CV_TRAIN = {"D": 2, "mode": "mae"}
TOPN_TRAIN = {"D": 3, "mode": "recall"}
# Holdout for the planted model's quality numbers: the CLI's default
# `topn --fraction`, large enough that recall@20 is steady across seeds.
PLANTED_HOLDOUT = 0.2
# The reference leaves a simple-test pair unjudged when its overlap lies
# this close to the threshold, where rounding may tip the answer.
SIMPLE_TIE = 1e-9


@dataclass(frozen=True)
class Settings:
    """Protocol parameters; the warm-up pass uses smaller ones."""

    folds: int = 5
    sweeps: int = 16
    holdout: float = 0.014
    epsilon: float = 0.333
    exclude: tuple = ()


FULL = Settings()


@dataclass
class Ops:
    """Attempted and failed operations, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    def run(self, what, fn, *args, **kwargs):
        """Call fn; an exception counts as a failed operation and gives None."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")
            return None


def _finite(x):
    return x is not None and math.isfinite(x)


def _check_shape(ops, ds, stated):
    if ds is not None:
        ops.check((ds.U, ds.I, len(ds)) == tuple(stated), f"ratings shape {(ds.U, ds.I, len(ds))} != {stated}")
    return ds


def _train(ops, ds, split, cfg, out, what):
    """One fold: train on the split's training entries and check the model."""
    tic = time.perf_counter()
    got = ops.run(what, train.train_quantum, ds.subset(split.train), cfg)
    out["train_s"] += time.perf_counter() - tic
    if got is None:
        return None
    model, history = got
    residual = train.constraint_residual(model)
    obj = history.objective[-1] if len(history) else float("nan")
    ok = len(history) == cfg.max_iter and residual <= RESIDUAL_TOL and _finite(obj)
    ops.check(ok, f"{what}: sweeps={len(history)} residual={residual:.3e} objective={obj}")
    out["final_objective"].append(obj)
    return model


def _metric(ops, fn, *args):
    report = ops.run(fn.__name__, fn, *args)
    if report is None:
        return None
    ops.check(_finite(report.value), f"{fn.__name__} is not finite")
    return report.value


def _star_errors_and_recall(ops, model, ds, split, out):
    for key, fn, extra in (
        ("mae", metrics.mae, ()),
        ("rmse", metrics.rmse, ()),
        ("recall_at_20", metrics.recall_at_n, (RECALL_N,)),
    ):
        out[key].append(_metric(ops, fn, model, ds, split, *extra))


def _mean(values):
    return float(np.mean(values)) if values and all(_finite(v) for v in values) else float("nan")


def _results(out):
    return {k: _mean(v) if isinstance(v, list) else v for k, v in out.items()}


def _new_out():
    return {"train_s": 0.0, "final_objective": [], "mae": [], "rmse": [], "recall_at_20": []}


def cross_validate(inputs, ops, settings=FULL):
    """`psdrec evaluate --folds 5`: D=2, mae mode, 16 sweeps (2 zero-fill).

    Beyond the handler: recall@20 on each fold's test entries.
    """
    out = _new_out()
    ds = _check_shape(ops, ops.run("load ratings", data.load_movielens_100k, inputs.ratings), inputs.shape)
    if ds is None:
        return _results(out)
    cfg = train.TrainConfig(max_iter=settings.sweeps, **CV_TRAIN)
    for j, split in enumerate(data.kfold_split(ds, settings.folds, seed=0)):
        model = _train(ops, ds, split, cfg, out, f"fold {j}")
        if model is not None:
            _star_errors_and_recall(ops, model, ds, split, out)
    return _results(out)


def holdout_topn(inputs, ops, work_dir, settings=FULL):
    """`psdrec topn --n 20 --fraction 0.014`: D=3, recall mode, every sweep
    zero-filled.

    Beyond the handler: MAE and RMSE on the held-out entries, then a
    save_model / load_model round trip of the trained model.
    """
    out = _new_out()
    ds = _check_shape(ops, ops.run("load ratings", data.load_movielens_1m, inputs.ratings), inputs.shape)
    if ds is None:
        return _results(out)
    split = data.topn_holdout(ds, settings.holdout, seed=0)
    cfg = train.TrainConfig(max_iter=settings.sweeps, **TOPN_TRAIN)
    model = _train(ops, ds, split, cfg, out, "holdout")
    if model is None:
        return _results(out)
    out["recall_at_20"].append(_metric(ops, metrics.recall_at_n, model, ds, split, RECALL_N))
    out["mae"].append(_metric(ops, metrics.mae, model, ds, split))
    out["rmse"].append(_metric(ops, metrics.rmse, model, ds, split))
    path = work_dir / "trained.psdrec"
    ops.run("save model", models.save_model, model, path)
    loaded = ops.run("load model", models.load_model, path)
    if loaded is not None:
        same = np.array_equal(loaded.users, model.users) and np.array_equal(loaded.items, model.items)
        ops.check(same, "model file round trip is not bit-exact")
    return _results(out)


def dot_misses(graph, dot):
    """Vertices and edges of graph that the DOT text does not name."""
    missing = [v for v in graph.vertices if f'"{v}";' not in dot]
    edges = set(graph.edges)
    for a, b in graph.edges:
        one_way = f'"{a}" -> "{b}";' in dot
        mutual = (b, a) in edges and (
            f'"{a}" -> "{b}" [dir=both];' in dot or f'"{b}" -> "{a}" [dir=both];' in dot
        )
        if not (one_way or mutual):
            missing.append((a, b))
    return missing


def expected_edges(inputs, vertices, eps):
    """The edges each method must find, worked out from the planted model
    without psdrec. Returns ({method: edge set}, {method: unjudged pairs}).

    simple: tr(E_a E_b) >= (1 - eps) tr(E_a), with E_g the mean planted
    like-effect of genre g's items. sdp: the planted containments; every
    other pair sits far from the test's thresholds.
    """
    _, likes = inputs.planted()
    genres = inputs.planted_genres()
    effect = {
        g: likes[genres[:, k]].mean(axis=0) for k, g in enumerate(gen.GENRES) if g in vertices and genres[:, k].any()
    }
    simple, unjudged = set(), set()
    for a, ea in effect.items():
        bar = (1.0 - eps) * np.real(np.trace(ea))
        for b, eb in effect.items():
            if a == b:
                continue
            overlap = np.real(np.trace(ea @ eb))
            if abs(overlap - bar) <= SIMPLE_TIE:
                unjudged.add((a, b))
            elif overlap > bar:
                simple.add((a, b))
    sdp = {(a, b) for a, b in gen.planted_containments() if a in vertices and b in vertices}
    return {"simple": simple, "sdp": sdp}, {"simple": unjudged, "sdp": set()}


def hierarchy(inputs, ops, settings=FULL):
    """`psdrec hierarchy --method simple|sdp --epsilon 0.333` on the planted
    model, once per method.

    Beyond the handler: the loaded model must equal the planted one bit for
    bit, the tags must be the planted genres, each tag pair must get the
    planted answer (expected_edges), and the model's star errors and
    recall@20 are measured on a PLANTED_HOLDOUT holdout.
    """
    out = {"mae": [], "rmse": [], "recall_at_20": []}
    model = ops.run("load model", models.load_model, inputs.model)
    if model is not None:
        users, likes = inputs.planted()
        same = np.array_equal(model.users, users) and np.array_equal(model.items[:, 0], likes)
        ops.check(same, "planted model file does not load bit-exact")
    ds = _check_shape(ops, ops.run("load ratings", data.load_movielens_1m, inputs.ratings), inputs.shape)
    if model is None or ds is None:
        return _results(out)
    catalog = ops.run("load genres", data.load_genres_1m, inputs.movies, ds, exclude=settings.exclude)
    if catalog is None:
        return _results(out)
    ops.check(catalog.skipped == inputs.unrated_movies, f"skipped {catalog.skipped} movies")
    planted_tags = {g for g, has in zip(gen.GENRES, inputs.planted_genres().any(axis=0)) if has}
    ops.check(set(catalog.tags) == planted_tags - set(settings.exclude), f"tags {catalog.tags}")
    expected, unjudged = expected_edges(inputs, set(catalog.tags), settings.epsilon)
    n_pairs = len(catalog.tags) * (len(catalog.tags) - 1)
    for method in ("simple", "sdp"):
        cfg = tags.SdpConfig(seed=0) if method == "sdp" else None
        try:
            graph = tags.build_hierarchy(model, catalog, settings.epsilon, method=method, cfg=cfg)
            dot = tags.export_dot(graph)
        except Exception as exc:  # noqa: BLE001 - counted as failed tag pairs
            ops.attempted += n_pairs
            ops.failed += n_pairs
            ops.notes.append(f"{method} hierarchy: {type(exc).__name__}: {exc}")
            continue
        missing = dot_misses(graph, dot)
        wrong = (set(graph.edges) ^ expected[method]) - unjudged[method]
        ops.attempted += n_pairs
        ops.failed += len(set(missing) | wrong)
        if missing:
            ops.notes.append(f"{method} DOT misses {missing}")
        if wrong:
            ops.notes.append(f"{method} edges differ from the planted answer on {sorted(wrong)}")
        out[f"edges_{method}"] = tuple(graph.edges)
    split = data.topn_holdout(ds, PLANTED_HOLDOUT, seed=0)
    _star_errors_and_recall(ops, model, ds, split, out)
    return _results(out)
