"""Spans around psdrec's public functions, recorded from outside the package.

Tracing replaces module attributes of psdrec with timing wrappers for the
duration of a `with Tracer().installed():` block and restores them after.
Callers inside psdrec reach the wrappers because they look the names up on
the module at call time; names a module imported from another one
(`train.score_entries`, `metrics.score_items`, ...) are wrapped where they
are looked up. Nothing under src/ changes.

A span is (name, start, end, parent, attrs). Spans live in memory; per-layer
metrics are computed from them after the traced pass.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time

import numpy as np

import psdrec.data
import psdrec.linalg
import psdrec.metrics
import psdrec.models
import psdrec.tags
import psdrec.train

# Smallest step of perf_counter, so sums of many spans can be compared.
RESOLUTION = time.get_clock_info("perf_counter").resolution


def _batch_rows(args, kwargs, out):
    a = np.asarray(args[0])
    return {"rows": int(np.prod(a.shape[:-2], dtype=np.int64))}


def _update_name(side):
    def name(args, kwargs):
        phase = "zero_fill" if args[1].zero_fill else "observed"
        return f"train.{phase}.{side}"

    return name


def _update_attrs(side):
    def attrs(args, kwargs, out):
        m, cfg = args[0], args[2]
        return {"units": m.I if side == "items" else m.U, "inner_iters": cfg.inner_iters}

    return attrs


def _file_bytes(index):
    def attrs(args, kwargs, out):
        return {"bytes": os.path.getsize(args[index])}

    return attrs


def _entries(args, kwargs, out):
    return {"entries": len(out)}


def _sdp_attrs(args, kwargs, out):
    t, eps = args[0], args[2]
    lam = float(np.linalg.eigvalsh(0.5 * (t.matrix + np.conj(t.matrix.T)))[-1])
    return {"gate_margin": lam - (1.0 - eps / 2.0)}


# (module, attribute, span name or name(args, kwargs), attrs(args, kwargs, out))
WRAPPED = (
    (psdrec.data, "load_movielens_100k", "data.load_ratings", _entries),
    (psdrec.data, "load_movielens_1m", "data.load_ratings", _entries),
    (psdrec.data, "load_genres_1m", "data.load_genres", None),
    (psdrec.data, "kfold_split", "data.split", None),
    (psdrec.data, "topn_holdout", "data.split", None),
    (psdrec.train, "train_quantum", "train.train_quantum", None),
    (psdrec.train, "update_items", _update_name("items"), _update_attrs("items")),
    (psdrec.train, "update_users", _update_name("users"), _update_attrs("users")),
    (psdrec.train, "objective", "train.objective", None),
    (psdrec.train, "constraint_residual", "train.constraint_residual", None),
    (psdrec.train, "score_entries", "models.score_entries", None),
    (psdrec.linalg, "project_to_spectrahedron", "linalg.project_to_spectrahedron", _batch_rows),
    (psdrec.linalg, "project_to_effect", "linalg.project_to_effect", _batch_rows),
    (psdrec.models, "score_entries", "models.score_entries", None),
    (psdrec.models, "score_items", "models.score_items", None),
    (psdrec.models, "save_model", "models.save", _file_bytes(1)),
    (psdrec.models, "load_model", "models.load", _file_bytes(0)),
    (psdrec.metrics, "mae", "metrics.mae", None),
    (psdrec.metrics, "rmse", "metrics.rmse", None),
    (psdrec.metrics, "recall_at_n", "metrics.recall_at_n", None),
    (psdrec.metrics, "score_entries", "models.score_entries", None),
    (psdrec.metrics, "score_items", "models.score_items", None),
    (psdrec.tags, "tag_operator", "tags.tag_operator", None),
    (psdrec.tags, "subset_simple", "tags.subset_simple", None),
    (psdrec.tags, "subset_sdp", "tags.subset_sdp", _sdp_attrs),
    (psdrec.tags, "build_hierarchy", "tags.build_hierarchy", None),
    (psdrec.tags, "export_dot", "tags.export_dot", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans; one tracer per traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        """A span around code of the benchmark itself, e.g. a whole pass."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name):
        rec = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(rec)
        self._stack.append(rec)
        rec.start = time.perf_counter()
        return rec

    def _close(self, rec):
        rec.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if attrs is not None:
                rec.attrs = attrs(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every WRAPPED attribute for the duration of the block."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in WRAPPED]
        try:
            for (mod, attr, name, attrs), (_, _, fn) in zip(WRAPPED, originals):
                setattr(mod, attr, self._wrap(fn, name, attrs))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def self_times(self):
        """Span -> duration minus the time its child spans cover."""
        own = {id(s): s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[id(s.parent)] -= s.duration
        return own

    def check(self):
        """Problems with the span tree: a child outside its parent, a
        negative self time, or self times that do not add up to the root's
        wall time."""
        problems = []
        own = self.self_times()
        subtree = {id(s): 0.0 for s in self.spans}
        roots = []
        for s in reversed(self.spans):  # children after parents
            subtree[id(s)] += own[id(s)]
            if s.parent is None:
                roots.append(s)
                continue
            subtree[id(s.parent)] += subtree[id(s)]
            if s.start < s.parent.start or s.end > s.parent.end:
                problems.append(f"span {s.name} lies outside its parent {s.parent.name}")
        tol = RESOLUTION * (len(self.spans) + 1) + 1e-9
        for s in self.spans:
            if own[id(s)] < -tol:
                problems.append(f"span {s.name} has negative self time {own[id(s)]:.3e}")
        for r in roots:
            gap = abs(subtree[id(r)] - r.duration)
            if gap > tol:
                problems.append(f"self times under {r.name} miss its wall time by {gap:.3e} s")
        return problems


def _sum(spans, name):
    return sum(s.duration for s in spans if s.name == name)


def _count(spans, name):
    return sum(1 for s in spans if s.name == name)


def layer_metrics(tracer):
    """Per-layer numbers of one traced pass, keyed by metric name."""
    spans = tracer.spans
    out = {}

    loads = [s for s in spans if s.name == "data.load_ratings"]
    out["data.load_ratings_s"] = sum(s.duration for s in loads)
    lines = sum(s.attrs["entries"] for s in loads if s.attrs)
    out["data.lines_per_s"] = lines / out["data.load_ratings_s"] if loads else 0.0
    out["data.split_s"] = _sum(spans, "data.split")
    out["data.load_genres_s"] = _sum(spans, "data.load_genres")

    for phase in ("observed", "zero_fill"):
        for side in ("items", "users"):
            out[f"train.{phase}.{side}_s"] = _sum(spans, f"train.{phase}.{side}")
    out["train.objective_s"] = _sum(spans, "train.objective")
    out["train.constraint_residual_s"] = _sum(spans, "train.constraint_residual")
    trains = [s for s in spans if s.name == "train.train_quantum"]
    out["train.train_quantum_s"] = sum(s.duration for s in trains)
    # Each sweep evaluates the objective once, inside train_quantum.
    out["train.sweeps"] = sum(1 for s in spans if s.name == "train.objective" and s.parent in trains)

    updates = [s for s in spans if s.name.startswith(("train.observed.", "train.zero_fill."))]
    rows_of = {id(u): 0 for u in updates}
    for op in ("project_to_spectrahedron", "project_to_effect"):
        calls = [s for s in spans if s.name == f"linalg.{op}"]
        out[f"linalg.{op}.calls"] = len(calls)
        out[f"linalg.{op}.rows"] = sum(s.attrs["rows"] for s in calls)
        out[f"linalg.{op}.s"] = sum(s.duration for s in calls)
        for s in calls:
            if id(s.parent) in rows_of:
                rows_of[id(s.parent)] += s.attrs["rows"]
    # 1.0 means every unit was projected once per inner iteration, i.e. no
    # backtracking retries.
    ratios = [rows_of[id(u)] / (u.attrs["units"] * u.attrs["inner_iters"]) for u in updates]
    out["linalg.rows_per_unit_iter"] = statistics.fmean(ratios) if ratios else 0.0

    out["models.score_entries_s"] = _sum(spans, "models.score_entries")
    out["models.score_items.calls"] = _count(spans, "models.score_items")
    out["models.score_items_s"] = _sum(spans, "models.score_items")
    out["models.save_s"] = _sum(spans, "models.save")
    out["models.load_s"] = _sum(spans, "models.load")
    files = [s for s in spans if s.name in ("models.save", "models.load")]
    out["models.file_bytes"] = max((s.attrs["bytes"] for s in files), default=0)

    out["metrics.mae_s"] = _sum(spans, "metrics.mae")
    out["metrics.rmse_s"] = _sum(spans, "metrics.rmse")
    out["metrics.recall_at_n_s"] = _sum(spans, "metrics.recall_at_n")
    recalls = {id(s) for s in spans if s.name == "metrics.recall_at_n"}
    out["metrics.recall_users"] = sum(
        1 for s in spans if s.name == "models.score_items" and id(s.parent) in recalls
    )

    builds = _count(spans, "tags.build_hierarchy")
    out["tags.count"] = _count(spans, "tags.tag_operator") / builds if builds else 0
    out["tags.tag_operator_s"] = _sum(spans, "tags.tag_operator")
    out["tags.subset_simple_s"] = _sum(spans, "tags.subset_simple")
    sdp = [s for s in spans if s.name == "tags.subset_sdp"]
    times = [s.duration for s in sdp]
    margins = [s.attrs["gate_margin"] for s in sdp]
    out["tags.subset_sdp_s"] = sum(times)
    out["tags.subset_sdp.pairs"] = len(sdp)
    out["tags.subset_sdp.gate_pass_share"] = (
        sum(1 for g in margins if g >= 0.0) / len(sdp) if sdp else 0.0
    )
    out["tags.subset_sdp.p50_s"] = statistics.median(times) if times else 0.0
    out["tags.subset_sdp.max_s"] = max(times, default=0.0)
    passing = [g for g in margins if g >= 0.0]
    out["tags.gate_margin.min_pass"] = min(passing, default=0.0)
    out["tags.gate_margin.max_pass"] = max(passing, default=0.0)
    out["tags.export_dot_s"] = _sum(spans, "tags.export_dot")
    return out
