"""Evaluation metrics: MAE, RMSE, recall@N under the all-items protocol, and
the rating histogram.

MAE and RMSE are star errors of clamped star-scale predictions; a non-finite score raises.
Every metric checks its split's entry indices against the dataset.
recall@N ranks each held-out top-rated item among all items the user has not
rated in training, with pessimistic tie handling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import models
from .data import group_entries
from .exceptions import InvalidInput
from .models import score_entries, score_items

__all__ = ["MetricReport", "mae", "rmse", "recall_at_n", "rating_histogram"]


@dataclass(frozen=True)
class MetricReport:
    """A metric value plus the number of test points and a config echo."""

    metric: str
    value: float
    count: int
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise InvalidInput(f"MetricReport: non-finite {self.metric} value")
        if self.count <= 0:
            raise InvalidInput("MetricReport: count must be positive")

    def as_line(self):
        """Single-line `key=value` record for scripting."""
        parts = [f"metric={self.metric}", f"value={self.value:.17g}", f"count={self.count}"]
        parts += [f"{k}={self.config[k]}" for k in sorted(self.config)]
        return " ".join(parts)


def _split_entries(ds, split):
    """(train, test) entry indices of split; raises unless all lie in [0, len(ds)) and test is nonempty."""
    train, test = (np.asarray(idx, dtype=np.int64) for idx in (split.train, split.test))
    for name, idx in (("train", train), ("test", test)):
        if idx.size and (idx.min() < 0 or idx.max() >= len(ds)):
            raise InvalidInput(f"{name} entry index out of range [0, {len(ds)})")
    if test.size == 0:
        raise InvalidInput("empty test set")
    return train, test


def _star_errors(m, ds, split):
    _, test = _split_entries(ds, split)
    scores = score_entries(m, ds.uu[test], ds.ii[test])
    if not np.isfinite(scores).all():
        raise InvalidInput("non-finite like score")
    return np.clip(ds.z_star * scores, 1.0, float(ds.z_star)) - ds.rr[test]


def mae(m, ds, split):
    """Mean absolute star error over the test entries."""
    err = _star_errors(m, ds, split)
    return MetricReport("mae", float(np.mean(np.abs(err))), len(err), {"z_star": ds.z_star})


def rmse(m, ds, split):
    """Root mean squared star error over the test entries."""
    err = _star_errors(m, ds, split)
    return MetricReport("rmse", float(np.sqrt(np.mean(err**2))), len(err), {"z_star": ds.z_star})


def _block_entries(ptr, columns, units):
    """(row, column) of every entry of the given units in a CSR grouping;
    row k belongs to units[k]."""
    counts = ptr[units + 1] - ptr[units]
    rows = np.repeat(np.arange(units.size), counts)
    first = np.repeat(ptr[units] - np.cumsum(counts) + counts, counts)
    return rows, columns[first + np.arange(rows.size)]


def recall_at_n(m, ds, split, n):
    """Fraction of held-out top-star entries ranked within the top n.

    For each test entry rated z_star, the test item's like score is ranked
    among all items the user has not rated in training (the test item
    included). Ties are pessimistic: rank = 1 + #{strictly greater} +
    #{equal, other item}, which is the number of candidates scoring at least
    the test item's score. A hit is rank <= n.

    Users are scored by `score_items` in blocks of `models._SCORE_BLOCK` scores or one row.
    With training items set to -inf, rank <= n holds exactly when the test
    score is above the row's (n+1)-th largest score, so one partition of the
    block decides every hit; when n >= I every entry is a hit. A non-finite
    score, a split index outside the dataset or a dataset larger than the
    model raises InvalidInput.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidInput(f"recall_at_n: n must be a positive integer, got {n!r}")
    if ds.U > m.U or ds.I > m.I:
        raise InvalidInput(f"recall_at_n: dataset is {ds.U} x {ds.I}, the model {m.U} x {m.I}")
    train, test = _split_entries(ds, split)
    relevant = test[ds.rr[test] == ds.z_star]
    if relevant.size == 0:
        raise InvalidInput("recall_at_n: no test entries with the top rating")

    rated_ptr, rated = group_entries(ds.uu[train], ds.U, ds.ii[train])
    test_ptr, test_items = group_entries(ds.uu[relevant], ds.U, ds.ii[relevant])
    users = np.flatnonzero(np.diff(test_ptr))
    kth = m.I - n - 1  # ascending position of the (n+1)-th largest score
    step = max(1, models._SCORE_BLOCK // max(m.I, 1))

    hits = 0
    for s in range(0, users.size, step):
        block = users[s : s + step]
        scores = score_items(m, block)
        if not np.isfinite(scores).all():
            raise InvalidInput("recall_at_n: non-finite like score")
        rows, items = _block_entries(test_ptr, test_items, block)
        held_out = scores[rows, items]
        if kth < 0:
            hits += held_out.size
            continue
        scores[_block_entries(rated_ptr, rated, block)] = -np.inf
        scores.partition(kth, axis=1)
        hits += int(np.count_nonzero(held_out > scores[rows, kth]))
    value = hits / relevant.size
    return MetricReport(
        "recall",
        float(value),
        int(relevant.size),
        {"n": n, "protocol": "all-items", "ties": "pessimistic"},
    )


def rating_histogram(ds):
    """Exact counts per star value, index 0 holding the count of 1-star ratings."""
    return np.bincount(ds.rr, minlength=ds.z_star + 1)[1:]
