"""Evaluation metrics: MAE, RMSE, recall@N under the all-items protocol, and
the rating histogram.

MAE and RMSE are computed in star units on clamped star-scale predictions.
recall@N ranks each held-out top-rated item among all items the user has not
rated in training, with pessimistic tie handling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


def _star_errors(m, ds, split):
    test = np.asarray(split.test, dtype=np.int64)
    if test.size == 0:
        raise InvalidInput("empty test set")
    uu, ii, rr = ds.uu[test], ds.ii[test], ds.rr[test]
    scores = score_entries(m, uu, ii)
    stars = np.clip(ds.z_star * np.clip(scores, 0.0, 1.0), 1.0, float(ds.z_star))
    return stars - rr


def mae(m, ds, split):
    """Mean absolute star error over the test entries."""
    err = _star_errors(m, ds, split)
    return MetricReport("mae", float(np.mean(np.abs(err))), len(err), {"z_star": ds.z_star})


def rmse(m, ds, split):
    """Root mean squared star error over the test entries."""
    err = _star_errors(m, ds, split)
    return MetricReport("rmse", float(np.sqrt(np.mean(err**2))), len(err), {"z_star": ds.z_star})


# Largest number of scores recall_at_n holds at once (512 KiB of float64); a
# block has max(1, _RECALL_BLOCK // I) users. Larger blocks save little time
# and raise a recall call's peak memory: blocks of 2**18 scores with a complex
# product took its traced peak from 2.6 to 11.2 MB, and the peak RSS of a
# 5-fold run at ML-100K shape up by 14%.
_RECALL_BLOCK = 1 << 16


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

    Users are scored a block at a time (`score_items` with an index array).
    With training items set to -inf, rank <= n holds exactly when the test
    score is above the row's (n+1)-th largest score, so one partition of the
    block decides every hit; when n >= I every entry is a hit. A non-finite
    score raises InvalidInput.
    """
    if n < 1:
        raise InvalidInput(f"recall_at_n: n must be positive, got {n}")
    test = np.asarray(split.test, dtype=np.int64)
    if test.size == 0:
        raise InvalidInput("empty test set")
    relevant = test[ds.rr[test] == ds.z_star]
    if relevant.size == 0:
        raise InvalidInput("recall_at_n: no test entries with the top rating")

    train = np.asarray(split.train, dtype=np.int64)
    rated_ptr, rated = group_entries(ds.uu[train], ds.U, ds.ii[train])
    test_ptr, test_items = group_entries(ds.uu[relevant], ds.U, ds.ii[relevant])
    users = np.flatnonzero(np.diff(test_ptr))
    kth = m.I - n - 1  # ascending position of the (n+1)-th largest score
    step = max(1, _RECALL_BLOCK // max(m.I, 1))

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
