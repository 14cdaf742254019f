import numpy as np
import pytest

from psdrec import data, metrics, models
from psdrec.exceptions import InvalidInput

from _oracles import naive_recall
from conftest import from_arrays, random_dataset, random_quantum_model


def full_split(ds, test_idx):
    test = np.asarray(test_idx, dtype=np.int64)
    train = np.setdiff1d(np.arange(len(ds)), test)
    return data.DataSplit(train=train, test=test)


def diag_model(likes, n_users):
    """One-dimensional quantum model whose like score for item i is likes[i]."""
    likes = np.asarray(likes, dtype=float)
    users = np.ones((n_users, 1, 1), dtype=complex)
    items = np.stack([np.stack([np.array([[p]], dtype=complex), np.array([[1.0 - p]], dtype=complex)]) for p in likes])
    return models.QuantumModel(users=users, items=items)


class TestErrorMetrics:
    def test_mae_hand_computed(self):
        # one user, two items with like scores 1.0 and 0.2 -> stars 5.0, 1.0
        m = diag_model([1.0, 0.2], 1)
        ds = from_arrays([0, 0], [0, 1], [4, 3], U=1, I=2)
        split = data.DataSplit(train=np.array([], dtype=np.int64), test=np.array([0, 1]))
        report = metrics.mae(m, ds, split)
        assert abs(report.value - (abs(5.0 - 4) + abs(1.0 - 3)) / 2) <= 1e-12
        assert report.count == 2
        assert report.metric == "mae"

    def test_rmse_hand_computed(self):
        m = diag_model([1.0, 0.2], 1)
        ds = from_arrays([0, 0], [0, 1], [4, 3], U=1, I=2)
        split = data.DataSplit(train=np.array([], dtype=np.int64), test=np.array([0, 1]))
        report = metrics.rmse(m, ds, split)
        assert abs(report.value - np.sqrt((1.0 + 4.0) / 2)) <= 1e-12

    def test_star_mapping_clamps(self):
        # like score 0 maps to star 1 (never 0), like score 1 maps to z_star
        m = diag_model([0.0], 1)
        ds = from_arrays([0], [0], [1], U=1, I=1)
        split = data.DataSplit(train=np.array([], dtype=np.int64), test=np.array([0]))
        assert metrics.mae(m, ds, split).value == 0.0

    def test_empty_test_rejected(self):
        m = diag_model([0.5], 1)
        ds = from_arrays([0], [0], [3], U=1, I=1)
        split = data.DataSplit(train=np.array([0]), test=np.array([], dtype=np.int64))
        with pytest.raises(InvalidInput):
            metrics.mae(m, ds, split)
        with pytest.raises(InvalidInput):
            metrics.rmse(m, ds, split)

    def test_report_as_line(self):
        m = diag_model([1.0], 1)
        ds = from_arrays([0], [0], [5], U=1, I=1)
        split = data.DataSplit(train=np.array([], dtype=np.int64), test=np.array([0]))
        line = metrics.mae(m, ds, split).as_line()
        assert "metric=mae" in line and "value=" in line and "count=1" in line


class TestRecall:
    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            ds = random_dataset(rng, 8, 10, density=0.6)
            if not (ds.rr == ds.z_star).any():
                continue
            m = random_quantum_model(rng, 8, 10, 2)
            relevant_entries = np.nonzero(ds.rr == ds.z_star)[0]
            split = full_split(ds, relevant_entries[: max(1, len(relevant_entries) // 2)])
            for n in (1, 3, 10):
                report = metrics.recall_at_n(m, ds, split, n)
                hits, relevant = naive_recall(m, ds, split, n)
                assert report.count == relevant
                assert abs(report.value - hits / relevant) <= 1e-12

    def test_perfect_model_hits(self):
        # user 0 holds out item 0 rated 5; the model scores it top
        m = diag_model([1.0, 0.1, 0.2], 1)
        ds = from_arrays([0, 0, 0], [0, 1, 2], [5, 3, 2], U=1, I=3)
        split = full_split(ds, [0])
        assert metrics.recall_at_n(m, ds, split, 1).value == 1.0

    def test_pessimistic_ties(self):
        # every item scores equally; rank of the held-out item equals the
        # number of candidates, so it misses any smaller n
        m = diag_model([0.5, 0.5, 0.5], 1)
        ds = from_arrays([0, 0, 0], [0, 1, 2], [5, 3, 2], U=1, I=3)
        split = data.DataSplit(train=np.array([1, 2]), test=np.array([0]))
        # candidates: item 0 only (items 1, 2 are in train) -> rank 1
        assert metrics.recall_at_n(m, ds, split, 1).value == 1.0
        split = data.DataSplit(train=np.array([2]), test=np.array([0, 1]))
        # candidates: items 0 and 1, tied -> pessimistic rank 2
        assert metrics.recall_at_n(m, ds, split, 1).value == 0.0
        assert metrics.recall_at_n(m, ds, split, 2).value == 1.0

    def test_no_relevant_rejected(self):
        m = diag_model([0.5, 0.5], 1)
        ds = from_arrays([0, 0], [0, 1], [4, 3], U=1, I=2)
        split = full_split(ds, [0])
        with pytest.raises(InvalidInput):
            metrics.recall_at_n(m, ds, split, 1)

    def test_bad_n_rejected(self):
        m = diag_model([0.5], 1)
        ds = from_arrays([0], [0], [5], U=1, I=1)
        split = data.DataSplit(train=np.array([], dtype=np.int64), test=np.array([0]))
        with pytest.raises(InvalidInput):
            metrics.recall_at_n(m, ds, split, 0)

    def test_non_decreasing_in_n(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, 10, 12, density=0.7)
        if not (ds.rr == ds.z_star).any():
            pytest.skip("no relevant entries drawn")
        m = random_quantum_model(rng, 10, 12, 2)
        relevant_entries = np.nonzero(ds.rr == ds.z_star)[0]
        split = full_split(ds, relevant_entries)
        values = [metrics.recall_at_n(m, ds, split, n).value for n in (1, 2, 4, 8, 12)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestHistogram:
    def test_counts(self):
        ds = from_arrays([0, 0, 1, 1], [0, 1, 0, 1], [5, 5, 1, 3], U=2, I=2)
        counts = metrics.rating_histogram(ds)
        assert counts.tolist() == [1, 0, 1, 0, 2]
