import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    @given(
        scores=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
        z_star=st.integers(2, 10),
        data_=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    # z_star * score overflows to inf for |score| near the float maximum; the clip still maps it to a star.
    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
    def test_star_errors_match_double_clip(self, scores, z_star, data_):
        # A finite score gives the same star error as clipping it to [0, 1] before the star scale.
        rr = data_.draw(st.lists(st.integers(1, z_star), min_size=len(scores), max_size=len(scores)))
        ds = from_arrays([0] * len(scores), range(len(scores)), rr, U=1, I=len(scores), z_star=z_star)
        split = data.DataSplit(train=np.array([], dtype=np.int64), test=np.arange(len(scores)))
        s = np.asarray(scores)
        expected = np.clip(z_star * np.clip(s, 0.0, 1.0), 1.0, float(z_star)) - np.asarray(rr)
        got = metrics._star_errors("mae", diag_model(scores, 1), ds, split)
        assert got.tobytes() == expected.tobytes()

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
        for n in (0, 2.5, 2.0, "2", True, np.True_):
            with pytest.raises(InvalidInput, match="recall_at_n: n must be an integer >= 1"):
                metrics.recall_at_n(m, ds, split, n)
        assert metrics.recall_at_n(m, ds, split, np.int64(2)).value == 1.0

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


def dyadic_model(rng, kind, n_users, n_items, d, n_distinct):
    """Model with entries on a 1/4 grid, so every score is exact in any
    summation order; items share n_distinct like effects, so scores tie exactly."""

    def grid(*shape):
        return rng.integers(-4, 5, size=shape) / 4.0

    if kind == "nnm":
        users, likes = grid(n_users, d), grid(n_distinct, d)
    else:
        users, likes = grid(n_users, d, d), grid(n_distinct, d, d)
        if kind == "complex":
            users, likes = users + 1j * grid(n_users, d, d), likes + 1j * grid(n_distinct, d, d)
        # Hermitian, so that tr(rho E) is the flat inner product the library scores
        users = users + np.conj(np.swapaxes(users, -1, -2))
        likes = likes + np.conj(np.swapaxes(likes, -1, -2))
    likes = likes[rng.integers(0, n_distinct, size=n_items)]
    items = np.stack([likes, 1.0 - likes], axis=1)
    return (models.NnmModel if kind == "nnm" else models.QuantumModel)(users, items)


def _recall_case(kind, n_users, n_items, seed, d, n_distinct, p, n, block_users):
    """(model, dataset, split, n, users per block) of one drawn recall case."""
    rng = np.random.default_rng(seed)
    m = dyadic_model(rng, kind, n_users, n_items, d, n_distinct)
    # each pair is unrated, in training, or held out; a user's row may be all training
    cells = rng.choice(3, size=(n_users, n_items), p=p)
    cells[rng.integers(n_users), rng.integers(n_items)] = 2  # at least one held-out entry
    uu, ii = np.nonzero(cells)
    rr = rng.integers(1, 6, size=uu.size)
    held = cells[uu, ii] == 2
    rr[np.flatnonzero(held)[0]] = 5
    ds = from_arrays(uu, ii, rr, U=n_users, I=n_items)
    split = data.DataSplit(train=np.flatnonzero(~held), test=np.flatnonzero(held))
    return m, ds, split, n, block_users


@st.composite
def _recall_cases(draw):
    kind = draw(st.sampled_from(["nnm", "real", "complex"]))
    n_users, n_items = draw(st.integers(1, 8)), draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    d, n_distinct = draw(st.integers(1, 2)), draw(st.integers(1, n_items))
    p = draw(st.sampled_from([(0.3, 0.4, 0.3), (0.0, 0.8, 0.2)]))
    n, block_users = draw(st.integers(1, n_items + 2)), draw(st.integers(1, 3))
    return _recall_case(kind, n_users, n_items, seed, d, n_distinct, p, n, block_users)


class TestBlockedRecall:
    @given(case=_recall_cases())
    # Two distinct like effects whose exact scores tie on the 1/4 grid score
    # one ulp apart from sqrt(2)-scaled coordinate rows; the held-out one
    # must still count the other as a tie.
    @example(case=_recall_case("complex", 8, 7, 200, 2, 4, (0.0, 0.8, 0.2), 1, 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_naive(self, case):
        m, ds, split, n, block_users = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(models, "_SCORE_BLOCK", block_users * m.I)
            report = metrics.recall_at_n(m, ds, split, n)
        hits, relevant = naive_recall(m, ds, split, n)
        assert report.count == relevant
        assert report.value == hits / relevant

    @pytest.mark.parametrize("block_users", [1, 2, 3])
    def test_exact_ties_at_each_block_size(self, monkeypatch, block_users):
        # items 0, 2 and 4 share one like effect; pessimistic ties count every equal candidate
        m = diag_model([0.5, 0.25, 0.5, 0.75, 0.5], 4)
        monkeypatch.setattr(models, "_SCORE_BLOCK", block_users * m.I)
        uu = [0, 0, 1, 1, 2, 3, 3]
        ii = [0, 3, 0, 2, 4, 0, 1]
        ds = from_arrays(uu, ii, [5, 2, 5, 3, 5, 5, 5], U=4, I=5)
        split = data.DataSplit(train=np.array([1, 3]), test=np.array([0, 2, 4, 5, 6]))
        for n in (1, 2, 3, 4, 5):
            hits, relevant = naive_recall(m, ds, split, n)
            assert metrics.recall_at_n(m, ds, split, n).value == hits / relevant

    @pytest.mark.parametrize("n", [3, 4, 100])
    def test_n_at_least_items_hits_everything(self, n):
        m = diag_model([0.9, 0.1, 0.5], 2)
        ds = from_arrays([0, 0, 1], [1, 2, 1], [5, 5, 5], U=2, I=3)
        split = data.DataSplit(train=np.array([], dtype=np.int64), test=np.array([0, 1, 2]))
        assert metrics.recall_at_n(m, ds, split, n).value == 1.0

    def test_users_without_held_out_items(self, monkeypatch):
        # user 0 rated every item in training, user 1 rated nothing, user 3
        # rated only non-top stars; only users 2 and 4 are ranked
        m = diag_model([0.2, 0.9, 0.4], 5)
        monkeypatch.setattr(models, "_SCORE_BLOCK", m.I)
        uu = [0, 0, 0, 2, 2, 3, 4, 4, 4]
        ii = [0, 1, 2, 0, 1, 2, 0, 1, 2]
        rr = [5, 5, 5, 5, 1, 3, 2, 4, 5]
        ds = from_arrays(uu, ii, rr, U=5, I=3)
        split = data.DataSplit(train=np.array([0, 1, 2, 4, 6, 7]), test=np.array([3, 5, 8]))
        # user 2: item 0 against item 2 (item 1 in training) -> rank 2; user 4: item 2 alone -> rank 1
        assert metrics.recall_at_n(m, ds, split, 1).value == 0.5
        assert metrics.recall_at_n(m, ds, split, 2).value == 1.0
        hits, relevant = naive_recall(m, ds, split, 1)
        assert (hits, relevant) == (1, 2)

    def test_block_read_from_models_at_call_time(self, monkeypatch):
        # one user per block once the models budget holds one row of scores
        m = diag_model([0.2, 0.9, 0.4], 4)
        ds = from_arrays([0, 1, 2, 3], [0, 1, 2, 0], [5, 5, 5, 5], U=4, I=3)
        split = data.DataSplit(train=np.array([], dtype=np.int64), test=np.arange(4))
        calls = []
        monkeypatch.setattr(metrics, "score_items", lambda m, u: calls.append(len(u)) or models.score_items(m, u))
        monkeypatch.setattr(models, "_SCORE_BLOCK", m.I)
        metrics.recall_at_n(m, ds, split, 1)
        assert calls == [1, 1, 1, 1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_raises(self, bad):
        users = np.array([[[1.0, 0.0], [0.0, bad]]], dtype=complex)
        likes = np.array([np.diag([0.9, 0.1]), np.diag([0.1, 0.2])], dtype=complex)
        m = models.QuantumModel(users, np.stack([likes, np.eye(2) - likes], axis=1))
        ds = from_arrays([0], [0], [5], U=1, I=2)
        split = data.DataSplit(train=np.array([], dtype=np.int64), test=np.array([0]))
        for metric in (metrics.mae, metrics.rmse, lambda *a: metrics.recall_at_n(*a, 1)):
            with pytest.raises(InvalidInput, match="non-finite"):
                metric(m, ds, split)

    def test_peak_memory_bounded_by_the_block(self):
        # all 2000 x 1000 scores at once would take 16 MB; a block takes 0.5 MB
        rng = np.random.default_rng(5)
        n_users, n_items = 2000, 1000
        users = rng.random((n_users, 2))
        likes = rng.random((n_items, 2))
        m = models.NnmModel(users / users.sum(axis=1, keepdims=True), np.stack([likes, 1.0 - likes], axis=1))
        uu = np.repeat(np.arange(n_users), 2)
        ii = rng.integers(0, n_items // 2, size=uu.size) * 2 + np.tile([0, 1], n_users)
        ds = from_arrays(uu, ii, np.tile([5, 3], n_users), U=n_users, I=n_items)
        split = data.DataSplit(train=np.arange(1, uu.size, 2), test=np.arange(0, uu.size, 2))
        assert n_users * n_items >= 10 * models._SCORE_BLOCK
        tracemalloc.start()
        try:
            metrics.recall_at_n(m, ds, split, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


    def test_transient_bounded_per_dataset_entry(self):
        # 200k entries at 5% density, 80% of them in training, listed user
        # by user. Masking through one flag per entry, grouped without a
        # sort or a copy, holds about 2 bytes per entry; sorting all entries
        # by user held about 10, and gathering and grouping the training
        # entries about 32 per training entry.
        rng = np.random.default_rng(6)
        n_users, n_items, per_user = 4000, 1000, 50
        uu = np.repeat(np.arange(n_users), per_user)
        ii = np.argsort(rng.random((n_users, n_items)), axis=1)[:, :per_user].ravel()
        ds = from_arrays(uu, ii, rng.integers(1, 6, size=uu.size), U=n_users, I=n_items)
        split = data.topn_holdout(ds, 0.2, 0)
        users, likes = rng.random((n_users, 2)), rng.random((n_items, 2))
        m = models.NnmModel(users / users.sum(axis=1, keepdims=True), np.stack([likes, 1.0 - likes], axis=1))
        tracemalloc.start()
        try:
            report = metrics.recall_at_n(m, ds, split, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(ds) + 8 * models._SCORE_BLOCK
        assert report.count == int(np.count_nonzero(ds.rr[split.test] == 5))

    def test_transient_bounded_per_shuffled_dataset_entry(self):
        # The same entries shuffled, as in a file not listed user by user:
        # grouping keeps the 8-byte stable order and the flags and looks
        # each block's items up through the order. Gathering every item
        # beside the flags held about 18 bytes per entry.
        rng = np.random.default_rng(6)
        n_users, n_items, per_user = 4000, 1000, 50
        uu = np.repeat(np.arange(n_users), per_user)
        ii = np.argsort(rng.random((n_users, n_items)), axis=1)[:, :per_user].ravel()
        rr = rng.integers(1, 6, size=uu.size)
        shuffle = np.random.default_rng(16).permutation(uu.size)
        ds = from_arrays(uu[shuffle], ii[shuffle], rr[shuffle], U=n_users, I=n_items)
        split = data.topn_holdout(ds, 0.2, 0)
        users, likes = rng.random((n_users, 2)), rng.random((n_items, 2))
        m = models.NnmModel(users / users.sum(axis=1, keepdims=True), np.stack([likes, 1.0 - likes], axis=1))
        tracemalloc.start()
        try:
            report = metrics.recall_at_n(m, ds, split, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 * len(ds)
        ordered = from_arrays(uu, ii, rr, U=n_users, I=n_items)
        same = data.DataSplit(train=shuffle[split.train], test=shuffle[split.test])
        want = metrics.recall_at_n(m, ordered, same, 20)
        assert (report.value, report.count) == (want.value, want.count)

    def test_user_ordered_entries_are_not_sorted(self, monkeypatch):
        # Entries listed user by user, as in a file, group without a sort.
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, 9, 6, density=0.6)
        assert np.all(np.diff(ds.uu) >= 0)
        split = data.topn_holdout(ds, 0.4, 0)
        m = random_quantum_model(rng, 9, 6, 2)

        def refuse(values, n):
            raise AssertionError("entries in user order were sorted")

        monkeypatch.setattr(data, "_stable_order", refuse)
        for n in (1, 2, 3):
            hits, relevant = naive_recall(m, ds, split, n)
            report = metrics.recall_at_n(m, ds, split, n)
            assert (report.value, report.count) == (hits / relevant, relevant)

    def test_repeated_split_entries(self):
        # A training entry listed twice masks its item once; a held-out entry
        # listed twice counts twice, as in the per-entry loop.
        m = diag_model([0.2, 0.9, 0.4, 0.6], 2)
        ds = from_arrays([0, 0, 0, 1, 1], [0, 1, 2, 1, 3], [5, 4, 5, 5, 2], U=2, I=4)
        split = data.DataSplit(train=np.array([1, 1, 4]), test=np.array([0, 2, 2, 3]))
        for n in (1, 2, 3):
            hits, relevant = naive_recall(m, ds, split, n)
            report = metrics.recall_at_n(m, ds, split, n)
            assert (report.value, report.count) == (hits / relevant, relevant)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: metrics.MetricReport("mae", float("nan"), 1), "non-finite mae"),
        (lambda: metrics.MetricReport("rmse", float("inf"), 1), "non-finite rmse"),
        (lambda: metrics.MetricReport("mae", 0.5, 0), "MetricReport: count must be an integer >= 1, got 0"),
        (lambda: metrics.recall_at_n(diag_model([0.5], 1), from_arrays([0], [0], [5], U=1, I=1),
                                     data.DataSplit(train=np.array([0]), test=np.array([], dtype=np.int64)), 1),
         "empty test set"),
    ],
    ids=["report-nan", "report-inf", "report-count", "recall-empty-test"],
)
def test_rejects_invalid_reports(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()


@pytest.mark.parametrize(
    "metric",
    [metrics.mae, metrics.rmse, lambda m, ds, split: metrics.recall_at_n(m, ds, split, 2)],
    ids=["mae", "rmse", "recall"],
)
@pytest.mark.parametrize(
    "train, test, model_items",
    [([0, 1], [-1], 5), ([0, 1], [5], 5), ([5], [2], 5), ([0, 1], [4], 3)],
    ids=["test-negative", "test-past-end", "train-past-end", "item-outside-model"],
)
def test_rejects_entries_outside_dataset_or_model(metric, train, test, model_items):
    # Five top-rated entries; without the checks -1 would score the last
    # entry and the others would raise a bare IndexError.
    ds = from_arrays([0, 0, 1, 1, 1], [0, 1, 2, 3, 4], [5, 5, 5, 5, 5], U=2, I=5)
    m = diag_model(np.linspace(0.1, 0.9, model_items), 2)
    with pytest.raises(InvalidInput, match=r"out of range|the model 2 x 3"):
        metric(m, ds, data.DataSplit(train=np.array(train), test=np.array(test)))


class TestHistogram:
    def test_counts(self):
        ds = from_arrays([0, 0, 1, 1], [0, 1, 0, 1], [5, 5, 1, 3], U=2, I=2)
        counts = metrics.rating_histogram(ds)
        assert counts.tolist() == [1, 0, 1, 0, 2]
