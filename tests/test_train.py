import dataclasses
import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psdrec import cli, data, linalg, metrics, models, train
from psdrec.exceptions import InvalidInput, NumericalFailure, ParseError

from _oracles import (
    fd_coefficients,
    hermitian_basis,
    naive_objective,
    naive_observed_quadratic,
    naive_pg_update,
    truth_rel_err,
)
from conftest import from_arrays, planted_dataset, random_dataset, random_nnm_model, random_quantum_model


# A valid non-default value for every TrainConfig field; a new field must be
# added here, so it cannot go without a from_file converter or an effect on
# training unnoticed.
NON_DEFAULT = {
    "D": 3,
    "max_iter": 7,
    "mode": "recall",
    "zero_fill_sweeps": 1,
    "inner_iters": 2,
    "seed": 4,
    "field": "real",
    "kind": "nnm",
}


class TestTrainConfig:
    def test_defaults(self):
        cfg = train.TrainConfig()
        assert cfg.D == 2 and cfg.max_iter == 16 and cfg.mode == "mae"
        assert cfg.inner_iters == 5 and cfg.field == "complex" and cfg.kind == "quantum"

    def test_zero_fill_schedule(self):
        assert train.TrainConfig(mode="mae", max_iter=10).resolved_zero_fill() == 2
        assert train.TrainConfig(mode="recall", max_iter=10).resolved_zero_fill() == 10
        assert train.TrainConfig(mode="mae", zero_fill_sweeps=7).resolved_zero_fill() == 7
        assert train.TrainConfig(mode="recall", zero_fill_sweeps=0).resolved_zero_fill() == 0

    def test_validation(self):
        for kwargs in (
            {"D": 0},
            {"max_iter": -1},
            {"mode": "nope"},
            {"inner_iters": 0},
            {"field": "quaternion"},
            {"kind": "classical"},
            {"zero_fill_sweeps": -1},
        ):
            with pytest.raises(InvalidInput):
                train.TrainConfig(**kwargs)

    def test_from_file(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("# comment\nD = 4\nmax_iter=3\nmode = recall\nseed=9\n\n")
        cfg = train.TrainConfig.from_file(str(path))
        assert cfg.D == 4 and cfg.max_iter == 3 and cfg.mode == "recall" and cfg.seed == 9

    def test_from_file_unknown_key(self, tmp_path):
        path = tmp_path / "train.cfg"
        # Removed keys are unknown like any other.
        for key in ("banana", "step_init", "step_shrink", "max_backtracks", "z_star"):
            path.write_text(f"{key} = 0.5\n")
            with pytest.raises(ParseError, match="unknown key"):
                train.TrainConfig.from_file(str(path))

    @pytest.mark.parametrize("text", ["D = 2\nD = 3\n", "d=2\n# comment\nD = 3\n"], ids=["same-case", "mixed-case"])
    def test_from_file_repeated_key(self, tmp_path, text):
        # Keys match case-insensitively, so the second line sets D again.
        path = tmp_path / "train.cfg"
        path.write_text(text)
        line = len(text.splitlines())
        with pytest.raises(ParseError, match=f"line {line}: repeated key 'D'"):
            train.TrainConfig.from_file(str(path))

    def test_from_file_sets_every_field(self, tmp_path):
        path = tmp_path / "train.cfg"
        for f in dataclasses.fields(train.TrainConfig):
            assert NON_DEFAULT[f.name] != f.default
            path.write_text(f"{f.name} = {NON_DEFAULT[f.name]}\n")
            assert getattr(train.TrainConfig.from_file(str(path)), f.name) == NON_DEFAULT[f.name]

    def test_every_key_changes_the_trained_model(self, tmp_path):
        # No config key may be read and then ignored: setting any one of them
        # alone must change the model `psdrec train` writes.
        rng = np.random.default_rng(5)
        ratings = tmp_path / "u.data"
        ratings.write_text("".join(
            f"{u}\t{i}\t{int(rng.integers(1, 6))}\t0\n" for u in range(1, 7) for i in range(1, 6)
        ))

        def trained(name, text):
            cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.psdrec"
            cfg.write_text(text)
            argv = ["train", "--data", str(ratings), "--config", str(cfg), "--model-out", str(out)]
            assert cli.main(argv) == 0
            return out.read_bytes()

        default = trained("default", "")
        for f in dataclasses.fields(train.TrainConfig):
            assert trained(f.name, f"{f.name} = {NON_DEFAULT[f.name]}\n") != default, f.name

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        para = next(p for p in readme.split("\n\n") if p.startswith("Config files are"))
        keys = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", para.split("TrainConfig`:", 1)[1]))
        assert keys == [f.name for f in dataclasses.fields(train.TrainConfig)]

    def test_from_file_bad_value(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("D = -3\n")
        with pytest.raises(ParseError):
            train.TrainConfig.from_file(str(path))
        path.write_text("D = x\n")
        with pytest.raises(ParseError):
            train.TrainConfig.from_file(str(path))

    def test_from_file_non_ascii(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_bytes(b"D = 2\n# caf\xe9\n")
        with pytest.raises(ParseError):
            train.TrainConfig.from_file(str(path))


class TestTargets:
    def test_values_are_rating_fractions(self):
        ds = from_arrays([0, 1], [0, 1], [5, 2], U=2, I=2)
        t = train.effective_targets(ds, False)
        # The matrix keeps the ratings; the targets are matrix / scale.
        assert t.matrix.toarray().tolist() == [[5, 0], [0, 2]] and t.scale == 5.0
        np.testing.assert_allclose(t.matrix.toarray() / t.scale, [[1.0, 0.0], [0.0, 0.4]])
        assert not t.zero_fill

    def test_zero_fill_reads_zero(self):
        ds = from_arrays([0], [0], [5], U=2, I=2)
        t = train.effective_targets(ds, True)
        assert t.zero_fill
        assert (t.U, t.I) == (2, 2)
        assert (t.matrix.toarray() / t.scale).tolist() == [[1.0, 0.0], [0.0, 0.0]]

    @pytest.mark.parametrize("zero_fill", [False, True])
    @pytest.mark.parametrize(
        "uu, ii, values",
        [
            ([0, 2], [0, 1], [1.0, 1.0]),
            ([0, 1], [0, 5], [1.0, 1.0]),
            ([0, -1], [0, 1], [1.0, 1.0]),
            ([0, 1], [-1, 1], [1.0, 1.0]),
            ([0, 1], [0, 1], [np.nan, 1.0]),
            ([0, 1], [0, 1], [1.0, np.inf]),
            ([0, 1], [0, 1], [1.0, -np.inf]),
        ],
        ids=["user>=U", "item>=I", "user<0", "item<0", "nan", "inf", "-inf"],
    )
    def test_rejects_invalid_entries(self, zero_fill, uu, ii, values):
        # Each would otherwise reach the unchecked sparse kernels, where an
        # item index past I reads outside the model.
        with pytest.raises(InvalidInput, match="Targets"):
            train.Targets(uu, ii, values, zero_fill, 2, 2)

    @pytest.mark.parametrize("shape", [(-1, 2), (2, -1), (2.5, 2), ("2", 2), (2, True), (2, np.float64(2))])
    def test_rejects_negative_shape(self, shape):
        with pytest.raises(InvalidInput, match="Targets"):
            train.Targets([], [], [], False, *shape)

    def test_keeps_no_entry_arrays(self):
        # The entries are construction arguments only: training reads the
        # grouped matrix and the sum of squares.
        t = train.Targets(np.array([0, 1]), np.array([1, 0]), np.array([0.2, 0.4]), False, 2, 2)
        assert not any(hasattr(t, name) for name in ("uu", "ii", "values"))
        assert "values" not in repr(t)

    def test_fields_cannot_be_reassigned(self):
        t = train.Targets([0, 1], [1, 0], [0.2, 0.4], False, 2, 2)
        matrix, sq_total = t.matrix, t.sq_total
        for name, value in (
            ("uu", [1, 0]),
            ("ii", [0, 1]),
            ("values", [1.0, 1.0]),
            ("zero_fill", True),
            ("matrix", matrix.T),
            ("sq_total", 0.0),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, value)
        assert t.matrix is matrix and t.sq_total is sq_total
        assert t.matrix.toarray().tolist() == [[0.0, 0.2], [0.4, 0.0]]
        np.testing.assert_allclose(t.sq_total, 0.2)

    def test_observed_sweeps_read_the_zero_fill_incidence(self, monkeypatch):
        # One mae-mode run: both sides of both phases read the one matrix the
        # zero-fill targets built, and the item side's transpose is a view of
        # its arrays, not a regrouping.
        read = []
        quadratic = train._quadratic

        def recorded(m, targets, side):
            read.append((targets.zero_fill, side, targets.matrix, targets.sq_total))
            return quadratic(m, targets, side)

        monkeypatch.setattr(train, "_quadratic", recorded)
        ds = random_dataset(np.random.default_rng(25), 6, 5, density=0.6)
        train.train_quantum(ds, train.TrainConfig(D=2, max_iter=4, mode="mae", seed=0))
        assert {(zero_fill, side) for zero_fill, side, _, _ in read} == {
            (zero_fill, side) for zero_fill in (True, False) for side in ("user", "item")
        }
        matrix, sq_total = read[0][2:]
        assert all(got is matrix and total is sq_total for _, _, got, total in read)
        assert matrix.shape == (ds.U, ds.I) and matrix.nnz == len(ds)
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(matrix.T, name), getattr(matrix, name)), name

    @pytest.mark.parametrize("mode", ["recall", "mae"])
    def test_entries_grouped_once_per_run(self, monkeypatch, mode):
        # One validation and one grouping, by user, per run in both modes;
        # recall mode never makes observed-only targets.
        calls, validated, phases = [], [], set()
        group, post_init, update_side = train.group_entries, train.Targets.__post_init__, train._update_side

        def counted_group(*args):
            calls.append(args)
            return group(*args)

        def counted_post_init(self, *entries):
            validated.append(self)
            post_init(self, *entries)

        def recorded_update(m, targets, cfg, side):
            if side == "user":
                phases.add(targets.zero_fill)
            return update_side(m, targets, cfg, side)

        monkeypatch.setattr(train, "group_entries", counted_group)
        monkeypatch.setattr(train.Targets, "__post_init__", counted_post_init)
        monkeypatch.setattr(train, "_update_side", recorded_update)
        ds = random_dataset(np.random.default_rng(26), 6, 5, density=0.6)
        cfg = train.TrainConfig(D=2, max_iter=4, mode=mode, seed=0)
        train.train_quantum(ds, cfg)
        assert len(calls) == 1 and np.array_equal(calls[0][0], ds.uu) and calls[0][1] == ds.U
        assert len(validated) == 1
        assert phases == ({True} if mode == "recall" else {True, False})


    def test_user_ordered_entries_are_not_copied(self):
        # About 200k entries listed user by user, as ML-1M lists them: the
        # CSR keeps the given values and the grouping gathers nothing. The
        # peak is under 3 bytes per entry; sorting and gathering the
        # entries into user order took about 36.
        rng = np.random.default_rng(7)
        n_users, n_items, per_user = 4000, 1000, 50
        uu = np.repeat(np.arange(n_users), per_user)
        ii = np.argsort(rng.random((n_users, n_items)), axis=1)[:, :per_user].ravel()
        ds = from_arrays(uu, ii, rng.integers(1, 6, size=uu.size), U=n_users, I=n_items)
        tracemalloc.start()
        try:
            t = train.effective_targets(ds, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28 * len(ds)
        values = ds.rr / ds.z_star
        assert np.shares_memory(train.Targets(ds.uu, ds.ii, values, False, ds.U, ds.I).matrix.data, values)
        assert np.shares_memory(t.matrix.data, ds.rr) and np.shares_memory(t.matrix.indices, ds.ii)
        assert np.array_equal(t.matrix.data / t.scale, values) and np.array_equal(t.matrix.indices, ds.ii)

    def test_effective_targets_peak_bounded_per_entry(self):
        # The 200k user-ordered entries above: the dataset's int8 ratings and
        # int32 index arrays are read in place, and the one 512 KiB chunk
        # buffer takes most of the 3.4 bytes per entry. A float copy of the
        # targets took 9 with its finiteness flags, a squared copy of every
        # value 16.4, and widening the ratings twice and np.bincount's intp
        # copy of the indices about 20.
        rng = np.random.default_rng(7)
        n_users, n_items, per_user = 4000, 1000, 50
        uu = np.repeat(np.arange(n_users), per_user)
        ii = np.argsort(rng.random((n_users, n_items)), axis=1)[:, :per_user].ravel()
        ds = from_arrays(uu, ii, rng.integers(1, 6, size=uu.size), U=n_users, I=n_items)
        tracemalloc.start()
        try:
            t = train.effective_targets(ds, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == 200_000 and peak <= 4 * len(ds)
        assert np.shares_memory(t.matrix.indices, ds.ii)

    def test_effective_targets_peak_at_ml1m_size(self):
        # 1,000,000 user-ordered entries, as ML-1M lists them: the targets
        # keep the int8 ratings and int32 indices in place and hold their
        # row pointers and one chunk buffer, about 1.2 bytes per entry; the
        # sum of squares is taken a chunk at a time. A float copy of the
        # targets took 9, a squared copy of every value about 16 more.
        rng = np.random.default_rng(8)
        n_users, n_items, per_user = 5000, 3706, 200
        uu = np.repeat(np.arange(n_users), per_user)
        ii = ((rng.integers(0, n_items, n_users)[:, None] + np.arange(per_user)) % n_items).ravel()
        ds = from_arrays(uu, ii, rng.integers(1, 6, size=uu.size), U=n_users, I=n_items)
        tracemalloc.start()
        try:
            t = train.effective_targets(ds, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == 1_000_000 and peak <= 2 * len(ds)
        assert np.shares_memory(t.matrix.indices, ds.ii)

    @pytest.mark.parametrize("order", ["user-ordered", "shuffled", "empty"])
    def test_square_total_is_the_sum_of_squared_values(self, order):
        # The objective's one constant, sum t^2, on both sides and in both
        # target phases: the observed-only twin shares it.
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 60, 40, density=0.5)
        if order == "shuffled":
            ds = ds.subset(rng.permutation(len(ds)))
        elif order == "empty":
            ds = ds.subset([])
        t = train.effective_targets(ds, True)
        values = ds.rr.astype(float) / ds.z_star
        assert type(t.sq_total) is float
        np.testing.assert_allclose(t.sq_total, np.sum(values**2), rtol=1e-14)
        assert t._observed().sq_total is t.sq_total

    @pytest.mark.parametrize("kind", ["quantum", "nnm"])
    @pytest.mark.parametrize("mode", ["recall", "mae"])
    def test_pattern_built_once_for_the_observed_phase(self, monkeypatch, mode, kind):
        # No 0/1 entry pattern is kept: recall mode never runs the observed
        # phase, and every observed-phase Gram stack of a mae run is the
        # public 0/1 entry pattern's product bit for bit, by user and,
        # through the pattern's transpose, by item.
        seen = []
        quadratic = train._quadratic

        def recorded(m, targets, side):
            own, quad = quadratic(m, targets, side)
            seen.append((targets.zero_fill, side, m, targets, quad))
            return own, quad

        monkeypatch.setattr(train, "_quadratic", recorded)
        ds = random_dataset(np.random.default_rng(27), 6, 5, density=0.6)
        train._train(ds, train.TrainConfig(D=2, max_iter=4, mode=mode, seed=0, kind=kind))
        observed = [entry[1:] for entry in seen if not entry[0]]
        assert len(observed) == (0 if mode == "recall" else 4)
        for side, m, targets, quad in observed:
            assert set(vars(targets)) == set(vars(seen[0][3]))
            matrix = targets.matrix
            pattern = sp.csr_matrix((np.ones(matrix.nnz), matrix.indices, matrix.indptr), shape=matrix.shape)
            fix = m.flat_likes() if side == "user" else m.flat_users()
            a, b = np.triu_indices(fix.shape[1])
            want = (pattern if side == "user" else pattern.T) @ (fix[:, a] * fix[:, b])
            assert np.array_equal(quad.gram[:, a, b], want), side

    def test_shares_the_datasets_ratings_and_items(self):
        # User-ordered entries: the CSR's data and indices are the dataset's
        # own int8 ratings and int32 items, and the targets are data / z_star.
        ds = random_dataset(np.random.default_rng(28), 7, 6, density=0.6)
        t = train.effective_targets(ds, True)
        assert ds.rr.dtype == np.int8 and ds.ii.dtype == np.int32
        assert np.shares_memory(t.matrix.data, ds.rr) and np.shares_memory(t.matrix.indices, ds.ii)
        assert t.matrix.data.dtype == np.int8 and t.scale == 5.0 and type(t.scale) is float
        assert t._observed().matrix is t.matrix
        assert train.Targets([0], [0], [0.5], False, 1, 1).scale == 1.0

    @pytest.mark.parametrize(
        "scale", [0, -1.0, np.nan, np.inf, pytest.param(10**400, id="10**400"), True, "5", None, [5.0], np.array(5.0)]
    )
    def test_rejects_a_bad_scale(self, scale):
        with pytest.raises(InvalidInput, match="Targets: scale"):
            train.Targets([0], [0], [1], False, 1, 1, scale)

    @pytest.mark.parametrize("chunk", [3, train._TARGET_CHUNK])
    def test_square_total_summed_by_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(train, "_TARGET_CHUNK", chunk)
        ds = random_dataset(np.random.default_rng(29), 60, 40, density=0.5)
        t = train.effective_targets(ds, False)
        values = np.divide(ds.rr, ds.z_star, dtype=float)
        assert (len(t._chunks) == 1) == (chunk > len(ds))
        np.testing.assert_allclose(t.sq_total, np.dot(values, values), rtol=1e-14)


def _chunk_dataset(rng, order):
    """Users 0, 5 and 8 without entries, user 3 with more than the small
    chunks and user 7 listing every item; user-ordered or shuffled."""
    counts = [0, 2, 1, 12, 3, 0, 5, 12, 0]
    uu = np.repeat(np.arange(len(counts)), counts)
    ii = np.concatenate([rng.permutation(12)[:c] for c in counts])
    ds = from_arrays(uu, ii, rng.integers(1, 6, size=uu.size), U=len(counts), I=12)
    return ds.subset(rng.permutation(len(ds))) if order == "shuffled" else ds


def _public_product(targets, side, fix, pattern=False):
    """`train._product` through scipy's public sparse-dense product."""
    m = targets.matrix
    data = np.ones(m.nnz) if pattern else np.divide(m.data, targets.scale, dtype=float)
    public = sp.csr_matrix((data, m.indices, m.indptr), shape=m.shape)
    return (public if side == "user" else public.T) @ fix


class TestTargetProducts:
    @pytest.mark.parametrize("k", [1, 6])
    @pytest.mark.parametrize("pattern", [False, True], ids=["targets", "pattern"])
    @pytest.mark.parametrize("side", ["user", "item"])
    @pytest.mark.parametrize("order", ["user-ordered", "shuffled"])
    @pytest.mark.parametrize("chunk", [1, 3, 7, 65_536])
    def test_chunked_product_is_the_public_product(self, monkeypatch, chunk, order, side, pattern, k):
        # Bit for bit: each chunk's rows and columns sum their terms in the
        # public product's order. k = 1 is the public product's matvec path.
        monkeypatch.setattr(train, "_TARGET_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        ds = _chunk_dataset(rng, order)
        t = train.effective_targets(ds, False)
        assert all(stop - start <= chunk or hi - lo == 1 for lo, hi, start, stop, _ in t._chunks)
        fix = rng.standard_normal((ds.I if side == "user" else ds.U, k))
        got = train._product(t, side, fix, pattern)
        assert np.array_equal(got, _public_product(t, side, fix, pattern))
        assert got.shape == (ds.U if side == "user" else ds.I, k)

    @pytest.mark.parametrize("side", ["user", "item"])
    @pytest.mark.parametrize("chunk", [1000, train._TARGET_CHUNK])
    def test_product_over_many_chunks(self, monkeypatch, chunk, side):
        # About 100,000 entries: two full-size chunks, or a hundred small ones.
        monkeypatch.setattr(train, "_TARGET_CHUNK", chunk)
        rng = np.random.default_rng(30)
        ds = random_dataset(rng, 400, 500, density=0.5)
        t = train.effective_targets(ds, True)
        assert len(t._chunks) >= len(ds) // chunk
        fix = rng.standard_normal((ds.I if side == "user" else ds.U, 3))
        for pattern in (False, True):
            assert np.array_equal(train._product(t, side, fix, pattern), _public_product(t, side, fix, pattern))

    @pytest.mark.parametrize("side", ["user", "item"])
    def test_product_holds_one_chunk_buffer(self, side):
        # About 100,000 entries, two chunks: a product allocates its output,
        # one buffer of the longest chunk (under 512 KiB) and numpy's 64 KiB
        # cast buffer for the int8 ratings, not a float copy of the targets
        # (about 800 KB). The targets keep no buffer between products.
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, 400, 500, density=0.5)
        t = train.effective_targets(ds, False)
        observed = t._observed()
        fix = rng.standard_normal((ds.I if side == "user" else ds.U, 3))
        longest = max(stop - start for _, _, start, stop, _ in t._chunks)
        assert len(t._chunks) == 2 and longest <= train._TARGET_CHUNK
        for pattern in (False, True):
            tracemalloc.start()
            try:
                out = train._product(observed, side, fix, pattern)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= out.nbytes + 8 * longest + 2 * 65536
        assert set(vars(t)) == {"zero_fill", "U", "I", "scale", "matrix", "sq_total", "_chunks"}

    def test_products_of_twins_in_two_threads(self):
        # The targets and their observed twin hold no shared scratch, so
        # products taken at once in two threads are the public products.
        rng = np.random.default_rng(32)
        ds = random_dataset(rng, 400, 500, density=0.5)
        t = train.effective_targets(ds, True)
        fix = rng.standard_normal((ds.I, 3))
        want = _public_product(t, "user", fix)

        def products(targets):
            return all(np.array_equal(train._product(targets, "user", fix), want) for _ in range(20))

        with ThreadPoolExecutor(2) as pool:
            assert all(pool.map(products, (t, t._observed())))

    def test_frozen_rows_must_match(self):
        # The kernels index the frozen rows unchecked.
        t = train.Targets([0, 1], [1, 2], [0.5, 1.0], False, 2, 3)
        for side, rows in (("user", 2), ("item", 3)):
            with pytest.raises(InvalidInput, match=f"{side} product"):
                train._product(t, side, np.ones((rows, 2)))
        with pytest.raises(InvalidInput, match="user product"):
            train._product(t, "user", np.ones(3))

    def test_empty_targets(self):
        t = train.Targets([], [], [], True, 3, 2)
        assert t._chunks == () and t.sq_total == 0.0
        assert np.array_equal(train._product(t, "item", np.ones((3, 2))), np.zeros((2, 2)))

    @pytest.mark.parametrize("chunk", [7, train._TARGET_CHUNK])
    @pytest.mark.parametrize("order", ["user-ordered", "shuffled"])
    @pytest.mark.parametrize(
        "kind, d, field, mode",
        [("quantum", 2, "complex", "mae"), ("quantum", 3, "real", "recall"), ("nnm", 4, "real", "mae"), ("quantum", 1, "real", "mae")],
    )
    def test_trained_model_is_the_public_product_paths(self, monkeypatch, kind, d, field, mode, order, chunk):
        # Training through the chunked products and through scipy's public
        # products gives the same models bit for bit.
        monkeypatch.setattr(train, "_TARGET_CHUNK", chunk)
        ds = _chunk_dataset(np.random.default_rng(d), order)
        cfg = train.TrainConfig(D=d, max_iter=4, mode=mode, field=field, kind=kind, seed=1)
        chunked, history = train._train(ds, cfg)
        monkeypatch.setattr(train, "_product", _public_product)
        public, public_history = train._train(ds, cfg)
        assert np.array_equal(chunked.users, public.users) and np.array_equal(chunked.items, public.items)
        assert history.objective == public_history.objective


_CONFIG_KEYS = [f.name for f in dataclasses.fields(train.TrainConfig)] + ["d", "MAX_ITER", "Mode", "z_star", "x"]
_CONFIG_VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["mae", "recall", "REAL", "complex", "quantum", "nnm", "", "none", "2.5", "1e3", "+3", "1_0"]),
    st.text(max_size=6),
)
_CONFIG_LINES = st.one_of(
    st.tuples(
        st.one_of(st.sampled_from(_CONFIG_KEYS), st.text(max_size=4)),
        st.sampled_from(["=", " = ", "", "==", ":", "\t=\t"]),
        _CONFIG_VALUES,
        st.sampled_from(["", " # note", "#", "\r"]),
    ).map("".join),
    st.sampled_from(["", "   ", "# comment", "=", "=1"]),
    st.text(max_size=12),
)


class TestConfigParserFuzz:
    @given(
        body=st.one_of(
            st.lists(_CONFIG_LINES, max_size=8).map(lambda lines: "\n".join(lines).encode("utf-8")),
            st.binary(max_size=40),
        )
    )
    @example(body=b"D = " + b"9" * 5000)  # past int()'s default digit limit where there is one
    @example(body=b"mode = mae\r\nmax_iter = 4\rD = 3\n")
    @settings(max_examples=400, deadline=None)
    def test_loads_or_raises_parse_error(self, tmp_path_factory, body):
        # Every file either gives a validated config or a ParseError; no
        # other exception escapes (the CLI maps ParseError to exit code 1).
        path = tmp_path_factory.mktemp("cfg") / "train.cfg"
        path.write_bytes(body)
        try:
            cfg = train.TrainConfig.from_file(str(path))
        except ParseError:
            return
        assert isinstance(cfg, train.TrainConfig)
        assert dataclasses.replace(cfg) == cfg


def _from_file_text(tmp_path, text):
    path = tmp_path / "train.cfg"
    path.write_text(text)
    return train.TrainConfig.from_file(str(path))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda tmp_path: _from_file_text(tmp_path, "D = 2\nmax_iter 4\n"), ParseError, "line 2: expected key=value"),
        (lambda tmp_path: train.Targets([0, 1], [0], [1.0, 1.0], False, 2, 2), InvalidInput, "parallel"),
        (lambda tmp_path: train.Targets([[0]], [[0]], [[1.0]], False, 2, 2), InvalidInput, "parallel"),
        (lambda tmp_path: train.init_quantum_users(0, 2, seed=0), InvalidInput,
         "init_quantum_users: n_users must be an integer >= 1, got 0"),
        (lambda tmp_path: train.init_quantum_users(2, 0, seed=0), InvalidInput,
         "init_quantum_users: d must be an integer >= 1, got 0"),
        (lambda tmp_path: train.init_quantum_users(2, 2, seed=-1), InvalidInput,
         "init_quantum_users: seed must be an integer >= 0, got -1"),
        (lambda tmp_path: train.init_quantum_users(2, 2, 0, field="banana"), InvalidInput,
         "init_quantum_users: field must be one of"),
        (lambda tmp_path: train.TrainConfig(seed=-1), InvalidInput,
         "TrainConfig: seed must be an integer >= 0, got -1"),
        (lambda tmp_path: _from_file_text(tmp_path, "seed = -3\n"), ParseError,
         "TrainConfig: seed must be an integer >= 0, got -3"),
    ],
    ids=["config-no-equals", "targets-lengths", "targets-2d", "init-no-users", "init-no-dimension",
         "init-negative-seed", "init-unknown-field", "config-negative-seed", "config-file-negative-seed"],
)
def test_rejects_malformed_input(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)


class TestInit:
    def test_unit_trace_rank_one(self):
        users = train.init_quantum_users(6, 3, seed=0)
        traces = np.einsum("ukk->u", users).real
        np.testing.assert_allclose(traces, 1.0, atol=1e-12)
        for rho in users:
            w = np.linalg.eigvalsh(rho)
            assert w.min() >= -1e-12
            assert abs(w[-1] - 1.0) <= 1e-12  # pure states

    def test_seeded(self):
        a = train.init_quantum_users(4, 2, seed=5)
        b = train.init_quantum_users(4, 2, seed=5)
        c = train.init_quantum_users(4, 2, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_real_field(self):
        users = train.init_quantum_users(3, 2, seed=0, field="real")
        assert not np.iscomplexobj(users)


class TestObjective:
    @pytest.mark.parametrize("zero_fill", [False, True])
    @pytest.mark.parametrize("kind", ["quantum", "nnm"])
    def test_matches_naive(self, zero_fill, kind):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, 6, 5, density=0.6)
        if kind == "quantum":
            m = random_quantum_model(rng, 6, 5, 2)
        else:
            m = random_nnm_model(rng, 6, 5, 3)
        t = train.effective_targets(ds, zero_fill)
        assert abs(train.objective(m, t) - naive_objective(m, ds, zero_fill)) <= 1e-9

    def test_real_field_model(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, 4, 4, density=0.7)
        m = random_quantum_model(rng, 4, 4, 2, field="real")
        t = train.effective_targets(ds, True)
        assert abs(train.objective(m, t) - naive_objective(m, ds, True)) <= 1e-9

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 6, 5, density=0.6)
        m = random_quantum_model(rng, 5, 5, 2)
        for zero_fill in (False, True):
            t = train.effective_targets(ds, zero_fill)
            with pytest.raises(InvalidInput, match="targets"):
                train.objective(m, t)
            with pytest.raises(InvalidInput, match="targets"):
                train.update_users(m, t, train.TrainConfig())

    def test_unit_objectives_sum_to_total(self):
        # Each side's quadratics, valued at its own rows, give the objective.
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, 5, 4, density=0.8)
        m = random_quantum_model(rng, 5, 4, 2)
        for zero_fill in (False, True):
            t = train.effective_targets(ds, zero_fill)
            for side in ("user", "item"):
                own, quad = train._quadratic(m, t, side)
                assert abs(quad.value(own) - train.objective(m, t)) <= 1e-9


# Quantum models over every D and field the trainer offers, and the NNM kind.
_QUADRATIC_MODELS = [
    pytest.param("quantum", d, field, id=f"quantum-D{d}-{field}")
    for d in (1, 2, 3)
    for field in ("real", "complex")
] + [pytest.param("nnm", 3, "real", id="nnm-D3")]


class TestObservedQuadratic:
    @pytest.mark.parametrize("entries", ["entries", "no-entries", "repeated"])
    @pytest.mark.parametrize("side", ["user", "item"])
    @pytest.mark.parametrize("kind, d, field", _QUADRATIC_MODELS)
    def test_matches_naive_gram_stack(self, kind, d, field, side, entries):
        # User 0 and item 5 have no entries, so their subproblems are zero.
        # "repeated" lists one (user, item) pair twice: two entries, each
        # adding to the pair's Gram matrices, not one entry with summed targets.
        rng = np.random.default_rng(27)
        ds = random_dataset(rng, 7, 6, density=0.6)
        keep = (ds.uu != 0) & (ds.ii != 5) & (entries != "no-entries")
        uu, ii, values = ds.uu[keep], ds.ii[keep], ds.rr[keep] / 5.0
        if entries == "repeated":
            uu, ii, values = np.append(uu, uu[2]), np.append(ii, ii[2]), np.append(values, 0.3)
        t = train.Targets(uu, ii, values, False, 7, 6)
        if kind == "quantum":
            m = random_quantum_model(rng, 7, 6, d, field=field)
        else:
            m = random_nnm_model(rng, 7, 6, d)
        own, quad = train._quadratic(m, t, side)
        fix, units, others, n = (
            (m.flat_likes(), uu, ii, m.U) if side == "user" else (m.flat_users(), ii, uu, m.I)
        )
        gram, cvec, const, lips = naive_observed_quadratic(fix, units, others, values, n)
        # One constant per side: the sum of the units' constants.
        for name, got, ref in zip(("gram", "cvec", "const", "lips"), quad, (gram, cvec, np.sum(const), lips)):
            assert np.shape(got) == np.shape(ref), name
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref), name
        empty_unit = 0 if side == "user" else 5
        assert not np.any(quad.gram[empty_unit]) and quad.lips[empty_unit] == 1e-12
        k = fix.shape[1]
        lower = np.tril_indices(k, -1)
        assert np.array_equal(quad.gram[:, lower[0], lower[1]], np.conj(quad.gram[:, lower[1], lower[0]]))
        assert np.array_equal(own, m.flat_users() if side == "user" else m.flat_likes())


class TestGradients:
    @pytest.mark.parametrize("zero_fill", [False, True])
    def test_quantum_user_gradient_fd(self, zero_fill):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 4, 5, density=0.7)
        m = random_quantum_model(rng, 4, 5, 2)
        t = train.effective_targets(ds, zero_fill)
        u = 1
        basis = hermitian_basis(m.D)
        g = train.user_gradient(m, t, u)

        def f(x):
            users = m.users.copy()
            users[u] = x
            return train.objective(models.QuantumModel(users, m.items), t)

        fd = fd_coefficients(f, m.users[u], basis)
        an = np.array([linalg.trace_inner(g, h) for h in basis])
        assert np.linalg.norm(fd - an) <= 1e-5 * max(np.linalg.norm(an), 1e-12)

    @pytest.mark.parametrize("zero_fill", [False, True])
    def test_quantum_item_gradient_fd(self, zero_fill):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 5, 4, density=0.7)
        m = random_quantum_model(rng, 5, 4, 2)
        t = train.effective_targets(ds, zero_fill)
        i = 2
        basis = hermitian_basis(m.D)
        g = train.item_gradient(m, t, i)

        def f(x):
            items = m.items.copy()
            items[i, 0] = x
            items[i, 1] = np.eye(m.D) - x
            return train.objective(models.QuantumModel(m.users, items), t)

        fd = fd_coefficients(f, m.items[i, 0], basis)
        an = np.array([linalg.trace_inner(g, h) for h in basis])
        assert np.linalg.norm(fd - an) <= 1e-5 * max(np.linalg.norm(an), 1e-12)

    def test_nnm_user_gradient_fd(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 4, 4, density=0.8)
        m = random_nnm_model(rng, 4, 4, 3)
        t = train.effective_targets(ds, False)
        u = 0
        g = train.user_gradient(m, t, u)
        directions = list(np.eye(m.D))

        def f(x):
            users = m.users.copy()
            users[u] = x
            return train.objective(models.NnmModel(users, m.items), t)

        fd = fd_coefficients(f, m.users[u], directions)
        assert np.linalg.norm(fd - g) <= 1e-5 * max(np.linalg.norm(g), 1e-12)


def _naive_update_side(m, ds, zero_fill, cfg, side):
    """Mirror of the batched update built from scalar loops."""
    tmap = {(int(u), int(i)): int(r) / ds.z_star for u, i, r in zip(ds.uu, ds.ii, ds.rr)}
    quantum = isinstance(m, models.QuantumModel)
    d = m.D
    uf = m.users.reshape(m.U, -1)
    ef = m.items[:, 0].reshape(m.I, -1)
    var, fix = (uf, ef) if side == "user" else (ef, uf)

    if zero_fill:
        pairs = lambda k: [(j, tmap.get((k, j) if side == "user" else (j, k), 0.0)) for j in range(fix.shape[0])]
        lips = 2.0 * float(np.linalg.eigvalsh(np.conj(fix).T @ fix)[-1].real)
        lips = max(lips, 1e-12)
        lips_of = lambda k: lips
    else:
        by_unit = {}
        for u, i in zip(ds.uu, ds.ii):
            k, j = (int(u), int(i)) if side == "user" else (int(i), int(u))
            by_unit.setdefault(k, []).append((j, tmap[(int(u), int(i))]))
        pairs = lambda k: by_unit.get(k, [])
        lips_of = lambda k: max(
            2.0 * sum(float(np.real(np.sum(np.conj(fix[j]) * fix[j]))) for j, _ in pairs(k)), 1e-12
        )

    def f_unit(k):
        def f(v):
            total = 0.0
            for j, t in pairs(k):
                total += (float(np.real(np.sum(np.conj(v) * fix[j]))) - t) ** 2
            return total

        return f

    def g_unit(k):
        def g(v):
            acc = np.zeros_like(v)
            for j, t in pairs(k):
                acc = acc + 2.0 * (float(np.real(np.sum(np.conj(v) * fix[j]))) - t) * fix[j]
            return acc

        return g

    if quantum:
        if side == "user":
            project = lambda v: linalg.project_to_spectrahedron(
                linalg.hermitianize(v.reshape(d, d))
            ).reshape(-1)
        else:
            project = lambda v: linalg.project_to_effect(linalg.hermitianize(v.reshape(d, d))).reshape(-1)
    else:
        if side == "user":
            project = linalg.project_to_simplex
        else:
            project = lambda v: np.clip(v, 0.0, 1.0)

    rows = [
        naive_pg_update(var[k], f_unit(k), g_unit(k), project, lips_of(k), cfg)
        for k in range(var.shape[0])
    ]
    return np.stack(rows)


def _update_dataset(rng, holes):
    """Random 5 x 4 ratings; with holes, user 0 and item 3 have no ratings, so
    their observed-phase subproblems are zero and their step bound floors."""
    ds = random_dataset(rng, 5, 4, density=0.6)
    if not holes:
        return ds
    keep = (ds.uu != 0) & (ds.ii != 3)
    return from_arrays(ds.uu[keep], ds.ii[keep], ds.rr[keep], U=5, I=4)


# Cases without holes keep their plain kind-zero_fill ids.
_UPDATE_CASES = [
    pytest.param(kind, zero_fill, holes, id=f"{kind}-{zero_fill}" + ("-holes" if holes else ""))
    for holes in (False, True)
    for zero_fill in (False, True)
    for kind in ("quantum", "nnm")
]


class TestUpdates:
    @pytest.mark.parametrize("kind, zero_fill, holes", _UPDATE_CASES)
    def test_update_users_matches_naive(self, kind, zero_fill, holes):
        rng = np.random.default_rng(6)
        ds = _update_dataset(rng, holes)
        m = (
            random_quantum_model(rng, 5, 4, 2)
            if kind == "quantum"
            else random_nnm_model(rng, 5, 4, 3)
        )
        cfg = train.TrainConfig(D=m.D, inner_iters=2, kind=kind)
        t = train.effective_targets(ds, zero_fill)
        got = train.update_users(m, t, cfg)
        want = _naive_update_side(m, ds, zero_fill, cfg, "user")
        np.testing.assert_allclose(got.users.reshape(m.U, -1), want, atol=1e-9)
        assert np.array_equal(got.items, m.items)

    @pytest.mark.parametrize("kind, zero_fill, holes", _UPDATE_CASES)
    def test_update_items_matches_naive(self, kind, zero_fill, holes):
        rng = np.random.default_rng(7)
        ds = _update_dataset(rng, holes)
        m = (
            random_quantum_model(rng, 5, 4, 2)
            if kind == "quantum"
            else random_nnm_model(rng, 5, 4, 3)
        )
        cfg = train.TrainConfig(D=m.D, inner_iters=2, kind=kind)
        t = train.effective_targets(ds, zero_fill)
        got = train.update_items(m, t, cfg)
        want = _naive_update_side(m, ds, zero_fill, cfg, "item")
        np.testing.assert_allclose(got.items[:, 0].reshape(m.I, -1), want, atol=1e-9)
        assert np.array_equal(got.users, m.users)

    def test_fixed_point_projects_once_per_inner_iteration(self, monkeypatch):
        # Each item rated once, so every item's observed-phase subproblem
        # reaches a fixed point, where a step can raise it by rounding; each
        # unit must still be projected exactly once per inner iteration.
        rng = np.random.default_rng(0)
        ds = from_arrays(
            rng.integers(0, 6, 12), np.arange(12), rng.integers(1, 6, 12), U=6, I=12
        )
        m = random_quantum_model(rng, 6, 12, 2)
        cfg = train.TrainConfig(D=2)
        t = train.effective_targets(ds, False)
        for _ in range(60):
            m = train.update_items(m, t, cfg)
        calls = []
        project = models.QuantumModel.project_likes
        monkeypatch.setattr(models.QuantumModel, "project_likes", lambda self, x: calls.append(1) or project(self, x))
        train.update_items(m, t, cfg)
        assert len(calls) == cfg.inner_iters

    def test_updates_never_increase_objective(self):
        rng = np.random.default_rng(8)
        for zero_fill in (False, True):
            ds = random_dataset(rng, 6, 5, density=0.5)
            m = random_quantum_model(rng, 6, 5, 2)
            cfg = train.TrainConfig(D=2)
            t = train.effective_targets(ds, zero_fill)
            before = train.objective(m, t)
            m2 = train.update_items(m, t, cfg)
            mid = train.objective(m2, t)
            m3 = train.update_users(m2, t, cfg)
            after = train.objective(m3, t)
            assert mid <= before + 1e-10
            assert after <= mid + 1e-10
            m3.validate()

    @pytest.mark.parametrize("update", [train.update_users, train.update_items])
    def test_binary_model_required(self, update):
        rng = np.random.default_rng(9)
        m = random_quantum_model(rng, 3, 3, 2, z=3)
        ds = random_dataset(rng, 3, 3)
        t = train.effective_targets(ds, False)
        with pytest.raises(InvalidInput, match="binary-outcome"):
            update(m, t, train.TrainConfig())

    @pytest.mark.parametrize("update", [train.update_users, train.update_items])
    def test_non_model_rejected(self, update):
        ds = random_dataset(np.random.default_rng(9), 3, 3)
        t = train.effective_targets(ds, False)
        with pytest.raises(InvalidInput):
            update(np.zeros((3, 2)), t, train.TrainConfig())
        with pytest.raises(InvalidInput):
            train.objective(None, t)

    def test_non_finite_raises(self):
        rng = np.random.default_rng(10)
        m = random_quantum_model(rng, 3, 3, 2)
        users = m.users.copy()
        users[0, 0, 0] = np.nan
        bad = models.QuantumModel(users, m.items)
        ds = random_dataset(rng, 3, 3, density=1.0)
        t = train.effective_targets(ds, False)
        with pytest.raises(NumericalFailure):
            train.update_users(bad, t, train.TrainConfig())


class TestConstraintResidual:
    def test_feasible_is_tiny(self):
        rng = np.random.default_rng(11)
        assert train.constraint_residual(random_quantum_model(rng, 3, 3, 2)) <= 1e-10
        assert train.constraint_residual(random_nnm_model(rng, 3, 3, 2)) <= 1e-10

    def test_detects_violation(self):
        rng = np.random.default_rng(12)
        m = random_quantum_model(rng, 2, 2, 2)
        assert train.constraint_residual(models.QuantumModel(m.users * 1.1, m.items)) > 1e-3

    @pytest.mark.parametrize(
        "kind, case",
        [
            ("quantum", "scaled user"),
            ("quantum", "non-Hermitian user"),
            ("quantum", "negative like"),
            ("quantum", "outcomes off one"),
            ("nnm", "scaled user"),
            ("nnm", "negative like"),
            ("nnm", "outcomes off one"),
        ],
    )
    def test_residual_covers_every_check(self, kind, case):
        rng = np.random.default_rng(14)
        make = random_quantum_model if kind == "quantum" else random_nnm_model
        m = make(rng, 3, 3, 2)
        users, items = m.users.copy(), m.items.copy()
        one = np.eye(2) if kind == "quantum" else np.ones(2)
        if case == "scaled user":
            users[0] *= 1.1
        elif case == "non-Hermitian user":
            users[0, 0, 1] += 1e-2
        elif case == "negative like":
            # The outcomes still sum to `one`; only the like effect leaves the cone.
            like = np.diag([-0.1, 0.5]) if kind == "quantum" else np.array([-0.1, 0.5])
            items[0] = np.stack([like, one - like])
        else:
            items[0, 0] *= 0.9
        bad = type(m)(users, items)
        with pytest.raises(InvalidInput):
            bad.validate()
        assert train.constraint_residual(bad) > 1e-3


class TestTrainLoop:
    @pytest.mark.parametrize("trainer", [train.train_quantum, train.train_nnm], ids=["quantum", "nnm"])
    @pytest.mark.parametrize("U, I", [(0, 3), (3, 0), (0, 0)], ids=["no-users", "no-items", "neither"])
    def test_empty_side_rejected_up_front(self, trainer, U, I):
        # A side with no units has nothing to train, and a model without
        # items cannot be saved: one message naming the sizes, before any step.
        ds = from_arrays([], [], [], U=U, I=I)
        with pytest.raises(InvalidInput, match=rf"^training needs at least one user and one item, got {U} users and {I} items$"):
            trainer(ds, train.TrainConfig(D=2, max_iter=2))

    def test_history_and_phases(self):
        rng = np.random.default_rng(13)
        ds = random_dataset(rng, 8, 6, density=0.6)
        cfg = train.TrainConfig(D=2, max_iter=5, mode="mae", seed=0)
        m, hist = train.train_quantum(ds, cfg)
        m.validate()
        assert len(hist) == 5
        assert hist.phase == ["zero_fill", "zero_fill", "observed", "observed", "observed"]
        assert train.constraint_residual(m) <= 1e-8
        assert m.D == 2 and m.Z == 2

    @pytest.mark.parametrize(
        "kind, d, field", [("quantum", 2, "complex"), ("quantum", 3, "real"), ("nnm", 3, "complex")]
    )
    def test_every_update_stays_feasible(self, monkeypatch, kind, d, field):
        # Training records no residual; every half-sweep's model is checked here instead.
        checked = []
        update_side = train._update_side

        def feasible(m, targets, cfg, side):
            rows, quad = update_side(m, targets, cfg, side)
            out = m.with_users(rows) if side == "user" else m.with_likes(rows)
            assert train.constraint_residual(out) <= 1e-8
            checked.append(targets.zero_fill)
            return rows, quad

        monkeypatch.setattr(train, "_update_side", feasible)
        ds = random_dataset(np.random.default_rng(24), 8, 6, density=0.6)
        cfg = train.TrainConfig(D=d, max_iter=4, mode="mae", field=field, kind=kind, seed=5)
        trainer = train.train_quantum if kind == "quantum" else train.train_nnm
        _, hist = trainer(ds, cfg)
        assert hist.phase == ["zero_fill", "zero_fill", "observed", "observed"]
        assert checked == [True] * 4 + [False] * 4

    @pytest.mark.parametrize("kind", ["quantum", "nnm"])
    @pytest.mark.parametrize("mode", ["mae", "recall"])
    def test_two_quadratics_per_sweep(self, monkeypatch, kind, mode):
        # The items' and the users'; the sweep objective reuses the users'.
        built = []
        quadratic = train._quadratic

        def counted(m, targets, side):
            built.append((targets.zero_fill, side))
            return quadratic(m, targets, side)

        monkeypatch.setattr(train, "_quadratic", counted)
        ds = random_dataset(np.random.default_rng(27), 7, 6, density=0.6)
        trainer = train.train_quantum if kind == "quantum" else train.train_nnm
        _, hist = trainer(ds, train.TrainConfig(D=2, max_iter=4, mode=mode, seed=0))
        zero_fill = [phase == "zero_fill" for phase in hist.phase]
        assert zero_fill == ([True] * 4 if mode == "recall" else [True, True, False, False])
        assert built == [(z, side) for z in zero_fill for side in ("item", "user")]

    @pytest.mark.parametrize(
        "kind, d, field", [("quantum", 2, "complex"), ("quantum", 3, "real"), ("nnm", 3, "complex")]
    )
    def test_history_is_the_objective_of_each_sweep(self, monkeypatch, kind, d, field):
        # Each sweep's recorded objective is `objective` of the model that
        # sweep ends on, on that sweep's targets.
        ends = []
        with_users = models._Model.with_users

        def recorded(self, rows):
            ends.append(with_users(self, rows))
            return ends[-1]

        monkeypatch.setattr(models._Model, "with_users", recorded)
        ds = random_dataset(np.random.default_rng(28), 8, 6, density=0.6)
        cfg = train.TrainConfig(D=d, max_iter=4, mode="mae", field=field, seed=3)
        _, hist = (train.train_quantum if kind == "quantum" else train.train_nnm)(ds, cfg)
        assert hist.phase == ["zero_fill", "zero_fill", "observed", "observed"] and len(ends) == 4
        targets = {"zero_fill": train.effective_targets(ds, True), "observed": train.effective_targets(ds, False)}
        for got, m, phase in zip(hist.objective, ends, hist.phase):
            want = train.objective(m, targets[phase])
            assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("trainer", [train.train_quantum, train.train_nnm])
    def test_training_never_checks_feasibility(self, monkeypatch, trainer):
        calls = []
        residual = models._Model.residual

        def counted(self):
            calls.append(type(self).__name__)
            return residual(self)

        monkeypatch.setattr(models._Model, "residual", counted)
        ds = random_dataset(np.random.default_rng(25), 6, 5, density=0.6)
        _, hist = trainer(ds, train.TrainConfig(D=2, max_iter=3, seed=0))
        assert len(hist) == 3
        assert calls == []

    def test_recall_mode_stays_zero_filled(self):
        rng = np.random.default_rng(14)
        ds = random_dataset(rng, 6, 5, density=0.6)
        cfg = train.TrainConfig(D=2, max_iter=3, mode="recall", seed=0)
        _, hist = train.train_quantum(ds, cfg)
        assert hist.phase == ["zero_fill"] * 3

    def test_monotone_descent_within_phases(self):
        rng = np.random.default_rng(15)
        ds = planted_dataset(rng, 10, 8)
        cfg = train.TrainConfig(D=3, max_iter=6, mode="mae", zero_fill_sweeps=3, seed=1)
        _, hist = train.train_quantum(ds, cfg)
        objs, phases = hist.objective, hist.phase
        for k in range(1, len(objs)):
            if phases[k] == phases[k - 1]:
                assert objs[k] <= objs[k - 1] + 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        ds = random_dataset(rng, 6, 5, density=0.7)
        cfg = train.TrainConfig(D=2, max_iter=3, seed=42)
        m1, h1 = train.train_quantum(ds, cfg)
        m2, h2 = train.train_quantum(ds, cfg)
        assert np.array_equal(m1.users, m2.users)
        assert np.array_equal(m1.items, m2.items)
        assert h1.objective == h2.objective
        m3, _ = train.train_quantum(ds, train.TrainConfig(D=2, max_iter=3, seed=43))
        assert not np.array_equal(m1.users, m3.users)

    def test_nnm_training(self):
        rng = np.random.default_rng(17)
        ds = random_dataset(rng, 6, 5, density=0.7)
        cfg = train.TrainConfig(D=3, max_iter=3, seed=0)
        m, hist = train.train_nnm(ds, cfg)
        m.validate()
        assert isinstance(m, models.NnmModel)
        assert len(hist) == 3

    def test_max_iter_zero(self):
        rng = np.random.default_rng(18)
        ds = random_dataset(rng, 4, 4, density=0.8)
        m, hist = train.train_quantum(ds, train.TrainConfig(D=2, max_iter=0, seed=0))
        m.validate()
        assert len(hist) == 0

    def test_planted_data_reaches_low_error(self):
        rng = np.random.default_rng(19)
        ds = planted_dataset(rng, 10, 6)
        cfg = train.TrainConfig(D=5, max_iter=12, mode="mae", zero_fill_sweeps=0, seed=2)
        m, hist = train.train_quantum(ds, cfg)
        t = train.effective_targets(ds, False)
        per_entry = hist.objective[-1] / len(ds)
        assert per_entry < 0.01

    def test_real_field_training(self):
        rng = np.random.default_rng(20)
        ds = random_dataset(rng, 5, 4, density=0.8)
        cfg = train.TrainConfig(D=2, max_iter=2, field="real", seed=0)
        m, _ = train.train_quantum(ds, cfg)
        m.validate()
        assert not np.iscomplexobj(m.users)

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["quantum", "nnm"])
    def test_recorded_objective_matches_naive(self, kind, max_iter):
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, 7, 6, density=0.6)
        cfg = train.TrainConfig(D=2, max_iter=max_iter, zero_fill_sweeps=1, seed=3)
        trainer = train.train_quantum if kind == "quantum" else train.train_nnm
        m, hist = trainer(ds, cfg)
        zero_fill = max_iter == 1
        assert hist.phase[-1] == ("zero_fill" if zero_fill else "observed")
        assert abs(hist.objective[-1] - naive_objective(m, ds, zero_fill)) <= 1e-9

    def test_training_never_rescores_entries(self, monkeypatch):
        def no_scores(*args, **kwargs):
            raise AssertionError("training scored the targets entry by entry")

        monkeypatch.setattr(models, "score_entries", no_scores)
        monkeypatch.setattr(train, "score_entries", no_scores)
        rng = np.random.default_rng(22)
        ds = random_dataset(rng, 6, 5, density=0.6)
        m, hist = train.train_quantum(ds, train.TrainConfig(D=2, max_iter=3, seed=0))
        assert len(hist) == 3
        for zero_fill in (True, False):
            assert np.isfinite(train.objective(m, train.effective_targets(ds, zero_fill)))

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_d2_never_reaches_lapack_eigensolvers(self, monkeypatch, field, d):
        # D = 2 and D = 3 projections and residual checks take the closed
        # forms; only the 2-d Gram eigvalsh of the zero-fill step bound may
        # call LAPACK. The D = 4 run shows the dispatch stops at D = 3.
        eigvalsh = np.linalg.eigvalsh

        def no_eigh(a, *args, **kwargs):
            raise AssertionError(f"eigh on shape {np.shape(a)}")

        def gram_eigvalsh_only(a, *args, **kwargs):
            if np.ndim(a) > 2:
                raise AssertionError(f"eigvalsh on shape {np.shape(a)}")
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", gram_eigvalsh_only)
        ds = random_dataset(np.random.default_rng(23), 7, 6, density=0.6)
        cfg = train.TrainConfig(D=d, max_iter=3, zero_fill_sweeps=1, field=field, seed=4)
        if d == 4:
            with pytest.raises(AssertionError, match="eigh on shape"):
                train.train_quantum(ds, cfg)
            return
        m, hist = train.train_quantum(ds, cfg)
        assert hist.phase == ["zero_fill", "observed", "observed"]
        assert train.constraint_residual(m) <= 1e-8


def _planted_instance(seed, n_users=300, n_items=200, d=2, density=0.3):
    """Ratings r = 1 + Binomial(4, P) on a random share of the pairs, P the
    like probability of planted D=2 states (pure states mixed 0.9/0.1 with
    I/2) and effects (scaled to top eigenvalue 1). Returns the dataset, P
    and the mapped planted model, whose like-effects 0.2 I + 0.8 E score
    the targets' conditional mean (1 + 4 P) / 5."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((n_users, d)) + 1j * rng.standard_normal((n_users, d))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    rho = 0.9 * np.einsum("ua,ub->uab", psi, psi.conj()) + 0.1 * np.eye(d) / d
    g = rng.standard_normal((n_items, d, d)) + 1j * rng.standard_normal((n_items, d, d))
    effects = g @ np.conj(np.swapaxes(g, 1, 2))
    effects /= np.linalg.eigvalsh(effects)[:, -1, None, None]
    p = np.einsum("uab,iba->ui", rho, effects).real
    uu, ii = np.nonzero(rng.random((n_users, n_items)) < density)
    ds = from_arrays(uu, ii, 1 + rng.binomial(4, p[uu, ii]), U=n_users, I=n_items)
    like = 0.2 * np.eye(d) + 0.8 * effects
    return ds, p, models.QuantumModel(rho, np.stack([like, np.eye(d) - like], axis=1))


def _bias_mae(ds, split, lam=5.0):
    """Test MAE of the shrunk user-and-item bias baseline mu + b_u + b_i."""
    uu, ii, r = ds.uu[split.train], ds.ii[split.train], ds.rr[split.train].astype(float)
    mu = r.mean()
    b_item = np.bincount(ii, r - mu, ds.I) / (np.bincount(ii, minlength=ds.I) + lam)
    b_user = np.bincount(uu, r - mu - b_item[ii], ds.U) / (np.bincount(uu, minlength=ds.U) + lam)
    pred = np.clip(mu + b_user[ds.uu[split.test]] + b_item[ds.ii[split.test]], 1.0, float(ds.z_star))
    return float(np.mean(np.abs(pred - ds.rr[split.test])))


class TestLearningFloor:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_training_learns_the_planted_truth(self, seed):
        # Measured on seeds 0-7 when written: 16 sweeps score a truth error
        # of 0.10-0.35 and a test MAE 0.20-0.32 below the bias baseline's
        # (1.02-1.07); the initial model scores a truth error of 1.75-1.86
        # and one sweep 8.2-8.7, and both an MAE above the baseline's. Each
        # floor sits about half way across its smallest gap.
        ds, p, mapped = _planted_instance(seed)
        assert truth_rel_err(mapped, p) <= 1e-20
        split = data.kfold_split(ds, 5, seed=0)[0]
        m, _ = train.train_quantum(ds.subset(split.train), train.TrainConfig(D=2, max_iter=16, mode="mae"))
        assert truth_rel_err(m, p) < 1.0
        assert metrics.mae(m, ds, split).value < _bias_mae(ds, split) - 0.1
