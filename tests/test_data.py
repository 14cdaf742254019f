import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdrec import data
from psdrec.exceptions import InvalidInput, ParseError

from _oracles import naive_ratings
from conftest import random_dataset


@st.composite
def _rating_lines(draw):
    """Rating lines: None is a blank line, a tuple an entry over few ids (so
    pairs repeat) with an occasional out-of-range rating, a string a malformed
    line; at most one malformed line, so many files have no other fault."""
    rating = st.sampled_from([1, 2, 3, 4, 5] * 2 + [0, 6])
    entry = st.tuples(st.integers(1, 3), st.integers(1, 3), rating)
    lines = draw(st.lists(st.one_of(st.none(), entry), min_size=1, max_size=10))
    bad = draw(st.sampled_from([None, None, None, "1", "a", "1 2 3 4"]))
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return lines


def write_100k(tmp_path, rows, name="u.data"):
    path = tmp_path / name
    path.write_text("".join(f"{u}\t{i}\t{r}\t{t}\n" for u, i, r, t in rows))
    return str(path)


def write_1m(tmp_path, rows, name="ratings.dat"):
    path = tmp_path / name
    path.write_text("".join(f"{u}::{i}::{r}::{t}\n" for u, i, r, t in rows))
    return str(path)


class TestLoaders:
    def test_100k_basic(self, tmp_path):
        rows = [(10, 300, 5, 1), (20, 300, 3, 2), (10, 400, 1, 3)]
        ds = data.load_movielens_100k(write_100k(tmp_path, rows))
        assert ds.U == 2 and ds.I == 2 and len(ds) == 3
        assert ds.z_star == 5
        # ids remap in order of first appearance
        assert list(ds.user_ids) == [10, 20]
        assert list(ds.item_ids) == [300, 400]
        assert ds.rr.tolist() == [5, 3, 1]
        assert ds.uu.tolist() == [0, 1, 0]
        assert ds.ii.tolist() == [0, 0, 1]

    def test_1m_separator(self, tmp_path):
        rows = [(1, 1, 5, 978300760), (2, 1, 4, 978302109)]
        ds = data.load_movielens_1m(write_1m(tmp_path, rows))
        assert len(ds) == 2 and ds.U == 2 and ds.I == 1

    def test_duplicate_rating_reports_both_lines(self, tmp_path):
        rows = [(1, 1, 5, 0), (2, 1, 4, 0), (1, 1, 3, 0)]
        with pytest.raises(ParseError) as exc_info:
            data.load_movielens_100k(write_100k(tmp_path, rows))
        msg = str(exc_info.value)
        assert "line 3" in msg and "line 1" in msg

    def test_duplicate_line_numbers_count_blank_lines(self, tmp_path):
        # the earliest repeat (line 5) is reported, not the earliest first entry
        path = tmp_path / "u.data"
        path.write_text("\n1\t1\t5\t0\n\n2\t2\t4\t0\n2\t2\t3\t0\n\n1\t1\t2\t0\n")
        with pytest.raises(ParseError) as exc_info:
            data.load_movielens_100k(str(path))
        assert str(exc_info.value) == (
            f"{path} line 5: duplicate rating for user 2 item 2 (first seen at line 4)"
        )

    @given(lines=_rating_lines(), sep=st.sampled_from(["\t", "::"]))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_parser(self, tmp_path_factory, lines, sep):
        path = tmp_path_factory.mktemp("ratings") / "ratings"
        rendered = [
            "" if ln is None else ln if isinstance(ln, str) else sep.join(map(str, ln + (0,)))
            for ln in lines
        ]
        path.write_text("".join(ln + "\n" for ln in rendered), encoding="latin-1")
        load = data.load_movielens_100k if sep == "\t" else data.load_movielens_1m
        entries, duplicate, malformed = naive_ratings(str(path), sep)
        if duplicate is None and not malformed:
            ds = load(str(path))
            got = (ds.uu.tolist(), ds.ii.tolist(), ds.rr.tolist(), ds.user_ids.tolist(), ds.item_ids.tolist())
            assert got == entries
            return
        with pytest.raises(ParseError) as exc_info:
            load(str(path))
        if not malformed:
            assert str(exc_info.value) == duplicate

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t1\t5\n")
        with pytest.raises(ParseError) as exc_info:
            data.load_movielens_100k(str(path))
        assert "line 1" in str(exc_info.value)

    def test_non_integer_field(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\tabc\t5\t0\n")
        with pytest.raises(ParseError):
            data.load_movielens_100k(str(path))

    def test_rating_out_of_range(self, tmp_path):
        with pytest.raises(ParseError):
            data.load_movielens_100k(write_100k(tmp_path, [(1, 1, 6, 0)]))
        with pytest.raises(ParseError):
            data.load_movielens_100k(write_100k(tmp_path, [(1, 1, 0, 0)], name="u2.data"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("")
        with pytest.raises(ParseError):
            data.load_movielens_100k(str(path))

    def test_latin1_tolerated(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_bytes(b"1\t1\t5\t0\n")
        ds = data.load_movielens_100k(str(path))
        assert len(ds) == 1

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            data.load_movielens_100k("/nonexistent/u.data")


class TestRatingDataset:
    def test_from_arrays_and_len(self):
        ds = data.RatingDataset.from_arrays([0, 1], [1, 0], [5, 3], U=2, I=2)
        assert len(ds) == 2 and ds.U == 2 and ds.I == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInput):
            data.RatingDataset.from_arrays([0, 2], [0, 0], [1, 1], U=2, I=1)
        with pytest.raises(InvalidInput):
            data.RatingDataset.from_arrays([0], [0], [9], U=1, I=1)

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidInput):
            data.RatingDataset.from_arrays([0, 0], [1, 1], [5, 4], U=1, I=2)

    @given(pairs=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), max_size=14))
    @settings(max_examples=200, deadline=None)
    def test_duplicates_rejected_exactly(self, pairs):
        uu = [u for u, _ in pairs]
        ii = [i for _, i in pairs]
        build = lambda: data.RatingDataset.from_arrays(uu, ii, [3] * len(pairs), U=5, I=4)
        if len(set(pairs)) < len(pairs):
            with pytest.raises(InvalidInput, match="duplicate"):
                build()
        else:
            assert len(build()) == len(pairs)

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInput):
            data.RatingDataset.from_arrays([0, 1], [0], [5], U=2, I=1)

    def test_subset_keeps_universe(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, 6, 5, density=0.8)
        sub = ds.subset(np.array([0, 2]))
        assert sub.U == ds.U and sub.I == ds.I and len(sub) == 2
        assert sub.uu.tolist() == [int(ds.uu[0]), int(ds.uu[2])]

    def test_index_maps(self, tmp_path):
        rows = [(10, 300, 5, 1), (20, 300, 3, 2)]
        ds = data.load_movielens_100k(write_100k(tmp_path, rows))
        assert ds.user_ids.tolist() == [10, 20]
        assert ds.item_index[300] == 0


class TestSplits:
    def test_kfold_partitions(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, 10, 8, density=0.7)
        splits = data.kfold_split(ds, 5, seed=0)
        assert len(splits) == 5
        all_test = np.concatenate([s.test for s in splits])
        assert sorted(all_test.tolist()) == list(range(len(ds)))
        for s in splits:
            assert len(s.train) + len(s.test) == len(ds)
            assert np.intersect1d(s.train, s.test).size == 0

    def test_kfold_deterministic(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, 8, 8)
        a = data.kfold_split(ds, 3, seed=7)
        b = data.kfold_split(ds, 3, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.test, y.test)
        c = data.kfold_split(ds, 3, seed=8)
        assert any(not np.array_equal(x.test, y.test) for x, y in zip(a, c))

    def test_kfold_bounds(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 4, 4, density=1.0)
        with pytest.raises(InvalidInput):
            data.kfold_split(ds, 1, seed=0)
        with pytest.raises(InvalidInput):
            data.kfold_split(ds, len(ds) + 1, seed=0)

    def test_topn_holdout_sizes(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 10, 10, density=1.0)
        split = data.topn_holdout(ds, 0.2, seed=0)
        assert len(split.test) == int(0.2 * len(ds))
        assert len(split.train) + len(split.test) == len(ds)

    def test_topn_holdout_bounds(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 4, 4, density=1.0)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidInput):
                data.topn_holdout(ds, bad, seed=0)
        tiny = ds.subset(np.arange(3))
        with pytest.raises(InvalidInput):
            data.topn_holdout(tiny, 0.01, seed=0)

    def test_split_rejects_overlap(self):
        with pytest.raises(InvalidInput):
            data.DataSplit(train=np.array([0, 1]), test=np.array([1, 2]))

    @given(
        train=st.lists(st.integers(0, 12), max_size=10),
        test=st.lists(st.integers(0, 12), max_size=10),
    )
    @settings(max_examples=300, deadline=None)
    def test_split_rejects_exactly_overlap(self, train, test):
        build = lambda: data.DataSplit(
            train=np.array(train, dtype=np.int64), test=np.array(test, dtype=np.int64)
        )
        if set(train) & set(test):
            with pytest.raises(InvalidInput, match="overlap"):
                build()
        else:
            split = build()
            assert split.train.tolist() == train and split.test.tolist() == test

    def test_split_allows_repeats_within_train(self):
        split = data.DataSplit(train=np.array([7, 2, 7, 7, 0]), test=np.array([5, 1, 8, 3]))
        assert split.train.tolist() == [7, 2, 7, 7, 0]


class TestTagCatalog:
    def write_genres(self, tmp_path, rows, name="movies.dat"):
        path = tmp_path / name
        path.write_text(
            "".join(f"{mid}::{title}::{genres}\n" for mid, title, genres in rows),
            encoding="latin-1",
        )
        return str(path)

    def _dataset(self, tmp_path):
        rows = [(1, 10, 5, 0), (1, 20, 4, 0), (2, 30, 3, 0)]
        return data.load_movielens_1m(write_1m(tmp_path, rows))

    def test_basic_parse(self, tmp_path):
        ds = self._dataset(tmp_path)
        path = self.write_genres(
            tmp_path,
            [(10, "A (1999)", "Comedy|Drama"), (20, "B (2000)", "Drama"), (30, "C (2001)", "Horror")],
        )
        catalog = data.load_genres_1m(path, ds)
        assert catalog.tags == ("Comedy", "Drama", "Horror")
        assert sorted(catalog.membership["Drama"].tolist()) == sorted(
            [ds.item_index[10], ds.item_index[20]]
        )
        assert catalog.skipped == 0

    def test_unknown_movie_skipped(self, tmp_path):
        ds = self._dataset(tmp_path)
        path = self.write_genres(tmp_path, [(10, "A", "Comedy"), (99, "X", "Drama")])
        catalog = data.load_genres_1m(path, ds)
        assert catalog.skipped == 1
        assert "Drama" not in catalog.membership

    def test_exclude(self, tmp_path):
        ds = self._dataset(tmp_path)
        path = self.write_genres(tmp_path, [(10, "A", "Comedy|Drama"), (20, "B", "Drama")])
        catalog = data.load_genres_1m(path, ds, exclude=("Drama",))
        assert catalog.tags == ("Comedy",)

    def test_empty_genre_field(self, tmp_path):
        ds = self._dataset(tmp_path)
        path = self.write_genres(tmp_path, [(10, "A", "")])
        with pytest.raises(ParseError):
            data.load_genres_1m(path, ds)

    def test_bad_field_count(self, tmp_path):
        ds = self._dataset(tmp_path)
        path = tmp_path / "movies.dat"
        path.write_text("10::OnlyTitle\n")
        with pytest.raises(ParseError):
            data.load_genres_1m(str(path), ds)

    def test_catalog_validation(self):
        with pytest.raises(InvalidInput):
            data.TagCatalog(tags=("a",), membership={"a": ()})
        with pytest.raises(InvalidInput):
            data.TagCatalog(tags=("a",), membership={})
