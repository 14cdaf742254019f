import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdrec import data
from psdrec.exceptions import InvalidInput, ParseError

from _oracles import naive_ratings
from conftest import from_arrays, random_dataset


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


def assert_matches_oracle(path, sep):
    """The loader gives the reference parser's arrays and ids, or a ParseError,
    with the reference's text where it has one."""
    load = data.load_movielens_100k if sep == "\t" else data.load_movielens_1m
    entries, duplicate, malformed = naive_ratings(str(path), sep)
    if duplicate is None and not malformed:
        ds = load(str(path))
        got = (ds.uu.tolist(), ds.ii.tolist(), ds.rr.tolist(), ds.user_ids.tolist(), ds.item_ids.tolist())
        assert got == entries
        assert ds.uu.dtype == ds.ii.dtype == ds.rr.dtype == np.int64
        return
    with pytest.raises(ParseError) as exc_info:
        load(str(path))
    if not malformed:
        assert str(exc_info.value) == duplicate


def _loop_must_not_run(*args):
    raise AssertionError("the line loop ran on a well-formed file")


def write_bytes(tmp_path, text, name="ratings"):
    path = tmp_path / name
    path.write_bytes(text.encode("latin-1"))
    return path


# Inputs the block parser serves itself.
_SERVED = [
    ("007\t010\t05\t0\n7\t9\t4\t0\n", "\t"),
    ("1\t1\t5\t\n2\t1\t4\t\n", "\t"),
    ("\n1\t1\t5\t0\n\n\n2\t1\t4\t0\n\n", "\t"),
    ("1\t1\t5\t0\n2\t1\t4\t0", "\t"),
    ("999999999999999999\t1\t5\t0\n1\t999999999999999999\t4\t0\n", "\t"),
    # A digit times its power of ten overflows uint8, uint16 and uint32.
    ("300\t70000\t5\t0\n5000000000\t300\t4\t0\n70000\t5000000000\t3\t0\n", "\t"),
    ("300::5000000000::5::0\n70000::300::4::0\n", "::"),
    ("1\t1\t5\t" + "9" * 5000 + "\n2\t1\t4\t0\n", "\t"),
    ("1::1::5::978300760\n\n2::1::4::\n3::2::3::0", "::"),
]

# Inputs it declines, so the line loop decides; some the loop accepts.
_DECLINED = [
    ("1\t+3\t5\t0\n", "\t"),
    ("1\t 3\t5\t0\n", "\t"),
    ("1_0\t3\t5\t0\n", "\t"),
    ("1\t3\xa0\t5\t0\n", "\t"),
    ("\xa01::3::5::0\n", "::"),
    ("1\t1\t5\tx\n", "\t"),
    ("1\t1\t5\t0 \n", "\t"),
    ("1\t1\t5\n", "\t"),
    ("1\t1\t5\t0\t0\n", "\t"),
    ("1::1::5\n", "::"),
    ("1::1::5::0::0\n", "::"),
    ("1:::1::5::0\n", "::"),
    ("1::::1::5::0\n", "::"),
    ("1::1::5:::0\n", "::"),
    ("1::1\t2::5::0\n", "::"),
    ("1:2:3::4::5\n", "::"),
    ("1\t2\n3\t4\t5\t6\t2\t8\n", "\t"),
    ("1\t1\t5\t0\n", "::"),
    ("1::1::5::0\n", "\t"),
    ("1\t1\t5\t0\r\n2\t1\t4\t0\r\n", "\t"),
    ("1\t1\t5\t0\r2\t1\t4\t0\n", "\t"),
    ("1::1::5::0\r\n", "::"),
    ("1\t1\t5\t0\r2\t1\t4\t0\r", "\t"),
    ("1::1::5::0\r2::1::4::0\r", "::"),
    ("1\t1\t5\t" + "9" * 5000, "\t"),
    ("1" * 5000, "\t"),
    ("1000000000000000000\t1\t5\t0\n", "\t"),
    ("1\t1\t5\t0\n9999999999999999999\t1\t4\t0\n", "\t"),
    ("99999999999999999999\t1\t5\t0\n2\t1\t4\t0\n", "\t"),
    ("1\t1\t0\t0\n", "\t"),
    ("1\t1\t6\t0\n", "\t"),
    ("1::1::6::0\n", "::"),
    ("1\t\t5\t0\n", "\t"),
    ("", "\t"),
    ("\n\n", "::"),
]


@st.composite
def _quirky_files(draw):
    """(text, sep): lines whose fields are mostly small ids and sometimes a
    quirk that int() accepts or rejects, with mixed line ends."""
    sep = draw(st.sampled_from(["\t", "::"]))
    quirk = st.sampled_from(
        ["+3", " 3", "3 ", "1_0", "\xa03", "3\xa0", "007", "", "x", "-1", "0", "6",
         "9" * 18, "9" * 19, "\t", ":", "::", ":::"]
    )
    small = st.integers(1, 3).map(str)
    field = st.one_of(small, small, small, quirk)
    rating = st.one_of(st.integers(1, 5).map(str), st.integers(1, 5).map(str), quirk)
    stamp = st.sampled_from(["0", "978300760", "", "x", "0 "])
    line = st.one_of(
        st.just(""),
        st.tuples(field, field, rating, stamp).map(sep.join),
        st.tuples(field, field, rating, stamp).map(sep.join),
        st.lists(small, min_size=3, max_size=5).map(sep.join),
    )
    lines = draw(st.lists(line, min_size=1, max_size=8))
    ends = draw(st.lists(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(ln + end for ln, end in zip(lines, ends))
    return (text if draw(st.booleans()) else text.rstrip("\r\n")), sep


class TestBlockParser:
    @pytest.mark.parametrize("text, sep", _SERVED)
    def test_served_inputs_match_reference(self, tmp_path, text, sep):
        path = write_bytes(tmp_path, text)
        assert data._parse_blocks(str(path), sep, 5) is not None
        assert_matches_oracle(path, sep)

    @pytest.mark.parametrize("text, sep", _DECLINED)
    def test_quirks_fall_back_to_reference(self, tmp_path, text, sep):
        path = write_bytes(tmp_path, text)
        assert data._parse_blocks(str(path), sep, 5) is None
        assert_matches_oracle(path, sep)

    def test_leading_zeros_name_the_same_ids(self, tmp_path):
        path = write_bytes(tmp_path, "7\t10\t5\t0\n007\t010\t4\t0\n")
        assert_matches_oracle(path, "\t")
        with pytest.raises(ParseError, match="line 2: duplicate rating for user 7 item 10"):
            data.load_movielens_100k(str(path))

    @given(case=_quirky_files())
    @settings(max_examples=300, deadline=None)
    def test_quirky_files_match_reference(self, tmp_path_factory, case):
        text, sep = case
        assert_matches_oracle(write_bytes(tmp_path_factory.mktemp("ratings"), text), sep)

    @pytest.mark.parametrize("sep", ["\t", "::"])
    def test_well_formed_files_never_reach_the_loop(self, tmp_path, monkeypatch, sep):
        # Ids repeat in random order, so first appearance differs from sorted order.
        rng = np.random.default_rng(1)
        keys = rng.choice(40 * 60, size=300, replace=False)
        rows = [(k // 60 + 1, 7 * (k % 60), 1 + k % 5, 978300000 + k) for k in keys.tolist()]
        write = write_100k if sep == "\t" else write_1m
        path = write(tmp_path, rows)

        monkeypatch.setattr(data, "_parse_lines", _loop_must_not_run)
        assert_matches_oracle(path, sep)

    @pytest.mark.parametrize("block_bytes", [1, 2, 3, 5, 8, 13])
    @pytest.mark.parametrize("sep", ["\t", "::"])
    def test_lines_straddle_block_edges(self, tmp_path, monkeypatch, sep, block_bytes):
        rows = [(10 + u, 100 * i + 1, 1 + (u + i) % 5, 978300760 + i) for u in range(4) for i in range(5)]
        # A leading blank line, two more after user 11's lines, none at the end.
        text = "\n" + "".join(sep.join(map(str, row)) + "\n" * (1 + 2 * (row[0] == 11)) for row in rows)
        path = write_bytes(tmp_path, text.rstrip("\n"))

        monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(data, "_parse_lines", _loop_must_not_run)
        assert_matches_oracle(path, sep)

    def test_more_entries_than_counted_declines(self):
        # The file grew between counting its separators and parsing it.
        columns = [np.zeros(1, dtype=np.int64) for _ in range(3)]
        block = np.frombuffer(b"1\t2\t3\t4\n5\t6\t4\t8\n", np.uint8)
        assert data._parse_block(block, "\t", 5, columns, 0) is None

    def test_reads_a_pipe(self, tmp_path):
        path = tmp_path / "ratings"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=("1\t1\t5\t0\n2\t1\t4\t0\n",), daemon=True)
        writer.start()
        ds = data.load_movielens_100k(str(path))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert ds.rr.tolist() == [5, 4]

    def test_peak_memory_at_most_the_loops(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 200_000
        keys = rng.choice(6040 * 3952, size=n, replace=False)
        cols = (keys // 3952 + 1, keys % 3952 + 1, rng.integers(1, 6, n), rng.integers(9 * 10**8, 10**9, n))
        path = tmp_path / "ratings.dat"
        path.write_text("".join(f"{u}::{i}::{r}::{t}\n" for u, i, r, t in zip(*(c.tolist() for c in cols))))
        peaks = []
        for load in (data.load_movielens_1m, lambda p: data._parse_lines(p, "::")):
            tracemalloc.start()
            try:
                assert len(load(str(path))) == n
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]


class TestRatingDataset:
    def test_from_arrays_and_len(self):
        ds = from_arrays([0, 1], [1, 0], [5, 3], U=2, I=2)
        assert len(ds) == 2 and ds.U == 2 and ds.I == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInput):
            from_arrays([0, 2], [0, 0], [1, 1], U=2, I=1)
        with pytest.raises(InvalidInput):
            from_arrays([0], [0], [9], U=1, I=1)

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidInput):
            from_arrays([0, 0], [1, 1], [5, 4], U=1, I=2)

    @given(pairs=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), max_size=14))
    @settings(max_examples=200, deadline=None)
    def test_duplicates_rejected_exactly(self, pairs):
        uu = [u for u, _ in pairs]
        ii = [i for _, i in pairs]
        build = lambda: from_arrays(uu, ii, [3] * len(pairs), U=5, I=4)
        if len(set(pairs)) < len(pairs):
            with pytest.raises(InvalidInput, match="duplicate"):
                build()
        else:
            assert len(build()) == len(pairs)

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInput):
            from_arrays([0, 1], [0], [5], U=2, I=1)

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
