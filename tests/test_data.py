import os
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psdrec import data, metrics, models, tags, train
from psdrec.exceptions import InvalidInput, ParseError

from _oracles import first_appearance, naive_ratings, sorted_holdout, sorted_kfold
from conftest import from_arrays, random_dataset, random_nnm_model, random_quantum_model


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
        assert (ds.uu.dtype, ds.ii.dtype, ds.rr.dtype) == (np.int32, np.int32, np.int8)
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

    @pytest.mark.parametrize("block_bytes", [8, data._BLOCK_BYTES])
    def test_an_id_past_int32_widens_its_column(self, tmp_path, monkeypatch, block_bytes):
        # Small ids first, so with small blocks the column is widened
        # after blocks of int32 ids have been written into it.
        path = write_bytes(tmp_path, "1\t2\t5\t0\n3\t4\t4\t0\n2147483648\t5\t3\t0\n6\t2147483647\t2\t0\n")
        monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
        uu, ii, rr = data._parse_blocks(str(path), "\t", 5)
        assert (uu.dtype, ii.dtype) == (np.int64, np.int32)
        assert uu.tolist() == [1, 3, 2**31, 6] and ii.tolist() == [2, 4, 5, 2**31 - 1] and rr.tolist() == [5, 4, 3, 2]
        monkeypatch.setattr(data, "_parse_lines", _loop_must_not_run)
        assert_matches_oracle(path, "\t")

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


    def test_peak_memory_bounded_per_entry(self, tmp_path):
        # The 200k-line file of test_peak_memory_at_most_the_loops: the
        # parser's int32 id columns and narrow ratings take 9 bytes per
        # entry and become the dataset, and the duplicate check's int64 keys
        # take 8 more: 18.4 at the peak. Int64 parse columns took 25, int64
        # columns throughout about 33, sorting the ids and copying the keys
        # about 50.
        rng = np.random.default_rng(0)
        n = 200_000
        keys = rng.choice(6040 * 3952, size=n, replace=False)
        cols = (keys // 3952 + 1, keys % 3952 + 1, rng.integers(1, 6, n), rng.integers(9 * 10**8, 10**9, n))
        path = tmp_path / "ratings.dat"
        path.write_text("".join(f"{u}::{i}::{r}::{t}\n" for u, i, r, t in zip(*(c.tolist() for c in cols))))
        tracemalloc.start()
        try:
            ds = data.load_movielens_1m(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == n and peak <= 28 * n
        assert ds.uu.nbytes + ds.ii.nbytes + ds.rr.nbytes <= 9 * n

    def test_ids_are_remapped_without_a_sort(self, tmp_path, monkeypatch):
        # Users and items out of order, so grouping them would need a sort.
        rows = [(u, 7 * i % 23 + 1, 1 + (u + i) % 5, 978300000) for i in range(20) for u in (9, 2, 40, 5)]
        path = write_1m(tmp_path, rows)

        def refuse(values, n):
            raise AssertionError("the loader sorted the ids")

        monkeypatch.setattr(data, "_stable_order", refuse)
        monkeypatch.setattr(data, "_parse_lines", _loop_must_not_run)
        assert_matches_oracle(path, "::")

    @pytest.mark.parametrize("rating", ["261", "300"])
    @pytest.mark.parametrize("sep", ["\t", "::"])
    def test_ratings_are_checked_before_they_are_narrowed(self, tmp_path, sep, rating):
        # In int8, 261 wraps to 5 and 300 to 44: the block parser declines
        # either, and the line loop names the rating as written.
        path = write_bytes(tmp_path, f"1{sep}1{sep}4{sep}0\n2{sep}1{sep}{rating}{sep}0\n")
        assert data._parse_blocks(str(path), sep, 5) is None
        load = data.load_movielens_100k if sep == "\t" else data.load_movielens_1m
        with pytest.raises(ParseError, match=rf"line 2: rating {rating} outside \[1, 5\]"):
            load(str(path))


class TestFirstAppearance:
    @given(
        high=st.sampled_from([0, 5, 1 << 16, (1 << 16) + 40, 10**18 - 1]),
        draws=st.lists(st.integers(0, 10**18 - 1), min_size=1, max_size=40),
        repeats=st.booleans(),
        arrangement=st.sampled_from(["random", "sorted", "reversed"]),
        bound=st.sampled_from([None, -1, 0]),
    )
    # 18-digit ids, repeated; the largest id one below and at the table bound.
    @example(high=10**18 - 1, draws=[10**18 - 1, 10**18 - 3, 10**18 - 1, 7], repeats=True,
             arrangement="random", bound=None)
    @example(high=5, draws=[3, 1, 3], repeats=True, arrangement="random", bound=-1)
    @example(high=5, draws=[3, 1, 3], repeats=True, arrangement="random", bound=0)
    @settings(max_examples=300, deadline=None)
    def test_matches_dict_oracle(self, high, draws, repeats, arrangement, bound):
        # Ids up to len + 2^16 - 1 index a table directly; larger ones are
        # first made dense codes. bound puts the largest id at len + 2^16 + bound.
        values = [d % (high + 1) for d in draws]
        if repeats:
            values += values[::2]
        else:
            values = list(dict.fromkeys(values))
        if bound is not None:
            values.append(len(values) + 1 + (1 << 16) + bound)
        if arrangement != "random":
            values.sort(reverse=arrangement == "reversed")
        got = np.array(values, dtype=np.int64)
        ids = data._first_appearance(got)
        codes, want = first_appearance(values)
        assert got.tolist() == codes and ids.tolist() == want
        assert got.dtype == ids.dtype == np.int64

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 16])
    def test_chunks_match_dict_oracle(self, monkeypatch, chunk):
        # A first appearance and its repeats fall in different chunks.
        monkeypatch.setattr(data, "_REMAP_CHUNK", chunk)
        values = np.random.default_rng(chunk).integers(0, 50, 300).tolist()
        got = np.array(values, dtype=np.int64)
        ids = data._first_appearance(got)
        codes, want = first_appearance(values)
        assert got.tolist() == codes and ids.tolist() == want

    def test_temporaries_bounded_by_a_chunk(self):
        # Whole-column positions or looked-up indices would take 8 bytes per
        # entry, 4 MB here.
        values = np.random.default_rng(0).integers(0, 6040, 500_000)
        tracemalloc.start()
        try:
            data._first_appearance(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * data._REMAP_CHUNK


class TestRatingDataset:
    def test_from_arrays_and_len(self):
        ds = from_arrays([0, 1], [1, 0], [5, 3], U=2, I=2)
        assert len(ds) == 2 and ds.U == 2 and ds.I == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInput):
            from_arrays([0, 2], [0, 0], [1, 1], U=2, I=1)
        with pytest.raises(InvalidInput):
            from_arrays([0], [0], [9], U=1, I=1)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"z_star": 1}, "z_star must be an integer >= 2, got 1"),
            ({"ii": [0, 2]}, "item index out of range"),
            ({"ii": [0, -1]}, "item index out of range"),
            ({"user_ids": [7]}, "id maps"),
            ({"item_ids": [7, 8, 9]}, "id maps"),
        ],
        ids=["z_star", "item-high", "item-negative", "user-ids", "item-ids"],
    )
    def test_rejects_invalid_fields(self, change, message):
        fields = {"uu": [0, 1], "ii": [0, 1], "rr": [1, 1], "U": 2, "I": 2, "z_star": 5,
                  "user_ids": [10, 20], "item_ids": [30, 40]}
        with pytest.raises(InvalidInput, match=message):
            data.RatingDataset(**{**fields, **change})

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

    @given(idx=st.lists(st.integers(-8, 7), max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_subset_checks_only_what_can_repeat(self, idx):
        # Strictly increasing indices pick distinct entries and skip the
        # checks; repeated or unsorted ones go through them. A negative index
        # is out of range, not counted from the end.
        ds = random_dataset(np.random.default_rng(1), 4, 4, density=0.5)
        assert len(ds) == 8
        idx = np.array(idx, dtype=np.int64)
        checked, post_init = [], data.RatingDataset.__post_init__
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data.RatingDataset, "__post_init__", lambda self: checked.append(1) or post_init(self))
            fast = np.all(idx[1:] > idx[:-1])
            if np.any(idx < 0):
                with pytest.raises(InvalidInput, match=r"subset: entry index out of range \[0, 8\)"):
                    ds.subset(idx)
                assert checked == []
                return
            if len(set(idx.tolist())) < len(idx):
                with pytest.raises(InvalidInput, match="duplicate"):
                    ds.subset(idx)
                assert checked == [1] and not fast
                return
            sub = ds.subset(idx)
            assert checked == ([] if fast else [1])
        want = from_arrays(ds.uu[idx], ds.ii[idx], ds.rr[idx], U=ds.U, I=ds.I)
        for name in ("uu", "ii", "rr", "user_ids", "item_ids"):
            got = getattr(sub, name)
            assert got.dtype == getattr(want, name).dtype and np.array_equal(got, getattr(want, name)), name
        assert (sub.U, sub.I, sub.z_star) == (ds.U, ds.I, ds.z_star)
        assert not any(np.shares_memory(getattr(sub, c), getattr(ds, c)) for c in ("uu", "ii", "rr"))

    def test_index_maps(self, tmp_path):
        rows = [(10, 300, 5, 1), (20, 300, 3, 2)]
        ds = data.load_movielens_100k(write_100k(tmp_path, rows))
        assert ds.user_ids.tolist() == [10, 20]
        assert ds.item_index[300] == 0


def _assert_narrow(ds, uu, ii, rr):
    assert (ds.uu.dtype, ds.ii.dtype, ds.rr.dtype) == (np.int32, np.int32, np.int8)
    assert (ds.uu.tolist(), ds.ii.tolist(), ds.rr.tolist()) == (uu, ii, rr)


class TestStorageDtypes:
    """Every way a dataset is made stores int32 indices and int8 ratings for
    five stars, with the values it was given."""

    @pytest.mark.parametrize("parser", ["blocks", "loop"])
    @pytest.mark.parametrize("sep", ["\t", "::"])
    def test_loaders(self, tmp_path, monkeypatch, sep, parser):
        rows = [(9, 30, 5, 0), (2, 7, 1, 0), (9, 7, 3, 0), (40, 30, 4, 0)]
        path = (write_100k if sep == "\t" else write_1m)(tmp_path, rows)
        if parser == "blocks":
            monkeypatch.setattr(data, "_parse_lines", _loop_must_not_run)
        else:
            monkeypatch.setattr(data, "_parse_blocks", lambda *args: None)
        ds = (data.load_movielens_100k if sep == "\t" else data.load_movielens_1m)(path)
        _assert_narrow(ds, [0, 1, 0, 2], [0, 1, 1, 0], [5, 1, 3, 4])
        assert ds.user_ids.tolist() == [9, 2, 40] and ds.item_ids.tolist() == [30, 7]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_constructor(self, dtype):
        uu, ii, rr = (np.array(c, dtype=dtype) for c in ([2, 0, 1], [0, 3, 3], [5, 1, 4]))
        ds = from_arrays(uu, ii, rr, U=3, I=4)
        _assert_narrow(ds, [2, 0, 1], [0, 3, 3], [5, 1, 4])
        # int32 columns are stored as given, not copied.
        assert (ds.uu is uu and ds.ii is ii) == (dtype == np.int32)

    @pytest.mark.parametrize(
        "idx, want",
        [([0, 2, 3], ([2, 1, 1], [0, 3, 1], [5, 4, 2])), ([3, 0, 2], ([1, 2, 1], [1, 0, 3], [2, 5, 4]))],
        ids=["increasing", "checked"],
    )
    def test_subset(self, idx, want):
        ds = from_arrays([2, 0, 1, 1], [0, 3, 3, 1], [5, 1, 4, 2], U=3, I=4)
        _assert_narrow(ds.subset(idx), *want)

    def test_ratings_past_int8_keep_their_values(self):
        ds = from_arrays([0, 1, 2], [0, 0, 0], [300, 1, 261], U=3, I=1, z_star=300)
        assert ds.rr.dtype == np.int16 and ds.rr.tolist() == [300, 1, 261]
        with pytest.raises(InvalidInput, match=r"ratings must lie in \[1, 5\]"):
            from_arrays([0], [0], [261], U=1, I=1)

    def test_indices_widen_from_a_range_of_2_to_the_31(self):
        # The id map a zero-stride view, so no 2^31-entry array is made.
        n = 1 << 31
        ds = data.RatingDataset([n - 1], [0], [5], n, 1, 5, np.broadcast_to(7, (n,)), [8])
        assert (ds.uu.dtype, ds.ii.dtype) == (np.int64, np.int32) and ds.uu.tolist() == [n - 1]

    def test_duplicate_keys_do_not_wrap(self):
        # User 65,536's int32 key 65,536 * 65,536 + 5 wraps to user 0's 5,
        # and numpy 1.24 keeps int32 * np.int64(I) in int32: the keys must be
        # int64 before the product. A true repeat at that shape still raises.
        ds = from_arrays([0, 65_536], [5, 5], [3, 4], U=65_537, I=65_536)
        assert len(ds) == 2 and ds.uu.dtype == np.int32
        with pytest.raises(InvalidInput, match="duplicate"):
            from_arrays([65_536, 65_536], [5, 5], [3, 4], U=65_537, I=65_536)


class TestGroupEntries:
    @given(
        n=st.sampled_from([1, 2, 7, 1 << 16, (1 << 16) + 1, 1 << 20]),
        draws=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
        ordered=st.booleans(),
    )
    # Units 0 and 65,535, the ends of the 16-bit keys, repeated out of order.
    @example(n=1 << 16, draws=[0.99999, 0.0, 0.99999, 1.6e-5, 0.0], ordered=False)
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_argsort(self, n, draws, ordered):
        # Empty and one-entry units included; the 16-bit radix sort serves
        # n <= 65,536, a stable sort on the units as given larger n.
        unit = np.array([int(x * n) for x in draws], dtype=np.int64)
        if ordered:
            unit.sort()
        columns = np.arange(unit.size) * 3, np.linspace(0.0, 1.0, unit.size)
        ptr, *got = data.group_entries(unit, n, *columns)
        order = np.argsort(unit, kind="stable")
        assert np.array_equal(ptr, np.concatenate([[0], np.cumsum(np.bincount(unit, minlength=n))]))
        for c, g in zip(columns, got):
            assert g.dtype == c.dtype and np.array_equal(g, c[order])
            # Units in order: the columns themselves, not copies.
            assert (g is c) == bool(np.all(unit[1:] >= unit[:-1]))


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
        # A count is an integer: a float would reach np.array_split, a bool read as 0 or 1.
        for k in (2.0, np.float64(3), True, np.True_, "2"):
            with pytest.raises(InvalidInput, match="kfold_split: k must be an integer in"):
                data.kfold_split(ds, k, seed=0)
        assert len(data.kfold_split(ds, np.uint8(2), seed=0)) == 2

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
        for bad in ("0.2", None, [0.2], np.array([0.2, 0.3]), np.array(0.2), True, 10**400):
            with pytest.raises(InvalidInput, match="topn_holdout: fraction must be a real number"):
                data.topn_holdout(ds, bad, seed=0)
        tiny = ds.subset(np.arange(3))
        with pytest.raises(InvalidInput):
            data.topn_holdout(tiny, 0.01, seed=0)

    def test_negative_seed_rejected(self):
        # np.random.default_rng refuses a negative seed with a bare ValueError.
        ds = random_dataset(np.random.default_rng(6), 4, 4, density=1.0)
        for split, op in ((lambda s: data.kfold_split(ds, 2, s), "kfold_split"),
                          (lambda s: data.topn_holdout(ds, 0.5, s), "topn_holdout")):
            for seed in (-1, np.int64(-2)):
                with pytest.raises(InvalidInput, match=f"{op}: seed must be an integer >= 0"):
                    split(seed)
            # A seed is a nonnegative integer of any size: no OS entropy (None),
            # no sequence or SeedSequence, no float or bool.
            for seed in (None, [1, 2], np.random.SeedSequence(4), 1.5, True):
                with pytest.raises(InvalidInput, match=f"{op}: seed must be an integer >= 0"):
                    split(seed)
            for seed in (np.uint64(3), 2**70):
                split(seed)

    @pytest.mark.parametrize("n", [2, 3, 10, 101, 5000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_splits_match_sorted_reference(self, n, seed):
        ds = from_arrays(np.arange(n) // 7, np.arange(n) % 7, np.full(n, 3), U=n // 7 + 1, I=7)
        for k in sorted({2, min(5, n), min(13, n)}):
            for split, (train, test) in zip(data.kfold_split(ds, k, seed), sorted_kfold(n, k, seed), strict=True):
                assert split.train.dtype == split.test.dtype == np.int32
                assert np.array_equal(split.train, train) and np.array_equal(split.test, test)
        for fraction in (0.2, 0.5, 0.99):
            n_test = int(np.floor(fraction * n))
            if n_test:
                split = data.topn_holdout(ds, fraction, seed)
                train, test = sorted_holdout(n, n_test, seed)
                assert split.train.dtype == split.test.dtype == np.int32
                assert np.array_equal(split.train, train) and np.array_equal(split.test, test)

    @pytest.mark.parametrize("n", [10, 1_000, 1_000_209])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_int32_shuffle_is_the_permutation(self, n, seed):
        # An int32 arange shuffled in place takes rng.permutation's draws.
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        got = data._shuffled(n, rng)
        assert got.dtype == np.int32 and np.array_equal(got, reference.permutation(n))
        assert rng.integers(2**62) == reference.integers(2**62)

    def test_index_of_2_to_the_31_keeps_int64(self):
        big = np.array([2**31], dtype=np.int64)
        split = data.DataSplit(train=big, test=np.array([0], dtype=np.int64))
        assert split.train.dtype == np.int64 and split.train.tolist() == [2**31]
        assert split.test.dtype == np.int32
        assert data.DataSplit(train=np.array([2**31 - 2]), test=[0]).train.dtype == np.int32

    @pytest.mark.parametrize(
        "make, held_bound, peak_bound",
        [(lambda ds: [data.topn_holdout(ds, 0.2, 0)], 5, 10.69), (lambda ds: data.kfold_split(ds, 5, 0), 21, 59.2)],
        ids=["topn_holdout", "kfold_split"],
    )
    def test_split_memory_per_entry(self, make, held_bound, peak_bound):
        # With int64 index sets and an intp permutation (and kfold's intp
        # fold label), topn_holdout held 8.7 bytes per entry at a peak of
        # 12.9, and kfold_split(ds, 5) 40.0 at a peak of 59.2; int32 ones
        # hold 4.7 (peak 8.3) and 20.0 (peak 27.6).
        n = 1_000_209
        ds = from_arrays(np.arange(n) // 200, np.arange(n) % 200, np.full(n, 3), U=n // 200 + 1, I=200)
        tracemalloc.start()
        try:
            splits = make(ds)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(s.train.dtype == s.test.dtype == np.int32 for s in splits)
        assert sum(s.train.nbytes + s.test.nbytes for s in splits) == 4 * n * len(splits)
        assert held <= held_bound * n and peak <= peak_bound * n

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


# Every public index argument: (name, call with the index in that argument,
# a valid index, indices outside its range). DataSplit has no dataset, so it
# checks the dtype only; the metrics check their indices against the dataset.
# A split object of plain attributes reaches the metrics' own check.
_DS = from_arrays([0, 0, 1, 2], [0, 2, 1, 2], [5, 3, 4, 5], U=3, I=3)
_M = random_quantum_model(np.random.default_rng(0), 3, 3, 2)
_T = train.effective_targets(_DS, False)
_INDEX_ENTRY_POINTS = [
    ("RatingDataset.uu", lambda x: from_arrays(x, [0, 1], [5, 4], U=3, I=3), [2, 0], [[0, -1], [0, 3]]),
    ("RatingDataset.ii", lambda x: from_arrays([0, 1], x, [5, 4], U=3, I=3), [2, 0], [[0, -1], [0, 3]]),
    ("RatingDataset.rr", lambda x: from_arrays([0, 1], [0, 1], x, U=2, I=2), [5, 1], [[5, 0], [5, 6]]),
    ("subset", _DS.subset, [1, 3], [[1, -1], [1, 4]]),
    ("DataSplit.train", lambda x: data.DataSplit(train=x, test=[3]), [2, 0], []),
    ("DataSplit.test", lambda x: data.DataSplit(train=[3], test=x), [2, 0], []),
    ("mae", lambda x: metrics.mae(_M, _DS, SimpleNamespace(train=[0], test=x)).value, [1, 3], [[1, -1], [1, 4]]),
    ("recall_at_n", lambda x: metrics.recall_at_n(_M, _DS, SimpleNamespace(train=x, test=[3]), 2).value,
     [1, 2], [[1, -1], [1, 4]]),
    ("Targets.uu", lambda x: train.Targets(x, [0, 1], [0.2, 0.4], False, 3, 3).matrix, [2, 0], [[0, -1], [0, 3]]),
    ("Targets.ii", lambda x: train.Targets([0, 1], x, [0.2, 0.4], True, 3, 3).matrix, [2, 0], [[0, -1], [0, 3]]),
    ("score_items", lambda x: models.score_items(_M, x), [2, 0], [[0, -1], [0, 3]]),
    ("score_entries.uu", lambda x: models.score_entries(_M, x, [0, 1]), [2, 0], [[0, -1], [0, 3]]),
    ("score_entries.ii", lambda x: models.score_entries(_M, [0, 1], x), [2, 0], [[0, -1], [0, 3]]),
    ("predict.u", lambda x: models.predict(_M, x, 0, 1), 2, [-1, 3]),
    ("predict.i", lambda x: models.predict(_M, 0, x, 1), 1, [-1, 3]),
    ("predict.z", lambda x: models.quantum_predict(_M, 0, 0, x), 2, [0, 3, -1]),
    ("tag_operator", lambda x: tags.tag_operator(_M, x).matrix, [0, 2], [[0, -1], [0, 3]]),
    ("user_gradient", lambda x: train.user_gradient(_M, _T, x), 2, [-1, 3]),
    ("item_gradient", lambda x: train.item_gradient(_M, _T, x), 1, [-1, 3]),
]


def _result(value):
    """A comparable form of an entry point's result."""
    if isinstance(value, data.RatingDataset):
        return [value.uu, value.ii, value.rr, value.U, value.I]
    if isinstance(value, data.DataSplit):
        return [value.train, value.test]
    return [value.toarray() if hasattr(value, "toarray") else np.asarray(value)]


@pytest.mark.parametrize("name, call, good, out_of_range", _INDEX_ENTRY_POINTS, ids=[e[0] for e in _INDEX_ENTRY_POINTS])
class TestIndexContract:
    def test_rejects_float_bool_and_out_of_range_indices(self, name, call, good, out_of_range):
        # An int64 cast would truncate a float and read a bool as 0 or 1;
        # numpy would read a bool array as a mask and -1 as the last entry.
        good = np.array(good)
        bad = [good.astype(float), good + 0.5, good.astype(bool), 0.5, True, np.True_, *out_of_range]
        if good.ndim == 0:
            bad += [float(good), np.array([good])]
        for idx in bad:
            message = r"integer index|index out of range|ratings must lie|parallel|expected one"
            with pytest.raises(InvalidInput, match=message):
                call(idx)

    def test_integer_indices_of_any_width_give_one_result(self, name, call, good, out_of_range):
        want = _result(call(good))
        cast = (lambda x, t: t(x)) if np.ndim(good) == 0 else (lambda x, t: np.array(x, dtype=t))
        for idx in (cast(good, t) for t in (np.int32, np.int64, np.uint8, np.uint64)):
            got = _result(call(idx))
            assert all(np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype
                       for a, b in zip(got, want, strict=True)), idx


class TestCheckIndex:
    @given(
        dtype=st.sampled_from([np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]),
        values=st.lists(st.integers(0, 125), max_size=6),
        shift=st.integers(-2, 2),
        n=st.integers(0, 130),
    )
    @settings(max_examples=300, deadline=None)
    def test_integer_indices_pass_exactly_when_in_range(self, dtype, values, shift, n):
        idx = np.array(values, dtype=np.int64) + (shift if np.dtype(dtype).kind == "i" else 0)
        idx = idx.astype(dtype)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            with pytest.raises(InvalidInput, match=rf"op: thing index out of range \[0, {n}\)"):
                data.check_index("op", idx, n, "thing")
            return
        got = data.check_index("op", idx, n, "thing")
        kept = idx.dtype in (np.int32, np.int64)
        assert got.dtype == (idx.dtype if kept else np.int64) and got.tolist() == idx.tolist()
        assert (got is idx) == kept
        assert data.check_index("op", idx, None, "thing").tolist() == idx.tolist()

    @given(values=st.lists(st.floats(-3, 3) | st.booleans(), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_other_dtypes_never_pass(self, values):
        for idx in (np.array(values), np.array(values, dtype=object), values[0], [values]):
            with pytest.raises(InvalidInput, match="expected an integer index or 1-D index array"):
                data.check_index("op", idx, None, "thing")

    def test_empty_list_is_an_empty_index_array(self):
        for idx in ([], (), np.array([], dtype=np.uint8)):
            got = data.check_index("op", idx, 0, "thing")
            assert got.dtype == np.int64 and got.shape == (0,)
        assert len(_DS.subset([])) == 0
        assert models.score_items(_M, []).shape == (0, _M.I)
        assert data.DataSplit(train=[], test=[0]).train.dtype == np.int32


def _trained(**counts):
    m, history = train.train_quantum(_DS, train.TrainConfig(**{"max_iter": 2, **counts}))
    return [m.users, m.items, history.objective]


def _recovered(seed):
    m = models.recover_nnm(_NNM, seed=seed)
    return [m.users, m.items]


_NNM = models.embed_nnm(random_nnm_model(np.random.default_rng(1), 3, 3, 2))
_HOLDOUT = data.DataSplit(train=[1, 2], test=[0, 3])
# Every public count argument: (op.what, call with the count in that
# argument, a valid count, counts outside its range). Seeds are nonnegative
# integers of any size: no OS entropy (None) either.
_COUNT_ENTRY_POINTS = [
    ("TrainConfig.D", lambda x: _trained(D=x), 2, [0, -1]),
    ("TrainConfig.max_iter", lambda x: _trained(max_iter=x), 2, [-1]),
    ("TrainConfig.zero_fill_sweeps", lambda x: _trained(zero_fill_sweeps=x), 1, [-1, 3]),
    ("TrainConfig.inner_iters", lambda x: _trained(inner_iters=x), 2, [0, -1]),
    ("TrainConfig.seed", lambda x: _trained(seed=x), 3, [-1]),
    ("Targets.U", lambda x: train.Targets([0, 1], [0, 1], [0.2, 0.4], False, x, 3).matrix, 2, [-1]),
    ("Targets.I", lambda x: train.Targets([0, 1], [0, 1], [0.2, 0.4], True, 3, x).matrix, 2, [-1]),
    ("init_quantum_users.n_users", lambda x: train.init_quantum_users(x, 2, 0), 3, [0, -1]),
    ("init_quantum_users.d", lambda x: train.init_quantum_users(3, x, 0), 2, [0, -1]),
    ("init_quantum_users.seed", lambda x: train.init_quantum_users(3, 2, x), 3, [-1]),
    ("RatingDataset.U", lambda x: data.RatingDataset([0, 1], [0, 1], [5, 4], x, 2, 5, [7, 8], [7, 8]), 2, [-1]),
    ("RatingDataset.I", lambda x: data.RatingDataset([0, 1], [0, 1], [5, 4], 2, x, 5, [7, 8], [7, 8]), 2, [-1]),
    ("RatingDataset.z_star", lambda x: metrics.rating_histogram(from_arrays([0, 1], [0, 1], [2, 1], U=2, I=2, z_star=x)),
     2, [1, 0, -1]),
    ("kfold_split.k", lambda x: data.kfold_split(_DS, x, 0), 2, [1, 5, -1]),
    ("kfold_split.seed", lambda x: data.kfold_split(_DS, 2, x), 3, [-1]),
    ("topn_holdout.seed", lambda x: data.topn_holdout(_DS, 0.5, x), 3, [-1]),
    ("recall_at_n.n", lambda x: metrics.recall_at_n(_M, _DS, _HOLDOUT, x).value, 2, [0, -1]),
    ("recover_nnm.seed", lambda x: _recovered(seed=x), 3, [-1]),
    ("MetricReport.count", lambda x: metrics.MetricReport("mae", 0.5, x).count, 2, [0, -1]),
]


def _parts(value):
    """_result of a value or of each item of a list of them."""
    return [part for v in value for part in _result(v)] if isinstance(value, list) else _result(value)


@pytest.mark.parametrize("name, call, good, out_of_range", _COUNT_ENTRY_POINTS, ids=[e[0] for e in _COUNT_ENTRY_POINTS])
class TestCountContract:
    def test_rejects_float_bool_and_out_of_range_counts(self, name, call, good, out_of_range):
        # A float would reach range(), a shape or SeedSequence as a raw
        # TypeError, or be compared and pass; a bool would read as 0 or 1.
        bad = [float(good), good + 0.5, True, np.float64(good), *out_of_range]
        if name.endswith(".seed"):
            bad.append(None)
        op, what = name.split(".")
        for count in bad:
            with pytest.raises(InvalidInput, match=rf"{op}: {what} must be an integer (>=|in)"):
                call(count)

    def test_integer_counts_of_any_width_give_the_plain_int_result(self, name, call, good, out_of_range):
        want = _parts(call(good))
        for count in (int(good), np.int32(good), np.uint8(good), np.int64(good)):
            got = _parts(call(count))
            assert all(np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype
                       for a, b in zip(got, want, strict=True)), repr(count)


_INT_TYPES = [int, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


class TestCheckCount:
    @given(
        draw=st.data(),
        kind=st.sampled_from(_INT_TYPES),
        low=st.integers(-3, 40),
        high=st.none() | st.integers(-3, 60),
    )
    @settings(max_examples=300, deadline=None)
    def test_integers_pass_exactly_when_in_range(self, draw, kind, low, high):
        # Python ints of any size pass: default_rng takes seeds above 2**63.
        lo, hi = (-(2**70), 2**70) if kind is int else (int(np.iinfo(kind).min), int(np.iinfo(kind).max))
        value = kind(draw.draw(st.integers(max(lo, -5), min(hi, 70)) | st.integers(lo, hi)))
        if int(value) < low or (high is not None and int(value) > high):
            bound = f">= {low}" if high is None else rf"in \[{low}, {high}\]"
            with pytest.raises(InvalidInput, match=rf"op: thing must be an integer {bound}, got"):
                data.check_count("op", value, "thing", low, high)
            return
        got = data.check_count("op", value, "thing", low, high)
        assert type(got) is int and got == int(value)

    @given(
        value=st.floats() | st.booleans() | st.none() | st.text(max_size=3)
        | st.builds(np.float64, st.floats()) | st.builds(np.bool_, st.booleans())
        | st.builds(np.array, st.integers(0, 5)) | st.lists(st.integers(0, 5), max_size=2),
        high=st.none() | st.just(10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_other_values_never_pass(self, value, high):
        with pytest.raises(InvalidInput, match="op: thing must be an integer"):
            data.check_count("op", value, "thing", -(10**6), high)


class TestCheckReal:
    @given(value=st.integers(-(2**70), 2**70) | st.floats() | st.sampled_from(_INT_TYPES[1:]).map(lambda t: t(3))
           | st.builds(np.float64, st.floats()) | st.builds(np.float32, st.floats(width=32)))
    @settings(max_examples=300, deadline=None)
    def test_real_numbers_pass_as_floats(self, value):
        # NaN and infinities pass too, for the caller's own range check.
        got = data.check_real("op", value, "thing")
        assert type(got) is float and (got == float(value) or got != got)

    @given(
        value=st.booleans() | st.none() | st.text(max_size=3) | st.builds(np.bool_, st.booleans())
        | st.builds(np.array, st.floats(0, 1)) | st.lists(st.floats(0, 1), max_size=2)
        | st.just(10**400) | st.just(-(10**400)) | st.complex_numbers(),
    )
    @settings(max_examples=200, deadline=None)
    def test_other_values_never_pass(self, value):
        with pytest.raises(InvalidInput, match="op: thing must be a real number, got"):
            data.check_real("op", value, "thing")


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

    def test_non_integer_movie_id(self, tmp_path):
        ds = self._dataset(tmp_path)
        path = self.write_genres(tmp_path, [(10, "A", "Comedy"), ("x1", "B", "Drama")])
        with pytest.raises(ParseError, match="line 2: non-integer movie id"):
            data.load_genres_1m(path, ds)

    @given(
        lines=st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(["10", "20", "30", "99", "x", "", "-1", "+10", " 20 ", "1_0", "\xb2"]),
                    st.sampled_from(["::", ":", ":::", "::::"]),
                    st.text(st.characters(max_codepoint=255), max_size=6),
                    st.sampled_from(["::", ":", ""]),
                    st.lists(st.sampled_from(["Drama", "Comedy", "", "drama", "A|B", "\xe9t\xe9"]), max_size=3).map(
                        "|".join
                    ),
                ).map("".join),
                st.text(st.characters(max_codepoint=255), max_size=12),
            ),
            max_size=6,
        ),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        exclude=st.lists(st.sampled_from(["Drama", "Comedy", "B"]), max_size=2),
    )
    @settings(max_examples=400, deadline=None)
    def test_genres_fuzz_loads_or_raises_parse_error(self, tmp_path_factory, lines, newline, exclude):
        # Every file either gives a catalog over the dataset's items or a
        # ParseError; no other exception escapes.
        tmp = tmp_path_factory.mktemp("genres")
        ds = self._dataset(tmp)
        path = tmp / "movies.dat"
        path.write_bytes(newline.join(lines).encode("latin-1"))
        try:
            catalog = data.load_genres_1m(str(path), ds, exclude=exclude)
        except ParseError:
            return
        assert list(catalog.tags) == sorted(catalog.membership) and not set(catalog.tags) & set(exclude)
        for members in catalog.membership.values():
            assert members.dtype == np.int64 and len(members) > 0
            assert np.all(np.diff(members) > 0) and 0 <= members[0] and members[-1] < ds.I
        with open(path, encoding="latin-1") as fh:
            assert 0 <= catalog.skipped <= len(fh.readlines())

    def test_catalog_validation(self):
        with pytest.raises(InvalidInput):
            data.TagCatalog(tags=("a",), membership={"a": ()})
        with pytest.raises(InvalidInput):
            data.TagCatalog(tags=("a",), membership={})
