"""Dataset ingestion and split generation.

Rating files are parsed into a RatingDataset with contiguous 0-based internal
user and item indices (original ids are kept for round-tripping). Splits are
index sets over the dataset's entry list.
"""

from __future__ import annotations

import copy
import os
from array import array
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .exceptions import InvalidInput, ParseError

__all__ = [
    "RatingDataset",
    "DataSplit",
    "TagCatalog",
    "load_movielens_100k",
    "load_movielens_1m",
    "load_genres_1m",
    "kfold_split",
    "topn_holdout",
]


@dataclass(eq=False)
class RatingDataset:
    """Sparse integer rating matrix.

    uu, ii, rr are parallel entry arrays: user index, item index, rating in
    [1, z_star]. U and I are the full index ranges (a subset keeps the parent
    shape so trained models stay aligned). user_ids / item_ids map internal
    indices back to the original ids.

    Whatever integer arrays it is given, it stores uu and ii as int32 (int64
    when U or I is 2^31 or more) and rr as the narrowest signed integer type
    that holds z_star (int8 for five stars), copying only when the given
    dtype differs: 9 bytes per entry for MovieLens. Ratings are range-checked
    before they are narrowed, so none wraps.
    """

    uu: np.ndarray
    ii: np.ndarray
    rr: np.ndarray
    U: int
    I: int
    z_star: int
    user_ids: np.ndarray
    item_ids: np.ndarray

    def __post_init__(self):
        self.U, self.I = check_count("RatingDataset", self.U, "U", 0), check_count("RatingDataset", self.I, "I", 0)
        self.z_star = check_count("RatingDataset", self.z_star, "z_star", 2)
        self.uu = check_index("RatingDataset", self.uu, self.U, "user").astype(_index_dtype(self.U), copy=False)
        self.ii = check_index("RatingDataset", self.ii, self.I, "item").astype(_index_dtype(self.I), copy=False)
        rr, rating = _integer_array("RatingDataset", self.rr), _rating_dtype(self.z_star)
        if not (self.uu.shape == self.ii.shape == rr.shape) or self.uu.ndim != 1:
            raise InvalidInput("RatingDataset: entry arrays must be parallel 1-d arrays")
        if rr.size and (rr.min() < 1 or int(rr.max()) > min(self.z_star, np.iinfo(rating).max)):
            raise InvalidInput(f"RatingDataset: ratings must lie in [1, {self.z_star}]")
        self.rr = rr.astype(rating, copy=False)
        if len(self.uu):
            # int64 keys built in place: an int32 product would wrap.
            keys = self.uu.astype(np.int64)
            keys *= self.I
            keys += self.ii
            keys.sort()
            if np.any(keys[1:] == keys[:-1]):
                raise InvalidInput("RatingDataset: duplicate (user, item) entry")
        self.user_ids = np.asarray(self.user_ids)
        self.item_ids = np.asarray(self.item_ids)
        if len(self.user_ids) != self.U or len(self.item_ids) != self.I:
            raise InvalidInput("RatingDataset: id maps must cover all internal indices")

    def __len__(self):
        return len(self.uu)

    def subset(self, entry_idx):
        """Dataset restricted to the given entry indices in [0, len(self));
        keeps U, I and ids.

        Strictly increasing indices, such as a split's, pick distinct entries
        of this valid dataset, so the subset is built without
        `__post_init__`'s checks and their duplicate-key sort; any other
        index array goes through them."""
        entry_idx = check_index("subset", entry_idx, len(self), "entry")
        columns = self.uu[entry_idx], self.ii[entry_idx], self.rr[entry_idx]
        if entry_idx.ndim == 1 and np.all(entry_idx[1:] > entry_idx[:-1]):
            sub = copy.copy(self)
            sub.uu, sub.ii, sub.rr = columns
            return sub
        return RatingDataset(*columns, self.U, self.I, self.z_star, self.user_ids, self.item_ids)

    @cached_property
    def item_index(self):
        """Original item id -> internal index."""
        return {orig: k for k, orig in enumerate(self.item_ids.tolist())}


@dataclass(frozen=True)
class DataSplit:
    """Disjoint train / test entry-index sets over a dataset.

    Each set is stored as int32 when its values lie strictly between -2^31
    and 2^31 - 1, by the rule `_index_dtype` applies to a dataset's index
    columns, else as int64, copying only when the given dtype differs: any
    integer width gives one result, and a split holds 4 bytes per entry."""

    train: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        train = _narrow_indices(check_index("DataSplit", self.train, None, "train"))
        test = _narrow_indices(check_index("DataSplit", self.test, None, "test"))
        # Binary search in sorted train: ms at 1M entries, ~1 s for np.intersect1d.
        ordered = train.ravel()
        if np.any(ordered[1:] < ordered[:-1]):
            ordered = np.sort(ordered)
        if ordered.size:
            probe = test.ravel()
            at = np.searchsorted(ordered, probe)
            found = ordered[np.minimum(at, ordered.size - 1, out=at)]
            if np.any(found == probe):
                raise InvalidInput("DataSplit: train and test overlap")
        object.__setattr__(self, "train", train)
        object.__setattr__(self, "test", test)


@dataclass(frozen=True)
class TagCatalog:
    """Tag names mapped to the item indices carrying each tag."""

    tags: tuple
    membership: dict
    skipped: int = 0

    def __post_init__(self):
        for tag in self.tags:
            members = self.membership.get(tag)
            if members is None or len(members) == 0:
                raise InvalidInput(f"TagCatalog: tag {tag!r} has no members")


def _stable_order(values, n):
    """np.argsort(values, kind="stable") for values in [0, n): a radix sort
    on 16-bit keys when n <= 65,536."""
    return np.argsort(values.astype(np.uint16) if n <= 1 << 16 else values, kind="stable")


def unit_counts(unit, n):
    """np.bincount(unit, minlength=n) for an integer array in [0, n).

    np.bincount copies an array of any dtype but intp whole to intp, 8 bytes
    per entry for an int32 or int8 column, so it counts chunks of at most
    max(2^16, n) entries, which keeps the cost O(len(unit) + n)."""
    counts = np.zeros(n, dtype=np.intp)
    step = max(1 << 16, n)
    for k in range(0, len(unit), step):
        counts += np.bincount(unit[k : k + step], minlength=n)
    return counts


def _positions(flag):
    """np.flatnonzero(flag) as `_index_dtype(len(flag))`, found 2^16 flags at
    a time, so no intp array as long as the result is built beside it."""
    out, at, step = np.empty(np.count_nonzero(flag), dtype=_index_dtype(len(flag))), 0, 1 << 16
    for k in range(0, len(flag), step):
        found = np.flatnonzero(flag[k : k + step])
        found += k
        out[at : at + len(found)] = found
        at += len(found)
    return out


def _indptr(unit, n):
    return np.concatenate([[0], np.cumsum(unit_counts(unit, n))])


def group_entries(unit, n, *columns):
    """Entries sorted stably by unit: (indptr over the n units, *columns).

    Columns whose units are already non-decreasing, as in a file listed
    user by user, come back unchanged, the given arrays themselves: one O(n)
    check replaces the sort and the gathers. Otherwise `_stable_order`
    orders them; a stable order is unique, so either way the result is
    that of np.argsort(unit, kind="stable")."""
    if np.all(unit[1:] >= unit[:-1]):
        return (_indptr(unit, n), *columns)
    order = _stable_order(unit, n)
    return (_indptr(unit, n), *(c[order] for c in columns))


def check_count(op, value, what, low, high=None):
    """value as a Python int if it is an int or numpy integer of any size, not
    a bool, in [low, high] (high None: no upper bound); else InvalidInput. The
    one count rule of every public function: sizes, sweeps, folds, N, seeds."""
    count = int(value) if isinstance(value, (int, np.integer)) and not isinstance(value, bool) else None
    if count is None or count < low or (high is not None and count > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise InvalidInput(f"{op}: {what} must be an integer {bound}, got {value!r}")
    return count


def check_real(op, value, what):
    """value as a Python float if it is an int, float or numpy integer or
    floating scalar, not a bool, that a float holds; else InvalidInput. The
    one rule for every public real argument: fractions, eps, scales. NaN and
    infinities come back as they are, for the caller's own range check and
    its message, which every caller has."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InvalidInput(f"{op}: {what} must be a real number, got {value!r}")


def _integer_array(op, idx):
    """idx as a 0-d or 1-d array of an integer dtype, or empty; else InvalidInput."""
    idx = np.asarray(idx)
    if idx.ndim > 1 or (idx.dtype.kind not in "iu" and idx.size):
        raise InvalidInput(f"{op}: expected an integer index or 1-D index array, got {idx.dtype} {idx.shape}")
    return idx


def check_index(op, idx, n, what):
    """idx as a 0-d or 1-d int32 or int64 array with every entry in [0, n);
    n None checks the dtype only. An int32 or int64 array comes back itself,
    uncopied, so a dataset's int32 columns are read as they are; any other
    integer dtype becomes int64.

    The one index rule of every public function. Only integer dtypes pass:
    an int64 cast would truncate floats and read bools as 0 and 1, and numpy
    would read a bool array as a mask. An empty list is an empty index array.
    """
    idx = _integer_array(op, idx)
    if n is not None and idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InvalidInput(f"{op}: {what} index out of range [0, {n})")
    return idx if idx.dtype in (np.int32, np.int64) else idx.astype(np.int64)


def _index_dtype(n):
    """int32 for indices into a range of n < 2^31, else int64."""
    return np.int32 if n < 1 << 31 else np.int64


def _narrow_indices(idx):
    """An int32 or int64 index array in `_index_dtype` of its value range."""
    span = max(int(idx.max()) + 1, -int(idx.min())) if idx.size and idx.dtype != np.int32 else 0
    return idx.astype(_index_dtype(span), copy=False)


def _rating_dtype(z_star):
    """The narrowest signed integer type that holds z_star (int64 at most)."""
    return next((t for t in (np.int8, np.int16, np.int32) if z_star <= np.iinfo(t).max), np.int64)


# Bytes read per block: large enough that per-block overhead is negligible,
# small enough that a block's temporaries (a few bytes per byte) stay near
# 1 MB. Larger blocks raised peak RSS on 100k-line files above the loop's.
_BLOCK_BYTES = 1 << 18
# A line still unfinished after this many bytes (only a long timestamp makes
# an accepted line that long) makes the block parser decline, so the part of
# a line carried from block to block stays bounded.
_MAX_LINE_BYTES = 1 << 12
# Longest id or rating the block parser converts; 10**18 - 1 fits in int64.
_MAX_DIGITS = 18
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)
# Entries per chunk of `_first_appearance`'s two passes: 512 KB temporaries.
_REMAP_CHUNK = 1 << 16


def _load_ratings(path, sep, z_star=5):
    """The block parser's columns with ids remapped by `_first_appearance`'s
    table, or, if it declines or a (user, item) pair repeats, the line loop's.

    The parser gives int32 ids (int64 in a column with an id of 2^31 or
    more) and ratings already narrowed to the dataset's dtype. Each id
    column is remapped in place, in chunks, and an int64 one is narrowed
    right after, one at a time. While the ids are small that is 9 bytes per
    entry besides the parser's block temporaries, all of it then held in
    the dataset, whose duplicate check adds 8 at the peak."""
    columns = _parse_blocks(path, sep, z_star)
    if columns is not None:
        uu, ii, rr = columns
        del columns
        user_ids = _first_appearance(uu)
        uu = uu.astype(_index_dtype(len(user_ids)), copy=False)
        item_ids = _first_appearance(ii)
        ii = ii.astype(_index_dtype(len(item_ids)), copy=False)
        try:
            return RatingDataset(uu, ii, rr, len(user_ids), len(item_ids), z_star, user_ids, item_ids)
        except InvalidInput:
            pass  # a repeated (user, item) pair: the loop reports its lines
    return _parse_lines(path, sep, z_star)


def _parse_blocks(path, sep, z_star):
    """User, item and rating columns of original ids, or None.

    Reads the file in blocks cut at their last newline and checks each with
    numpy. None means the block parser declined the file: a byte other than a
    digit, the separator or a newline, a line without exactly four fields, an
    empty or over-long id or rating, a rating outside [1, z_star], more
    than _MAX_LINE_BYTES of a line left over at a block's end, or no entries
    at all. Then `_parse_lines`
    decides, so every accepted quirk and every error message stays its own.

    A first pass counts the separator bytes. An accepted file has exactly
    3 * len(sep) of them per entry, so the columns are allocated once at their
    final size and the blocks fill them in place: two int32 id columns and
    the ratings in `_rating_dtype(z_star)`, 9 bytes per entry at five stars.
    An id column is widened to int64 once, at the first id of 2^31 or more.
    A pipe cannot be read twice, so anything but a regular file, and a
    missing path, is left to the loop.
    """
    if not os.path.isfile(path):
        return None
    sep_byte = sep[:1].encode()
    with open(path, "rb") as fh:
        read = partial(fh.read, _BLOCK_BYTES)
        sep_bytes = sum(block.count(sep_byte) for block in iter(read, b""))
        size = sep_bytes // (3 * len(sep))
        columns = [np.empty(size, dtype=t) for t in (np.int32, np.int32, _rating_dtype(z_star))]
        fh.seek(0)
        n, carry = 0, b""
        for block in iter(read, b""):
            # Checked before it joins the carry, so every byte `_parse_block`
            # sees is a digit, the separator byte or a newline.
            if block.translate(None, b"0123456789\n" + sep_byte):
                return None
            buf = carry + block
            cut = buf.rfind(b"\n") + 1
            carry = buf[cut:]
            if len(carry) > _MAX_LINE_BYTES:
                return None
            if cut:
                n = _parse_block(np.frombuffer(buf, np.uint8, cut), sep, z_star, columns, n)
                if n is None:
                    return None
        if carry:
            n = _parse_block(np.frombuffer(carry + b"\n", np.uint8), sep, z_star, columns, n)
    return [c[:n] for c in columns] if n else None


def _parse_block(a, sep, z_star, columns, n):
    """Write the entries of the whole lines in bytes `a`, which hold only
    digits, separator bytes and newlines, into each column from n on; the new
    entry count, or None if the block parser declines the block. Ids and
    ratings are summed in int64. An id column too narrow for the block's
    largest id is replaced in `columns` by an int64 copy, and ratings are
    checked against [1, z_star], before either is narrowed into its column,
    so no id or rating, such as a rating of 261, wraps."""
    digit = a - np.uint8(48)  # separators and newlines wrap above 9
    ends = np.flatnonzero(a == 10).astype(np.int32)
    seps = np.flatnonzero(a == ord(sep[0])).astype(np.int32)
    if sep == "::":
        # Pairs of adjacent colons, as str.split finds them; an odd run declines.
        if len(seps) % 2 or np.any(seps[1::2] - seps[0::2] != 1):
            return None
        seps = seps[0::2]
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    filled = ends > starts
    if len(seps) != 3 * np.count_nonzero(filled):
        return None
    # Triple k starts after filled line k's first byte (lengths >= 1 below)
    # and before its newline, and the counts agree, so each filled line has
    # four fields.
    seps = seps.reshape(-1, 3).T
    if np.any(seps[2] > ends[filled]):
        return None
    lengths = seps - np.stack([starts[filled], seps[0] + len(sep), seps[1] + len(sep)])
    if lengths.size and (lengths.min() < 1 or lengths.max() > _MAX_DIGITS):
        return None
    # More entries than the separators counted: the file grew in between.
    k = seps.shape[1]
    if n + k > len(columns[0]):
        return None
    # Right-aligned digit sums. A masked-out index may fall below 0, by less
    # than the longest field, so it wraps inside `a`.
    fields = np.zeros((3, k), dtype=np.int64)
    for out, end, length in zip(fields, seps, lengths):
        for j in range(int(length.max(initial=0))):
            # int64 before the product: numpy 1.x would keep uint8 digits
            # times a small power of ten in the narrowest type that holds it.
            out += np.where(length > j, digit[end - 1 - j], 0).astype(np.int64) * _POW10[j]
    if k and (fields[2].min() < 1 or fields[2].max() > z_star):
        return None
    for c in (0, 1):
        if k and fields[c].max() > np.iinfo(columns[c].dtype).max:
            columns[c] = columns[c].astype(np.int64)
    for column, values in zip(columns, fields):
        column[n : n + k] = values
    return n + k


def _first_appearance(values):
    """Replace each value, a nonnegative id, by its index in order of first
    appearance, in place; return the distinct values in that order. A table
    over the id range takes each id's first index (np.minimum.at), then its new
    index; only the distinct ids are sorted. Ids of len(values) + 2^16 and more,
    such as 18-digit ones, first become their dense codes from np.unique.

    Both passes over values go in chunks of _REMAP_CHUNK entries, so no
    temporary is larger than a chunk. Whole-column positions and looked-up
    indices, 8 bytes per entry each, would be a load's largest requests, and
    malloc keeps freed heap memory resident, so the peak RSS of repeated
    loads would depend on where in the heap those requests land."""
    if values.max() >= len(values) + (1 << 16):
        codes, values[:] = np.unique(values, return_inverse=True)
        return codes[_first_appearance(values)]
    n = len(values)
    table = np.full(values.max() + 1, n)
    for k in range(0, n, _REMAP_CHUNK):
        np.minimum.at(table, values[k : k + _REMAP_CHUNK], np.arange(k, min(k + _REMAP_CHUNK, n)))
    ids = np.flatnonzero(table < n)
    ids = ids[np.argsort(table[ids])]
    table[ids] = np.arange(len(ids))
    for k in range(0, n, _REMAP_CHUNK):
        values[k : k + _REMAP_CHUNK] = table[values[k : k + _REMAP_CHUNK]]
    return ids


def _parse_lines(path, sep, z_star=5):
    """Reference parser, one line at a time; its ParseError messages are the
    loaders' contract for every file the block parser declines."""
    # Entries and their line numbers are kept as machine integers; repeated
    # (user, item) pairs are found by one sort after the loop.
    uu, ii, rr, lines = array("q"), array("q"), array("q"), array("q")
    user_map, item_map = {}, {}
    with open(path, "r", encoding="latin-1") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            parts = line.split(sep)
            if len(parts) != 4:
                raise ParseError(f"{path} line {ln}: expected 4 fields separated by {sep!r}")
            try:
                orig_u, orig_i, r = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"{path} line {ln}: non-integer field") from None
            if not 1 <= r <= z_star:
                raise ParseError(f"{path} line {ln}: rating {r} outside [1, {z_star}]")
            uu.append(user_map.setdefault(orig_u, len(user_map)))
            ii.append(item_map.setdefault(orig_i, len(item_map)))
            rr.append(r)
            lines.append(ln)
    if not rr:
        raise ParseError(f"{path}: empty dataset")
    uu, ii, lines = np.array(uu), np.array(ii), np.array(lines)
    user_ids, item_ids = _id_array(list(user_map)), _id_array(list(item_map))
    keys = uu * np.int64(len(item_ids)) + ii
    order = np.argsort(keys, kind="stable")
    runs = np.flatnonzero(keys[order[1:]] == keys[order[:-1]])
    if runs.size:
        # A stable sort keeps each key's entries in line order, so the
        # earliest repeat directly follows its key's first entry.
        j = runs[np.argmin(order[runs + 1])]
        first, again = order[j], order[j + 1]
        raise ParseError(
            f"{path} line {lines[again]}: duplicate rating for user {user_ids[uu[again]]}"
            f" item {item_ids[ii[again]]} (first seen at line {lines[first]})"
        )
    return RatingDataset(
        uu, ii, np.array(rr), len(user_ids), len(item_ids), z_star, user_ids, item_ids
    )


def _id_array(ids):
    """Original ids as int64, or as Python ints when one does not fit, so an
    id is never rounded."""
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        return np.array(ids, dtype=object)


def load_movielens_100k(path):
    """Parse `user<TAB>item<TAB>rating<TAB>timestamp` lines; timestamps dropped.

    The file is read in bounded blocks. When every line holds only digits,
    tabs and `\\n`, with four fields, ids and ratings of 1 to 18 digits and
    ratings in [1, 5], and no (user, item) pair repeats, numpy parses it.
    Any other file goes through the reference line loop, whose accepted
    inputs and ParseError messages are the contract.
    """
    return _load_ratings(path, "\t", z_star=5)


def load_movielens_1m(path):
    """Parse `user::item::rating::timestamp` lines; timestamps dropped.

    The file is read in bounded blocks. When every line holds only digits,
    `::` separators and `\\n`, with four fields, ids and ratings of 1 to 18
    digits and ratings in [1, 5], and no (user, item) pair repeats, numpy
    parses it. Any other file goes through the reference line loop, whose
    accepted inputs and ParseError messages are the contract.
    """
    return _load_ratings(path, "::", z_star=5)


def load_genres_1m(path, ds, exclude=()):
    """Parse `movieid::title::Genre1|Genre2|...` lines into a TagCatalog.

    Movies absent from ds are skipped and counted; tags named in exclude are
    dropped; tags left without members are dropped.
    """
    exclude = set(exclude)
    tag_items = {}
    skipped = 0
    with open(path, "r", encoding="latin-1") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            parts = line.split("::")
            if len(parts) != 3:
                raise ParseError(f"{path} line {ln}: expected 3 fields separated by '::'")
            try:
                movie = int(parts[0])
            except ValueError:
                raise ParseError(f"{path} line {ln}: non-integer movie id") from None
            genres = [g for g in parts[2].split("|") if g]
            if not genres:
                raise ParseError(f"{path} line {ln}: empty genre list")
            idx = ds.item_index.get(movie)
            if idx is None:
                skipped += 1
                continue
            for g in genres:
                tag_items.setdefault(g, set()).add(idx)
    membership = {
        tag: np.array(sorted(members), dtype=np.int64)
        for tag, members in tag_items.items()
        if tag not in exclude and members
    }
    return TagCatalog(tags=tuple(sorted(membership)), membership=membership, skipped=skipped)


def _shuffled(n, rng):
    """rng.permutation(n) as int32 (int64 from 2^31 entries): an arange of
    that type shuffled in place, which takes the same draws."""
    order = np.arange(n, dtype=_index_dtype(n))
    rng.shuffle(order)
    return order


def kfold_split(ds, k, seed):
    """Partition the entries uniformly at random into k folds.

    Split j uses fold j as the test set and the rest as training; the union of
    the test folds is the whole entry set. Reproducible from seed: fold j is
    the j-th of k near-equal parts of one rng.permutation of the entries.
    Both index sets come sorted, read off a fold label per entry, in the
    narrowest type that holds k; every array is int32 below 2^31 entries,
    so the k splits hold 4k bytes per entry.
    """
    k = check_count("kfold_split", k, "k", 2, len(ds))
    rng = np.random.default_rng(check_count("kfold_split", seed, "seed", 0))
    label = np.empty(len(ds), dtype=np.min_scalar_type(k))
    for j, fold in enumerate(np.array_split(_shuffled(len(ds), rng), k)):
        label[fold] = j
    return [DataSplit(train=_positions(label != j), test=_positions(label == j)) for j in range(k)]


def topn_holdout(ds, fraction, seed):
    """Hold out floor(fraction * |entries|) entries uniformly at random: the
    first ones of one rng.permutation of the entries. Both index sets come
    sorted, read off a held-out flag per entry; every array is int32 below
    2^31 entries, so the split holds 4 bytes per entry."""
    fraction = check_real("topn_holdout", fraction, "fraction")
    if not 0.0 < fraction < 1.0:
        raise InvalidInput(f"topn_holdout: fraction must lie in (0, 1), got {fraction}")
    n_test = int(np.floor(fraction * len(ds)))
    if n_test < 1:
        raise InvalidInput("topn_holdout: fraction selects an empty test set")
    rng = np.random.default_rng(check_count("topn_holdout", seed, "seed", 0))
    held = np.zeros(len(ds), dtype=bool)
    held[_shuffled(len(ds), rng)[:n_test]] = True
    return DataSplit(train=_positions(~held), test=_positions(held))
