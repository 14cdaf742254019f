"""Dataset ingestion and split generation.

Rating files are parsed into a RatingDataset with contiguous 0-based internal
user and item indices (original ids are kept for round-tripping). Splits are
index sets over the dataset's entry list.
"""

from __future__ import annotations

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
        self.uu = np.asarray(self.uu, dtype=np.int64)
        self.ii = np.asarray(self.ii, dtype=np.int64)
        self.rr = np.asarray(self.rr, dtype=np.int64)
        if not (self.uu.shape == self.ii.shape == self.rr.shape) or self.uu.ndim != 1:
            raise InvalidInput("RatingDataset: entry arrays must be parallel 1-d arrays")
        if self.z_star < 2:
            raise InvalidInput("RatingDataset: z_star must be at least 2")
        n = len(self.uu)
        if n:
            if self.uu.min() < 0 or self.uu.max() >= self.U:
                raise InvalidInput("RatingDataset: user index out of range")
            if self.ii.min() < 0 or self.ii.max() >= self.I:
                raise InvalidInput("RatingDataset: item index out of range")
            if self.rr.min() < 1 or self.rr.max() > self.z_star:
                raise InvalidInput(f"RatingDataset: ratings must lie in [1, {self.z_star}]")
            keys = np.sort(self.uu * np.int64(self.I) + self.ii)
            if np.any(keys[1:] == keys[:-1]):
                raise InvalidInput("RatingDataset: duplicate (user, item) entry")
        self.user_ids = np.asarray(self.user_ids)
        self.item_ids = np.asarray(self.item_ids)
        if len(self.user_ids) != self.U or len(self.item_ids) != self.I:
            raise InvalidInput("RatingDataset: id maps must cover all internal indices")

    def __len__(self):
        return len(self.uu)

    def subset(self, entry_idx):
        """Dataset restricted to the given entry indices; keeps U, I and ids."""
        entry_idx = np.asarray(entry_idx, dtype=np.int64)
        return RatingDataset(
            self.uu[entry_idx],
            self.ii[entry_idx],
            self.rr[entry_idx],
            self.U,
            self.I,
            self.z_star,
            self.user_ids,
            self.item_ids,
        )

    @cached_property
    def item_index(self):
        """Original item id -> internal index."""
        return {orig: k for k, orig in enumerate(self.item_ids.tolist())}


@dataclass(frozen=True)
class DataSplit:
    """Disjoint train / test entry-index sets over a dataset."""

    train: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        train = np.asarray(self.train, dtype=np.int64)
        test = np.asarray(self.test, dtype=np.int64)
        # Binary search in sorted train: ms at 1M entries, ~1 s for np.intersect1d.
        ordered = np.sort(train, axis=None)
        if ordered.size:
            found = ordered[np.minimum(np.searchsorted(ordered, test), ordered.size - 1)]
            if np.any(found == test):
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


def group_entries(unit, n, *columns):
    """Entries sorted stably by unit: (indptr over the n units, *columns)."""
    order = np.argsort(unit, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(unit, minlength=n))])
    return (indptr, *(c[order] for c in columns))


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


def _load_ratings(path, sep, z_star=5):
    columns = _parse_blocks(path, sep, z_star)
    if columns is not None:
        uu, ii, rr = columns
        user_ids, item_ids = _first_appearance(uu), _first_appearance(ii)
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
    final size, at most 8 bytes per byte of file, and the blocks fill them in
    place. A pipe cannot be read twice, so anything but a regular file, and
    a missing path, is left to the loop.
    """
    if not os.path.isfile(path):
        return None
    sep_byte = sep[:1].encode()
    with open(path, "rb") as fh:
        read = partial(fh.read, _BLOCK_BYTES)
        sep_bytes = sum(block.count(sep_byte) for block in iter(read, b""))
        columns = [np.empty(sep_bytes // (3 * len(sep)), dtype=np.int64) for _ in range(3)]
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
    entry count, or None if the block parser declines the block."""
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
    for column, end, length in zip(columns, seps, lengths):
        out = column[n : n + k]
        out[:] = 0
        for j in range(int(length.max(initial=0))):
            # int64 before the product: numpy 1.x would keep uint8 digits
            # times a small power of ten in the narrowest type that holds it.
            out += np.where(length > j, digit[end - 1 - j], 0).astype(np.int64) * _POW10[j]
    rr = columns[2][n : n + k]
    if k and (rr.min() < 1 or rr.max() > z_star):
        return None
    return n + k


def _first_appearance(values):
    """Replace each value by its index in order of first appearance, in
    place; return the distinct values in that order. One stable argsort,
    a radix sort when the values fit in 16 bits."""
    keys = values.astype(np.uint16) if values.max() < 1 << 16 else values
    order = np.argsort(keys, kind="stable")
    del keys
    ordered = values[order]
    head = np.empty(len(ordered), dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    # Stable: the head of each run of equal values is its first appearance.
    rank = np.argsort(order[head])
    ids = ordered[head][rank]
    index_of_run = np.empty(len(rank), dtype=np.int64)
    index_of_run[rank] = np.arange(len(rank))
    np.cumsum(head, out=ordered)
    ordered -= 1
    values[order] = index_of_run[ordered]
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


def kfold_split(ds, k, seed):
    """Partition the entries uniformly at random into k folds.

    Split j uses fold j as the test set and the rest as training; the union of
    the test folds is the whole entry set. Reproducible from seed.
    """
    if not 2 <= k <= len(ds):
        raise InvalidInput(f"kfold_split: need 2 <= k <= {len(ds)}, got {k}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ds))
    folds = np.array_split(perm, k)
    splits = []
    for j in range(k):
        test = np.sort(folds[j])
        train = np.sort(np.concatenate([folds[l] for l in range(k) if l != j]))
        splits.append(DataSplit(train=train, test=test))
    return splits


def topn_holdout(ds, fraction, seed):
    """Hold out floor(fraction * |entries|) entries uniformly at random."""
    if not 0.0 < fraction < 1.0:
        raise InvalidInput(f"topn_holdout: fraction must lie in (0, 1), got {fraction}")
    n_test = int(np.floor(fraction * len(ds)))
    if n_test < 1:
        raise InvalidInput("topn_holdout: fraction selects an empty test set")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ds))
    return DataSplit(train=np.sort(perm[n_test:]), test=np.sort(perm[:n_test]))
