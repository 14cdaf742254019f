"""Dataset ingestion and split generation.

Rating files are parsed into a RatingDataset with contiguous 0-based internal
user and item indices (original ids are kept for round-tripping). Splits are
index sets over the dataset's entry list.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property

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

    @classmethod
    def from_arrays(cls, uu, ii, rr, z_star=5, U=None, I=None, user_ids=None, item_ids=None):
        """Build a dataset from already 0-based index arrays."""
        uu = np.asarray(uu, dtype=np.int64)
        ii = np.asarray(ii, dtype=np.int64)
        u_n = int(U) if U is not None else (int(uu.max()) + 1 if len(uu) else 0)
        i_n = int(I) if I is not None else (int(ii.max()) + 1 if len(ii) else 0)
        if user_ids is None:
            user_ids = np.arange(u_n)
        if item_ids is None:
            item_ids = np.arange(i_n)
        return cls(uu, ii, np.asarray(rr), u_n, i_n, int(z_star), user_ids, item_ids)

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


def _load_ratings(path, sep, z_star=5):
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
    user_ids, item_ids = np.array(list(user_map)), np.array(list(item_map))
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


def load_movielens_100k(path):
    """Parse `user<TAB>item<TAB>rating<TAB>timestamp` lines; timestamps dropped."""
    return _load_ratings(path, "\t", z_star=5)


def load_movielens_1m(path):
    """Parse `user::item::rating::timestamp` lines; timestamps dropped."""
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
