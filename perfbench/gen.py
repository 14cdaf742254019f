"""Seeded synthetic MovieLens-shaped inputs drawn from a planted quantum model.

The planted model has dimension D = 3 over the complex field. Each of the 18
MovieLens genres has a prototype like-effect; an item's like-effect mixes the
prototypes of its genres. Users are pure states near a favourite genre's top
eigenvector, mixed with a little of the maximally mixed state. A rating is
1 + Binomial(4, tr(rho_u E_i)), so errors and rankings carry signal.

Which pairs are observed follows lognormal user activity and lognormal item
popularity, as in the real datasets. Every user rates at least 20 items and
every item is rated at least once, so the loaders see the full shape.

The same seed gives byte-identical files. Nothing here imports psdrec: the
program under test receives only the files. Run as a script, it writes the
input set of a seed and a tiny one for warming up, each with a manifest,
so that the benchmark process never holds the generator's memory:

    python3 perfbench/gen.py --seed 1 --layout ml1m --out DIR --hierarchy
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

D = 3
GENRES = (
    "Action", "Adventure", "Animation", "Children's", "Comedy", "Crime",
    "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical",
    "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western",
)
# Movies per genre in ML-1M's movies.dat, used as genre frequencies.
GENRE_WEIGHTS = np.array(
    [503, 283, 105, 251, 1200, 211, 127, 1603, 68, 44, 343, 114, 106, 471, 276, 492, 143, 68],
    dtype=float,
)

# (users, items, ratings) of the two MovieLens releases.
SHAPES = {"ml100k": (943, 1682, 100_000), "ml1m": (6040, 3706, 1_000_209)}
# Log-scale standard deviations of user activity and item popularity.
SIGMA_USER = 1.0
SIGMA_ITEM = 1.4
MIN_USER_RATINGS = 20
# The most active ML-1M user rated about 60% of the catalogue.
MAX_USER_SHARE = 0.6
PREFERENCE_BIAS = 3.0
# Planted-model shape. Genres form D families around the axes of a frame.
# Only SHARP genres have a top eigenvalue high enough for their tag operator
# to clear the sdp spectral gate at eps = 1/3; the rest fall clearly short.
# A contained pair costs the sdp heuristic seconds, so there is one: a
# SHADOW genre copies another's top eigenvector with a lower top eigenvalue,
# which misses the gate but keeps the sharp genre contained in it.
GEOMETRY_SEED = 1601_06035
FAMILIES = (
    ("Action", "Adventure", "Sci-Fi", "Thriller", "War", "Western"),
    ("Animation", "Children's", "Comedy", "Fantasy", "Musical", "Romance"),
    ("Crime", "Documentary", "Drama", "Film-Noir", "Horror", "Mystery"),
)
SHARP = ("Action", "Comedy", "Drama")
SHADOWS = {"Adventure": ("Action", 0.85)}
SHARP_TOP = (0.98, 1.0)
BLUNT_TOP = (0.55, 0.72)
LOW_EIG = (0.05, 0.25)
FAMILY_NOISE = 0.15
USER_NOISE = 0.45
# Share of items with 0, 1, 2 secondary genres, the weight of secondary
# prototypes in an item's like-effect, and the relative odds of a secondary
# genre outside the primary genre's family.
EXTRA_GENRES = (0.8, 0.17, 0.03)
SECONDARY_SHARE = 0.1
SECONDARY_OUTSIDE = 0.15
ITEM_JITTER = 0.03
# ML-1M item ids run up to 3952 with gaps; movies.dat also lists unrated ids.
ML1M_MAX_ITEM_ID = 3952
MANIFEST = "manifest.json"
# (users, items, ratings) of the inputs for the warm-up pass.
WARM_SHAPE = (60, 90, 1500)


@dataclass(frozen=True)
class Planted:
    """The planted model; users in file order, items in generation order."""

    users: np.ndarray  # (U, D, D) density matrices
    likes: np.ndarray  # (I, D, D) like-effects
    genres: list  # per item, tuple of genre indices, primary first


@dataclass(frozen=True)
class Inputs:
    """The files of one generated input set, as described by its manifest."""

    ratings: Path
    layout: str  # "ml100k" or "ml1m"
    shape: tuple  # (U, I, N)
    movies: Path | None
    model: Path | None
    unrated_movies: int  # movies.dat lines without ratings
    user_counts: np.ndarray  # ratings per user, for the skew check

    @classmethod
    def load(cls, out_dir):
        out_dir = Path(out_dir)
        m = json.loads((out_dir / MANIFEST).read_text())
        return cls(
            ratings=out_dir / m["ratings"],
            layout=m["layout"],
            shape=tuple(m["shape"]),
            movies=out_dir / m["movies"] if m["movies"] else None,
            model=out_dir / m["model"] if m["model"] else None,
            unrated_movies=m["unrated_movies"],
            user_counts=np.asarray(m["user_counts"]),
        )

    def planted(self):
        """(users, likes) of the planted model, in the loaders' index order."""
        with np.load(self.model.with_suffix(".npz")) as z:
            return z["users"], z["likes"]

    def planted_genres(self):
        """(I, len(GENRES)) booleans: the genres of each rated item, in the
        loaders' index order."""
        with np.load(self.model.with_suffix(".npz")) as z:
            return z["genres"]

    def digest(self):
        """sha256 over the bytes of every input file."""
        h = hashlib.sha256()
        for p in (self.ratings, self.movies, self.model):
            if p is not None:
                with open(p, "rb") as fh:
                    while block := fh.read(1 << 20):
                        h.update(block)
        return h.hexdigest()


def _unit_vectors(rng, n):
    v = rng.standard_normal((n, D)) + 1j * rng.standard_normal((n, D))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _projectors(v):
    return np.einsum("na,nb->nab", v, np.conj(v))


def planted_containments():
    """The (a, b) genre pairs planted so that a lies inside b: a shadow
    shares its genre's top eigenvector with a lower top eigenvalue."""
    return {(like, g) for g, (like, _) in SHADOWS.items()}


def _prototype_geometry():
    """Genre prototypes (18, D, D) and their top eigenvectors in a fixed frame.

    Drawn once from GEOMETRY_SEED, so the containment structure of the genre
    hierarchy, and with it the cost of the sdp test, is the same for every
    benchmark seed; the seed draws everything else.
    """
    rng = np.random.default_rng(GEOMETRY_SEED)
    family = np.array([next(f for f, names in enumerate(FAMILIES) if g in names) for g in GENRES])
    top = np.eye(D, dtype=complex)[family] + FAMILY_NOISE * _unit_vectors(rng, len(GENRES))
    top /= np.linalg.norm(top, axis=1, keepdims=True)
    sharp = np.array([g in SHARP for g in GENRES])
    high = np.where(sharp, rng.uniform(*SHARP_TOP, len(GENRES)), rng.uniform(*BLUNT_TOP, len(GENRES)))
    low = rng.uniform(*LOW_EIG, len(GENRES))
    for g, (like, top_eig) in SHADOWS.items():
        a, b = GENRES.index(g), GENRES.index(like)
        top[a], high[a], low[a] = top[b], top_eig, low[b]
    protos = low[:, None, None] * np.eye(D) + (high - low)[:, None, None] * _projectors(top)
    return protos, top, family


def planted_model(rng, n_users, n_items):
    """Genre prototypes, item like-effects and user states."""
    g_n = len(GENRES)
    protos, top, family = _prototype_geometry()

    weights = GENRE_WEIGHTS / GENRE_WEIGHTS.sum()
    primary = rng.choice(g_n, size=n_items, p=weights)
    n_extra = rng.choice(3, size=n_items, p=EXTRA_GENRES)
    genres = []
    likes = np.empty((n_items, D, D), dtype=complex)
    for i in range(n_items):
        # Secondary genres come mostly from the primary genre's family.
        w = weights * np.where(family == family[primary[i]], 1.0, SECONDARY_OUTSIDE)
        w[primary[i]] = 0.0
        others = tuple(rng.choice(g_n, size=n_extra[i], replace=False, p=w / w.sum()).tolist())
        genres.append((int(primary[i]),) + others)
        e = protos[primary[i]]
        if others:
            e = (1.0 - SECONDARY_SHARE) * e + SECONDARY_SHARE * protos[list(others)].mean(axis=0)
        likes[i] = e
    # Items of one genre differ a little, so rankings have few exact ties.
    g = rng.standard_normal((n_items, D, D)) + 1j * rng.standard_normal((n_items, D, D))
    w, v = np.linalg.eigh(likes + ITEM_JITTER / 2.0 * (g + np.conj(np.swapaxes(g, 1, 2))))
    likes = np.einsum("nak,nk,nbk->nab", v, np.clip(w, 0.0, 1.0), np.conj(v))

    fav = rng.choice(g_n, size=n_users, p=weights)
    psi = top[fav] + USER_NOISE * _unit_vectors(rng, n_users)
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    mix = rng.uniform(0.0, 0.3, n_users)
    users = (1.0 - mix)[:, None, None] * _projectors(psi) + (mix / D)[:, None, None] * np.eye(D)
    return Planted(users=users, likes=likes, genres=genres)


def _user_counts(w, n_items, n_ratings, cover):
    """Ratings per user in proportion to activity w, at least max(20, cover),
    at most MAX_USER_SHARE of the items, summing to n_ratings."""
    cap = max(int(MAX_USER_SHARE * n_items), MIN_USER_RATINGS)
    floor = np.maximum(MIN_USER_RATINGS, cover)
    counts = floor + np.floor(w / w.sum() * (n_ratings - floor.sum())).astype(np.int64)
    counts = np.minimum(counts, np.maximum(cap, floor))
    # Hand what is missing to the most active users with room left.
    order = np.argsort(-w, kind="stable")
    short = n_ratings - int(counts.sum())
    while short > 0:
        room = order[counts[order] < cap]
        take = room[: min(short, len(room))]
        counts[take] += 1
        short -= len(take)
    return counts


def observed_pairs(rng, planted, n_ratings, chunk=256):
    """(uu, ii) distinct pairs, every user and item present.

    Each user draws items without replacement with log-weight popularity
    plus PREFERENCE_BIAS times the like probability: users rate what is
    popular and what they expect to like, so ratings are missing not at
    random, as in the real datasets.
    """
    n_users, n_items = len(planted.users), len(planted.likes)
    popularity = SIGMA_ITEM * rng.standard_normal(n_items)
    act = np.exp(SIGMA_USER * rng.standard_normal(n_users))
    cover_user = rng.choice(n_users, size=n_items, p=act / act.sum())
    cover = np.bincount(cover_user, minlength=n_users)
    counts = _user_counts(act, n_items, n_ratings, cover)
    extra = counts - cover
    uf = np.conj(planted.users.reshape(n_users, -1))
    ef_t = planted.likes.reshape(n_items, -1).T
    uu_parts, ii_parts = [cover_user], [np.arange(n_items)]
    rowpos = np.full(n_users, -1)
    by_extra = np.argsort(-extra, kind="stable")
    for s in range(0, n_users, chunk):
        rows = by_extra[s : s + chunk]
        k = extra[rows]
        kmax = int(k[0])
        if kmax == 0:
            break
        # Gumbel top-k is weighted sampling without replacement.
        keys = popularity + PREFERENCE_BIAS * (uf[rows] @ ef_t).real
        keys += rng.gumbel(size=keys.shape)
        rowpos[rows] = np.arange(len(rows))
        mine = np.nonzero(rowpos[cover_user] >= 0)[0]
        keys[rowpos[cover_user[mine]], mine] = -np.inf
        rowpos[rows] = -1
        part = np.argpartition(keys, n_items - kmax, axis=1)[:, n_items - kmax :]
        best = np.argsort(-np.take_along_axis(keys, part, axis=1), axis=1)
        top = np.take_along_axis(part, best, axis=1)
        uu_parts.append(np.repeat(rows, k))
        ii_parts.append(top[np.arange(kmax)[None, :] < k[:, None]])
    return np.concatenate(uu_parts), np.concatenate(ii_parts), counts


def _like_probs(planted, uu, ii, chunk=1 << 17):
    p = np.empty(len(uu))
    uf = planted.users.reshape(len(planted.users), -1)
    ef = planted.likes.reshape(len(planted.likes), -1)
    for s in range(0, len(uu), chunk):
        sl = slice(s, s + chunk)
        p[sl] = np.einsum("nk,nk->n", np.conj(uf[uu[sl]]), ef[ii[sl]]).real
    return np.clip(p, 0.0, 1.0)


def _fmt(x):
    return f"{x.real:.17g},{x.imag:.17g}"


def write_model(path, users, likes):
    """Write a binary-outcome quantum model in the PSDREC v1 text format."""
    u_n, i_n = len(users), len(likes)
    lines = [f"PSDREC v1 | kind=quantum | {D} | {u_n} | {i_n} | 2 | field=complex"]
    for u in range(u_n):
        lines.append(f"user {u} " + " ".join(map(_fmt, users[u].ravel())))
    dislikes = np.eye(D) - likes
    for i in range(i_n):
        lines.append(f"item {i} 1 " + " ".join(map(_fmt, likes[i].ravel())))
        lines.append(f"item {i} 2 " + " ".join(map(_fmt, dislikes[i].ravel())))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def generate(seed, layout, out_dir, shape=None, with_hierarchy=False):
    """Write the rating file of the given layout (and, for the hierarchy,
    movies.dat plus the planted model file) into out_dir."""
    rng = np.random.default_rng([seed, 0 if layout == "ml100k" else 1])
    u_n, i_n, n = shape or SHAPES[layout]
    planted = planted_model(rng, u_n, i_n)
    uu, ii, counts = observed_pairs(rng, planted, n)
    rr = 1 + rng.binomial(4, _like_probs(planted, uu, ii))
    ts = rng.integers(956_703_932, 1_046_454_590, size=n)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if layout == "ml100k":
        item_ids = np.arange(1, i_n + 1)
        perm = rng.permutation(n)
        uu, ii, rr, ts = uu[perm], ii[perm], rr[perm], ts[perm]
        sep, name = "\t", "u.data"
    else:
        extra_ids = min(ML1M_MAX_ITEM_ID - i_n, i_n // 20)
        all_ids = np.sort(rng.choice(np.arange(1, ML1M_MAX_ITEM_ID + 1), size=i_n + extra_ids, replace=False))
        rated = np.sort(rng.choice(len(all_ids), size=i_n, replace=False))
        item_ids = all_ids[rated]
        # Within a user, ML-1M lists ratings in no particular item order.
        perm = np.lexsort((rng.random(n), uu))
        uu, ii, rr, ts = uu[perm], ii[perm], rr[perm], ts[perm]
        sep, name = "::", "ratings.dat"
    ratings = out_dir / name
    fields = np.stack([uu + 1, item_ids[ii], rr, ts], axis=1)
    # Formatted in blocks so set-up stays well below the protocols' memory.
    block = 1 << 16
    line = f"%d{sep}%d{sep}%d{sep}%d\n"
    with open(ratings, "w", encoding="ascii") as fh:
        for s in range(0, n, block):
            rows = fields[s : s + block]
            fh.write(line * len(rows) % tuple(rows.ravel().tolist()))

    movies = model = None
    unrated = 0
    if with_hierarchy:
        movies = out_dir / "movies.dat"
        by_id = {int(item_ids[i]): planted.genres[i] for i in range(i_n)}
        lines = []
        for mid in all_ids.tolist():
            gs = by_id.get(mid)
            if gs is None:
                gs = tuple(rng.choice(len(GENRES), size=2, replace=False).tolist())
            lines.append(f"{mid}::Movie {mid} ({1919 + mid % 81})::" + "|".join(GENRES[g] for g in gs))
        movies.write_text("\n".join(lines) + "\n", encoding="latin-1")
        # The loaders number items in order of first appearance in the file.
        _, first = np.unique(ii, return_index=True)
        order = np.argsort(first, kind="stable")
        likes = planted.likes[order]
        genres = np.zeros((i_n, len(GENRES)), dtype=bool)
        for k, i in enumerate(order.tolist()):
            genres[k, list(planted.genres[i])] = True
        unrated = len(all_ids) - i_n
        model = out_dir / "planted.psdrec"
        write_model(model, planted.users, likes)
        np.savez(model.with_suffix(".npz"), users=planted.users, likes=likes, genres=genres)
    manifest = {
        "ratings": ratings.name,
        "layout": layout,
        "shape": [u_n, i_n, n],
        "movies": movies.name if movies else None,
        "model": model.name if model else None,
        "unrated_movies": unrated,
        "user_counts": counts.tolist(),
    }
    (out_dir / MANIFEST).write_text(json.dumps(manifest), encoding="ascii")
    return Inputs.load(out_dir)


def main(argv=None):
    p = argparse.ArgumentParser(description="Write the input set of one seed to OUT/inputs and a tiny one to OUT/warm.")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--layout", choices=tuple(SHAPES), required=True)
    p.add_argument("--out", required=True, help="directory to write into")
    p.add_argument("--hierarchy", action="store_true", help="also write movies.dat and the planted model")
    args = p.parse_args(argv)
    out = Path(args.out)
    generate(args.seed, args.layout, out / "inputs", with_hierarchy=args.hierarchy)
    generate(args.seed, args.layout, out / "warm", shape=WARM_SHAPE, with_hierarchy=args.hierarchy)
    return 0


if __name__ == "__main__":
    sys.exit(main())
