"""Independent reference implementations used as test oracles.

Everything here is written with plain dense loops, deliberately avoiding the
library's vectorized code paths.
"""

from __future__ import annotations

import itertools

import numpy as np

from psdrec import linalg
from psdrec.models import NnmModel, QuantumModel

# --- Bloch-ball feasibility oracle (D=2) ---------------------------------------

_PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ]
)

_GRID_CACHE = {}


def bloch_grid(step):
    """All Bloch vectors r with |r| <= 1 on a cubic grid of the given step."""
    if step not in _GRID_CACHE:
        axis = np.arange(-1.0, 1.0 + step / 2, step)
        pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        _GRID_CACHE[step] = pts[np.einsum("ij,ij->i", pts, pts) <= 1.0 + 1e-12]
    return _GRID_CACHE[step]


def _pauli_coords(a):
    """tr(rho(r) a) = (tr a + r . coords) / 2 for any Hermitian 2x2 a."""
    return np.real(np.einsum("kij,ji->k", _PAULI, a))


def bloch_subset_oracle(et, diff, eps, step=0.01):
    """Grid decision of the containment test plus its margin.

    Returns (contained, margin) where margin is the smallest distance of any
    decision quantity from its threshold; comparisons closer than the grid
    resolution are not trustworthy.
    """
    c = 1.0 - eps / 2.0
    w = np.linalg.eigvalsh(et)
    gate_margin = abs(float(w[-1]) - c)
    if w[-1] < c:
        return False, gate_margin
    grid = bloch_grid(step)
    accept = grid @ _pauli_coords(et) >= 2.0 * c - np.real(np.trace(et))
    vals = np.abs(np.real(np.trace(diff)) + grid[accept] @ _pauli_coords(diff)) / 2.0
    worst = float(vals.max()) if vals.size else 0.0
    margin = min(gate_margin, abs(worst - eps / 2.0))
    return worst <= eps / 2.0, margin


# --- dense objective and gradients ----------------------------------------------


def _like(m, u, i):
    if isinstance(m, QuantumModel):
        return float(np.real(np.trace(m.users[u] @ m.items[i, 0])))
    return float(np.dot(m.users[u], m.items[i, 0]))


def _target_map(ds):
    return {(int(u), int(i)): int(r) / ds.z_star for u, i, r in zip(ds.uu, ds.ii, ds.rr)}


def naive_objective(m, ds, zero_fill):
    """Sum of squared like-score residuals by explicit loops."""
    tmap = _target_map(ds)
    total = 0.0
    if zero_fill:
        for u in range(m.U):
            for i in range(m.I):
                total += (_like(m, u, i) - tmap.get((u, i), 0.0)) ** 2
    else:
        for (u, i), t in tmap.items():
            total += (_like(m, u, i) - t) ** 2
    return total


def naive_observed_quadratic(fix, units, others, values, n_units):
    """Each unit r's observed-only subproblem by loops over its entries
    (r, j, t), f = fix[j]: G_r = sum conj(f) f^T, c_r = sum t f, k_r = sum t^2,
    and the step bound max(2 tr G_r, 1e-12)."""
    k = fix.shape[1]
    gram = np.zeros((n_units, k, k), dtype=np.result_type(fix, float))
    cvec = np.zeros((n_units, k), dtype=gram.dtype)
    const = np.zeros(n_units)
    for r, j, t in zip(units, others, values):
        for a in range(k):
            for b in range(k):
                gram[r, a, b] += np.conj(fix[j, a]) * fix[j, b]
            cvec[r, a] += t * fix[j, a]
        const[r] += t * t
    lips = np.zeros(n_units)
    for r in range(n_units):
        lips[r] = max(2.0 * sum(float(np.real(gram[r, a, a])) for a in range(k)), 1e-12)
    return gram, cvec, const, lips


def hermitian_basis(d):
    """Orthonormal basis of d x d Hermitians under <A, B> = Re tr(A^H B)."""
    basis = []
    for a in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[a, a] = 1.0
        basis.append(e)
    for a in range(d):
        for b in range(a + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[a, b] = e[b, a] = 1.0 / np.sqrt(2.0)
            basis.append(e)
            e = np.zeros((d, d), dtype=complex)
            e[a, b] = -1.0j / np.sqrt(2.0)
            e[b, a] = 1.0j / np.sqrt(2.0)
            basis.append(e)
    return basis


def fd_coefficients(f, x, directions, h=1e-6):
    """Central finite differences of f along each direction."""
    out = []
    for direction in directions:
        out.append((f(x + h * direction) - f(x - h * direction)) / (2.0 * h))
    return np.asarray(out)


# --- recall oracle ---------------------------------------------------------------


def naive_recall(m, ds, split, n):
    """recall@n with explicit per-user loops and pessimistic tie ranks."""
    train = {(int(ds.uu[e]), int(ds.ii[e])) for e in split.train}
    hits = 0
    relevant = 0
    for e in split.test:
        u, i, r = int(ds.uu[e]), int(ds.ii[e]), int(ds.rr[e])
        if r != ds.z_star:
            continue
        relevant += 1
        scores = [_like(m, u, j) for j in range(m.I)]
        cand = [j for j in range(m.I) if (u, j) not in train]
        s = scores[i]
        rank = 1
        for j in cand:
            if j == i:
                continue
            if scores[j] > s or scores[j] == s:
                rank += 1
        if rank <= n:
            hits += 1
    return hits, relevant


# --- permutation matching ----------------------------------------------------------


def best_permutation_error(recovered, original):
    """Smallest max-deviation between two NNMs over coordinate permutations."""
    best = np.inf
    d = original.D
    for perm in itertools.permutations(range(d)):
        p = list(perm)
        err = max(
            float(np.max(np.abs(recovered.users[:, p] - original.users))),
            float(np.max(np.abs(recovered.items[:, :, p] - original.items))),
        )
        best = min(best, err)
    return best


# --- reference per-unit projected-gradient update -----------------------------------


def naive_pg_update(
    v0, f, grad, project, lips, cfg, *, step_init=1.0, step_shrink=0.5, max_backtracks=30
):
    """One unit's inner loop: step step_init/L with halving backtracks, accept
    only non-increase, keep the old point when every backtrack fails. Stricter
    than a plain 1/L step, which the descent lemma lets rise only by rounding."""
    v = v0
    for _ in range(cfg.inner_iters):
        f0 = f(v)
        g = grad(v)
        step = step_init / lips
        accepted = None
        for _ in range(max_backtracks + 1):
            cand = project(v - step * g)
            if f(cand) <= f0:
                accepted = cand
                break
            step *= step_shrink
        if accepted is not None:
            v = accepted
    return v


def povm_frobenius_gap(stack_a, stack_b):
    return float(np.max(np.abs(stack_a - stack_b)))


def projection_vi_gap(point, projected, feasible_samples):
    """Largest <point - projected, q - projected> over sample feasible q; the
    exact Euclidean projection keeps this nonpositive."""
    worst = -np.inf
    for q in feasible_samples:
        inner = float(np.real(np.sum(np.conj(point - projected) * (q - projected))))
        worst = max(worst, inner)
    return worst


# --- reference ratings parser ----------------------------------------------------------


def naive_ratings(path, sep, z_star=5):
    """Ratings parser by plain dict lookups.

    Returns (entries, duplicate, malformed): entries is (uu, ii, rr, user_ids,
    item_ids) as lists over the well-formed lines; duplicate is the message for
    the earliest line that repeats a (user, item) pair, or None; malformed says
    whether any line has a bad field count, a non-integer field or a rating
    outside [1, z_star], or no line holds an entry.
    """
    uu, ii, rr, user_ids, item_ids = [], [], [], [], []
    seen = {}
    duplicate, malformed = None, False
    with open(path, "r", encoding="latin-1") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if line == "":
                continue
            parts = line.split(sep)
            try:
                if len(parts) != 4:
                    raise ValueError
                u, i, r = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                malformed = True
                continue
            if r < 1 or r > z_star:
                malformed = True
                continue
            if (u, i) in seen:
                if duplicate is None:
                    duplicate = (
                        f"{path} line {ln}: duplicate rating for user {u} item {i}"
                        f" (first seen at line {seen[(u, i)]})"
                    )
                continue
            seen[(u, i)] = ln
            if u not in user_ids:
                user_ids.append(u)
            if i not in item_ids:
                item_ids.append(i)
            uu.append(user_ids.index(u))
            ii.append(item_ids.index(i))
            rr.append(r)
    return (uu, ii, rr, user_ids, item_ids), duplicate, malformed or not rr
