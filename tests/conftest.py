"""Shared fixtures: random feasible objects, planted datasets, MovieLens
discovery, and the acceptance-summary reporter."""

from __future__ import annotations

import os

import numpy as np
import pytest

from psdrec import data, models

# --- random feasible objects -------------------------------------------------


def random_density(rng, d, field="complex"):
    g = rng.standard_normal((d, d))
    if field == "complex":
        g = g + 1j * rng.standard_normal((d, d))
    rho = g @ np.conj(g.T)
    return rho / np.real(np.trace(rho))


def random_povm(rng, d, z, field="complex"):
    """Random POVM via S^(-1/2) conjugation of random psd parts."""
    parts = []
    for _ in range(z):
        g = rng.standard_normal((d, d))
        if field == "complex":
            g = g + 1j * rng.standard_normal((d, d))
        parts.append(g @ np.conj(g.T) + 1e-3 * np.eye(d))
    s = np.sum(parts, axis=0)
    w, v = np.linalg.eigh(s)
    isqrt = (v * (1.0 / np.sqrt(w))) @ np.conj(v.T)
    stack = np.stack([isqrt @ p @ isqrt for p in parts])
    return 0.5 * (stack + np.conj(np.swapaxes(stack, -1, -2)))


def random_effect(rng, d, field="complex"):
    """Random matrix with eigenvalues in [0, 1]."""
    g = rng.standard_normal((d, d))
    if field == "complex":
        g = g + 1j * rng.standard_normal((d, d))
    h = 0.5 * (g + np.conj(g.T))
    w, v = np.linalg.eigh(h)
    lo, hi = w[0], w[-1]
    w = (w - lo) / max(hi - lo, 1e-12) * rng.uniform(0.3, 1.0)
    return (v * w) @ np.conj(v.T)


def random_quantum_model(rng, n_users, n_items, d, z=2, field="complex"):
    users = np.stack([random_density(rng, d, field) for _ in range(n_users)])
    items = np.stack([random_povm(rng, d, z, field) for _ in range(n_items)])
    return models.QuantumModel(users=users, items=items)


def random_nnm_model(rng, n_users, n_items, d, z=2):
    users = rng.random((n_users, d)) + 1e-3
    users /= users.sum(axis=1, keepdims=True)
    items = rng.random((n_items, z, d)) + 1e-3
    items /= items.sum(axis=1, keepdims=True)
    return models.NnmModel(users=users, items=items)


def from_arrays(uu, ii, rr, *, U, I, z_star=5):
    """Dataset over 0-based index arrays, with ids equal to the indices."""
    return data.RatingDataset(uu, ii, rr, U, I, z_star, np.arange(U), np.arange(I))


def random_dataset(rng, n_users=10, n_items=8, density=0.5, z_star=5):
    mask = rng.random((n_users, n_items)) < density
    if not mask.any():
        mask[0, 0] = True
    uu, ii = np.nonzero(mask)
    rr = rng.integers(1, z_star + 1, size=uu.shape[0])
    return from_arrays(uu, ii, rr, z_star=z_star, U=n_users, I=n_items)


def planted_dataset(rng, n_users=12, n_items=10, z_star=5):
    """Dense integer-rating dataset that a D=z_star diagonal model fits
    exactly: user u sits on basis state k(u), item like-effects are diagonal
    with entries on the k/z_star grid."""
    ks = rng.integers(0, z_star, size=n_users)
    diag = rng.integers(1, z_star + 1, size=(n_items, z_star))
    uu, ii = np.meshgrid(np.arange(n_users), np.arange(n_items), indexing="ij")
    uu, ii = uu.ravel(), ii.ravel()
    rr = diag[ii, ks[uu]]
    return from_arrays(uu, ii, rr, z_star=z_star, U=n_users, I=n_items)


# --- MovieLens discovery ------------------------------------------------------

_HERE = os.path.dirname(os.path.abspath(__file__))


def ml100k_path():
    p = os.environ.get("PSDREC_ML100K")
    if p and os.path.exists(p):
        return p
    p = os.path.join(_HERE, "..", "data", "ml-100k", "u.data")
    return p if os.path.exists(p) else None


def ml1m_path():
    p = os.environ.get("PSDREC_ML1M")
    if p and os.path.exists(p):
        return p
    p = os.path.join(_HERE, "..", "data", "ml-1m", "ratings.dat")
    return p if os.path.exists(p) else None


requires_ml100k = pytest.mark.skipif(
    ml100k_path() is None,
    reason="ML-100K ratings not found (set PSDREC_ML100K or add data/ml-100k/u.data)",
)
requires_ml1m = pytest.mark.skipif(
    ml1m_path() is None,
    reason="ML-1M ratings not found (set PSDREC_ML1M or add data/ml-1m/ratings.dat)",
)


# --- acceptance summary -------------------------------------------------------

_ACCEPTANCE_LINES = {}


def record_acceptance(number, name, status, detail=""):
    line = f"criterion {number:2d} ({name}): {status}"
    if detail:
        line += f"  [{detail}]"
    _ACCEPTANCE_LINES[number] = line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[number])
